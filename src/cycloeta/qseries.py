"""Truncated power series in q with exact integer coefficients.

A QSeries is q**(order24/24) * (c[0] + c[1]*q + ... + c[t-1]*q**(t-1)) with
the leading exponent tracked in units of 1/24, the natural grain for eta
factors.  Coefficients are Python ints, so arithmetic is exact at any size;
there is no overflow path.

Truncation policy: every operation returns the largest window both operands
justify (min of the operand windows for products) and never grows a window
silently.  Series are immutable once built.
"""

from operator import itemgetter, mul


class InexactDivisionError(ArithmeticError):
    """Raised when a division that is exact for integer input leaves a remainder."""


def pentagonal_terms(limit):
    """(exponent, sign) pairs of Euler's product up to `limit`, ascending.

    Euler: prod (1-q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)).
    The constant term 1 is not included.
    """
    terms = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 else 1
        g = k * (3 * k - 1) // 2
        terms.append((g, sign))
        g = k * (3 * k + 1) // 2
        if g <= limit:
            terms.append((g, sign))
        k += 1
    terms.sort()
    return terms


# ---------------------------------------------------------------------------
# kernels on bare coefficient lists (window handling lives in QSeries)

def _schoolbook_mul(a, b, n):
    if len(b) < len(a):
        a, b = b, a
    out = [0] * n
    for i, ai in enumerate(a):
        if ai and i < n:
            hi = min(n - i, len(b))
            for j in range(hi):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _kronecker_mul(a, b, n):
    """Convolution via packing into big ints; exact for signed coefficients.

    Split each factor into nonnegative parts.  With P_abs the product of the
    absolute-value packings and P_sig the product of the signed evaluations,
    (P_abs + P_sig)/2 and (P_abs - P_sig)/2 have plain nonnegative digits
    equal to the positive and negative parts of the convolution, so both
    unpack by byte slicing without borrow handling.
    """
    amax = max((abs(x) for x in a), default=0)
    bmax = max((abs(x) for x in b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * n
    bound = amax * bmax * min(len(a), len(b))
    w = bound.bit_length() // 8 + 1  # digit width in bytes; 2^(8w) > 2*bound

    def pack(vec, pick):
        return int.from_bytes(
            b"".join(pick(v).to_bytes(w, "little") for v in vec), "little"
        )

    apos = pack(a, lambda v: v if v > 0 else 0)
    aneg = pack(a, lambda v: -v if v < 0 else 0)
    bpos = pack(b, lambda v: v if v > 0 else 0)
    bneg = pack(b, lambda v: -v if v < 0 else 0)
    p_abs = (apos + aneg) * (bpos + bneg)
    p_sig = (apos - aneg) * (bpos - bneg)
    mask = (1 << (8 * w * n)) - 1
    pos_raw = (((p_abs + p_sig) >> 1) & mask).to_bytes(w * n, "little")
    neg_raw = (((p_abs - p_sig) >> 1) & mask).to_bytes(w * n, "little")
    return [
        int.from_bytes(pos_raw[i * w:(i + 1) * w], "little")
        - int.from_bytes(neg_raw[i * w:(i + 1) * w], "little")
        for i in range(n)
    ]


def _mul_lists(a, b, n):
    nnz = min(sum(1 for x in a[:n] if x), sum(1 for x in b[:n] if x))
    if nnz * n > 2_000_000:
        return _kronecker_mul(a[:n], b[:n], n)
    return _schoolbook_mul(a[:n], b[:n], n)


def _active_segments(terms, n):
    """Split 0..n-1 at the tail offsets: yields (lo, hi, active), where
    active is the ascending list of terms with offset <= k for every k in
    [lo, hi).  Offsets >= n never become active."""
    lo = 0
    for i, (g, _) in enumerate(terms):
        if g >= n:
            break
        if g > lo:
            yield lo, g, terms[:i]
            lo = g
    else:
        i = len(terms)
    if lo < n:
        yield lo, n, terms[:i]


def _offset_getter(offsets):
    """Getter returning the values (out[-g] for g in offsets).

    itemgetter returns a bare item, not a 1-tuple, for a single index; and
    CPython 3.11 puts every freed 20-item tuple on a free list that it never
    draws from (up to 2000 of them, 368 KB).  Those two sizes gather into a
    list instead.
    """
    idx = [-g for g in offsets]
    if len(idx) in (1, 20):
        return lambda out: [out[i] for i in idx]
    return itemgetter(*idx)


def _solve_quotient(num, den_terms, den_lead, n):
    """First n coefficients of num / den, where den = den_lead + sparse tail.

    den_terms is the tail as ascending (offset, coefficient) pairs with
    positive offsets and integer coefficients; den_lead must be +1 or -1 so
    the recurrence stays in ints.

    `out` grows by append, so out[k - g] is always out[-g]: a fixed offset.
    Between two consecutive tail offsets the active terms do not change, so
    they are grouped by coefficient and each group is summed through one
    prebuilt getter.
    """
    out = []
    append = out.append
    if den_lead == -1:  # num / (-1 + t) = (-num) / (1 - t)
        num = [-c for c in num]
        den_terms = [(g, -cg) for g, cg in den_terms]
    num = num[:n]
    num += [0] * (n - len(num))
    for lo, hi, active in _active_segments(den_terms, n):
        groups = {}
        for g, cg in active:
            if cg:
                groups.setdefault(cg, []).append(g)
        getters = [(cg, _offset_getter(gs)) for cg, gs in groups.items()]
        for k in range(lo, hi):
            acc = num[k]
            for cg, get in getters:
                acc -= cg * sum(get(out))
            append(acc)
    return out


def _sparse_power(tail, e, n):
    """First n coefficients of g**e, where g = 1 + sparse tail.

    tail is ascending (offset, coefficient) pairs with positive offsets;
    e is any integer.  J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2,
    4.7): from g*f' = e*g'*f with f = g**e,

        k*f[k] = sum_{j >= 1} ((e + 1)*j - k) * g[j] * f[k - j],

    so each coefficient costs one pass over the active tail terms instead
    of dense products.  The division by k is exact for integer g and e;
    it is checked, and a remainder raises InexactDivisionError.
    """
    out = []
    append = out.append
    for lo, hi, active in _active_segments(tail, n):
        if lo == 0:
            append(1)
            lo = 1
        live = [(g, cg) for g, cg in active if cg]
        if not live:
            out.extend([0] * (hi - lo))
            continue
        get = _offset_getter([g for g, _ in live])
        weights = [cg for _, cg in live]
        jweights = [(e + 1) * g * cg for g, cg in live]
        for k in range(lo, hi):
            vals = get(out)
            acc = sum(map(mul, jweights, vals)) - k * sum(map(mul, weights, vals))
            q, r = divmod(acc, k)
            if r:
                raise InexactDivisionError(
                    f"power recurrence: division by {k} is not exact"
                )
            append(q)
    return out


# ---------------------------------------------------------------------------

class QSeries:
    """Immutable truncated series sum c[i] q^((order24 + 24 i)/24)."""

    __slots__ = ("order24", "coeffs")

    def __init__(self, coeffs, order24=0):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient window")
        # normal form: leading coefficient nonzero unless the whole window is 0
        first = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if first:
            coeffs = coeffs[first:]
            order24 += 24 * first
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order24", order24)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def trunc(self):
        return len(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.trunc > 8 else ""
        return f"QSeries(order24={self.order24}, trunc={self.trunc}, [{head}{tail}])"

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order24 == other.order24 and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order24, self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def coeff24(self, num24):
        """Coefficient of q**(num24/24), or None outside the window."""
        d, r = divmod(num24 - self.order24, 24)
        if r != 0 or d < 0 or d >= self.trunc:
            return None
        return self.coeffs[d]

    def agrees_with(self, other):
        """True when the two series match on the overlap of their windows.

        A coefficient off the other series' exponent grid is compared with
        0, so misaligned grids agree only where both vanish on the overlap.
        """
        lo = max(self.order24, other.order24)
        hi = min(self.order24 + 24 * self.trunc, other.order24 + 24 * other.trunc)
        return all(
            (self.coeff24(n24) or 0) == (other.coeff24(n24) or 0)
            for n24 in range(lo, hi)
        )

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        out = _mul_lists(list(self.coeffs), list(other.coeffs), n)
        return QSeries(out, self.order24 + other.order24)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("QSeries has no inverse; divide by a quotient solve")
        n = self.trunc
        base = list(self.coeffs)
        result = [1] + [0] * (n - 1)
        for _ in range(e):
            result = _mul_lists(result, base, n)
        return QSeries(result, self.order24 * e)

    def rescaled(self, m):
        """Substitute q -> q**m (m >= 1): exponents stretch by m."""
        if m < 1:
            raise ValueError("rescale factor must be >= 1")
        out = [0] * ((self.trunc - 1) * m + 1)
        out[::m] = self.coeffs
        return QSeries(out, self.order24 * m)


def euler_series(trunc):
    """prod_{n>=1} (1 - q^n) to `trunc` coefficients, via the pentagonal theorem."""
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    return euler_series_rescaled(1, trunc)


def euler_series_rescaled(scale, trunc):
    """prod_{n>=1} (1 - q^(scale*n)) to `trunc` coefficients."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    coeffs = [0] * trunc
    coeffs[0] = 1
    for g, s in pentagonal_terms((trunc - 1) // scale):
        coeffs[g * scale] = s
    return QSeries(coeffs, 0)
