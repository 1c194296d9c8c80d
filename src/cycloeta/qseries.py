"""Truncated power series in q with exact integer coefficients.

The kernels here work on bare coefficient lists truncated to n terms:
products, sparse powers and the quotient solve against a sparse tail.
Coefficients are Python ints, so arithmetic is exact at any size.  The two
fixed-width paths, the packed quotient solve and the packed sparse product,
check their bounds on the values they hold and otherwise take an exact
route.

A QSeries is the immutable result of an expansion:
q**(order24/24) * (c[0] + c[1]*q + ... + c[t-1]*q**(t-1)), with the leading
exponent tracked in units of 1/24, the natural grain for eta factors.
"""

import struct
import sys
from operator import itemgetter, mul

from .arith import CheckFailure, Record


class InexactDivisionError(CheckFailure):
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
    return terms


def jacobi_terms(limit):
    """(exponent, coefficient) pairs of Jacobi's cube up to `limit`, ascending.

    Jacobi: prod (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2).
    The constant term 1 is not included.
    """
    terms = []
    k = 1
    while k * (k + 1) // 2 <= limit:
        terms.append((k * (k + 1) // 2, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


# ---------------------------------------------------------------------------
# kernels on bare coefficient lists

def _schoolbook_mul(a, b, n):
    """First n coefficients of a * b by the double loop: the tests' reference."""
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

    Every convolution coefficient lies in (-h, h) with h = 2^(8w-1), for
    fields of w bytes, and each field holds a two's complement word.  An
    operand's words are joined into one int x; x ^ tops, with tops the int
    of h in every field, makes each field its value + h, and subtracting
    tops leaves the signed packed value.  One signed product then carries
    the convolution.  With tops added to the product, its first n fields
    are the nonnegative digits c + h, so a mask reads them without borrow
    handling, and a second XOR with tops turns them back into words.
    """
    amax = max((abs(x) for x in a), default=0)
    bmax = max((abs(x) for x in b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * n
    bound = amax * bmax * min(len(a), len(b))
    w = bound.bit_length() // 8 + 1  # digit width in bytes; h > bound
    top = bytes(w - 1) + b"\x80"  # h as one little-endian field

    def pack(vec):
        tops = int.from_bytes(top * len(vec), "little")
        words = b"".join(v.to_bytes(w, "little", signed=True) for v in vec)
        return (int.from_bytes(words, "little") ^ tops) - tops

    tops = int.from_bytes(top * n, "little")
    mask = (1 << (8 * w * n)) - 1
    raw = (((pack(a) * pack(b) + tops) & mask) ^ tops).to_bytes(w * n, "little")
    return [int.from_bytes(raw[i * w:(i + 1) * w], "little", signed=True)
            for i in range(n)]


def _mul_lists(a, b, n):
    """First n coefficients of a * b: every product is one Kronecker product."""
    return _kronecker_mul(a[:n], b[:n], n)


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


def _grouped_getters(terms):
    """[(c, getter)]: the (offset, coefficient) terms with c != 0 grouped by
    coefficient, one _offset_getter over each group's offsets."""
    groups = {}
    for g, cg in terms:
        if cg:
            groups.setdefault(cg, []).append(g)
    return [(cg, _offset_getter(gs)) for cg, gs in groups.items()]


def _solve_quotient(num, den_terms, den_lead, n):
    """First n coefficients of num / den, where den = den_lead + sparse tail.

    den_terms is the tail as ascending (offset, coefficient) pairs with
    positive offsets and integer coefficients; den_lead must be +1 or -1 so
    the recurrence stays in ints.  num is only read, never copied unless it
    is shorter than n.  From _PACKED_MIN_LEN coefficients on, the solve
    runs blocked (_solve_packed); below, and as its fallback and oracle, it
    runs the plain loop (_solve_plain).
    """
    if den_lead == -1:  # num / (-1 + t) = (-num) / (1 - t)
        num = [-c for c in num]
        den_terms = [(g, -cg) for g, cg in den_terms]
    if len(num) < n:
        num = num + [0] * (n - len(num))
    if n >= _PACKED_MIN_LEN:
        return _solve_packed(num, den_terms, n)
    return _solve_plain([], num, den_terms, n)


def _solve_plain(out, num, den_terms, n):
    """Extend `out`, the first len(out) coefficients of num / (1 + tail),
    to the first n, one coefficient at a time in exact Python ints.

    `out` grows by append, so out[k - g] is always out[-g]: a fixed offset.
    Between two consecutive tail offsets the active terms do not change, so
    they are grouped by coefficient and each group is summed through one
    prebuilt getter.
    """
    append = out.append
    start = len(out)
    for lo, hi, active in _active_segments(den_terms, n):
        if hi <= start:
            continue
        getters = _grouped_getters(active)
        for k in range(max(lo, start), hi):
            acc = num[k]
            for cg, get in getters:
                acc -= cg * sum(get(out))
            append(acc)
    return out


# The packed solve: blocks of _BLOCK coefficients, each packed into one int
# of _BLOCK 64-bit fields.  A field sum is exact while its absolute value
# stays below 2^63, which holds when every packed value is below
# _VALUE_BOUND and the far tail's absolute coefficient sum is below
# 2^63 / _VALUE_BOUND = 2048.  The packed solve beats the plain loop on
# E(q^7)^7/E(q) windows from about 800 coefficients, but not where values
# pass _VALUE_BOUND early and it falls back (1/E(q^3) at 7,000): one
# length threshold, kept at 10^4.
_PACKED_MIN_LEN = 10_000
_BLOCK = 256
_VALUE_BOUND = 1 << 52
_ORDER = sys.byteorder
_FIELDS = struct.Struct(f"={_BLOCK}q")
_TOP_WORD = (1 << 63).to_bytes(8, _ORDER)
_TOPS = int.from_bytes(_TOP_WORD * _BLOCK, _ORDER)
_BLOCK_MASK = (1 << (64 * _BLOCK)) - 1


def _solve_packed(num, den_terms, n):
    """_solve_plain([], num, den_terms, n), with the far tail offsets
    summed a block at a time in packed ints.

    Coefficients are produced in blocks of B = _BLOCK; the first block is
    the plain loop.  A near offset g < B is summed per coefficient by the
    plain loop's fixed-offset getters.  A far offset g >= B never reads the
    block being produced, so each finished block i is packed once, as
    x = sum_f v_f 2^(64 f) over its values v_f, and sent forward: with
    q, r = divmod(g, B), coefficient c of offset g adds c * (x << 64 r) to
    the far sums pending for block i + q, whose fields past B spill into
    the next block.  Fields hold two's complement words: the block's words
    joined into one int, XORed with _TOPS (2^63 in every field) and less
    _TOPS, make x.  When block t is due, its pending sums plus the spill
    of block t - 1 plus _TOPS are masked once, so each field is its far
    sum + 2^63 with no borrow between fields, and XORed with _TOPS once,
    so each field is its far sum as a word; what lies above field B is the
    spill into block t + 1.

    The overflow guard reads only the values already produced: each block
    is checked against _VALUE_BOUND before it is packed, and the far
    tail's weight once, up front.  When either fails, the solve finishes on
    the plain loop.
    """
    B = _BLOCK
    far, weight = {}, 0
    for g, cg in den_terms:
        if cg and B <= g < n:
            q, r = divmod(g, B)
            far.setdefault(r, []).append((q, cg))
            weight += abs(cg)
    if not far or weight * _VALUE_BOUND >= 1 << 63:
        return _solve_plain([], num, den_terms, n)
    out = _solve_plain([], num, den_terms, B)
    append = out.append
    getters = _grouped_getters(t for t in den_terms if t[0] < B)
    shifts = [(64 * r, targets) for r, targets in sorted(far.items())]
    blocks = -(-n // B)
    pending = [0] * blocks  # far sums sent ahead to each block
    spill = 0
    for t in range(1, blocks):
        done = out[-B:]
        if min(done) <= -_VALUE_BOUND or max(done) >= _VALUE_BOUND:
            return _solve_plain(out, num, den_terms, n)
        x = (int.from_bytes(_FIELDS.pack(*done), _ORDER) ^ _TOPS) - _TOPS
        for shift, targets in shifts:
            xs = x << shift
            for q, cg in targets:
                u = t - 1 + q
                if u >= blocks:
                    break
                if cg == 1:
                    pending[u] += xs
                elif cg == -1:
                    pending[u] -= xs
                else:
                    pending[u] += cg * xs
        y = pending[t] + spill + _TOPS
        pending[t] = 0
        spill = y >> (64 * B)
        far_sums = memoryview(((y & _BLOCK_MASK) ^ _TOPS).to_bytes(8 * B, _ORDER))
        for c, f in zip(num[t * B:min(n, (t + 1) * B)], far_sums.cast("q")):
            c -= f
            for cg, get in getters:
                c -= cg * sum(get(out))
            append(c)
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


def _dense(tail, n):
    """1 + tail as its first n coefficients (n >= 1)."""
    out = [0] * n
    out[0] = 1
    for g, cg in tail:
        if g >= n:
            break
        out[g] = cg
    return out


def _sparse_square(tail, n):
    """First n coefficients of (1 + tail)**2, from the pairs of tail terms."""
    out = [1] + [0] * (n - 1)
    for i, (g, cg) in enumerate(tail):
        if g >= n:
            break
        out[g] += 2 * cg
        if 2 * g < n:
            out[2 * g] += cg * cg
        for h, ch in tail[i + 1:]:
            if g + h >= n:
                break
            out[g + h] += 2 * cg * ch
    return out


def _sparse_mul(dense, tail, n):
    """First n coefficients of dense * (1 + tail).  dense holds at least n
    coefficients and is consumed: it is empty on return.

    One shift-sum of packed ints: dense[:n] is packed once, as the signed
    x = sum_f v_f 2^(64 f) of _solve_packed's fields, and each tail term
    with offset g < n adds cg * (x << 64 g), cut to n fields.  One add,
    mask and XOR with 2^63 in every field, as in _kronecker_mul, read
    fields 0..n-1 back as words.  That is exact while max|dense| *
    (1 + sum|cg|) < 2^63 over those terms; past it the product is one
    _mul_lists call.
    """
    del dense[n:]
    terms = [(g, cg) for g, cg in tail if cg and g < n]
    peak = max(max(dense, default=0), -min(dense, default=0))
    if peak * (1 + sum(abs(cg) for _, cg in terms)) >= 1 << 63:
        out = _mul_lists(dense, _dense(tail, n), n)
        dense.clear()
        return out
    tops = int.from_bytes(_TOP_WORD * n, _ORDER)
    # a Struct of its own: struct.pack would cache one for this n's format,
    # a lasting object among the expansion's ints that keeps their memory
    # arena from being freed (verify at 10^5 peaked 0.8 MB higher)
    x = int.from_bytes(struct.Struct(f"={n}q").pack(*dense), _ORDER)
    dense.clear()
    x = (x ^ tops) - tops
    acc = x + tops
    # each term keeps only the n - g fields of x that reach the product, so
    # no int here passes n fields by more than a digit: at verify's length
    # all stay under glibc's 128 KB mmap threshold, which freeing a larger
    # block raises, and the quotient solve's growing list then moves onto
    # the heap
    mask = (1 << 64 * n) - 1
    for g, cg in terms:
        xs = (x & (mask >> 64 * g)) << 64 * g
        if cg == 1:
            acc += xs
        elif cg == -1:
            acc -= xs
        else:
            acc += cg * xs
    raw = ((acc & mask) ^ tops).to_bytes(8 * n, _ORDER)
    return memoryview(raw).cast("q").tolist()


# ---------------------------------------------------------------------------

class QSeries(Record):
    """Immutable truncated series sum c[i] q^((order24 + 24 i)/24)."""

    __slots__ = ("order24", "coeffs")

    def __init__(self, coeffs, order24=0):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient window")
        super().__init__(order24, coeffs)

    @property
    def trunc(self):
        return len(self.coeffs)
