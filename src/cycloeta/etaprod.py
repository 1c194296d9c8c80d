"""Eta quotients prod_i eta(i*tau)^e(i) as formal specs, their exact
q-expansions, and the read-out of an expansion window into values by n.

The distinguished family here is the cyclotomic one: for h >= 2 the quotient
eta(h*tau)^phi(h) / prod_{d|h} eta(d*tau)^mu(d), whose exponent map comes out
of the same mu/phi data that builds the cyclotomic-style polynomial family
checked by `cyclotomic_check`.  For prime h this collapses to
eta(h*tau)^h / eta(tau).
"""

from . import qseries
from .arith import Record, divisors, moebius, totient
from .qseries import (
    QSeries,
    _dense,
    _solve_quotient,
    _sparse_mul,
    _sparse_power,
    _sparse_square,
    jacobi_terms,
    pentagonal_terms,
)


class EtaQuotientSpec(Record):
    """Exponent map of an eta quotient: ((scale, exponent), ...), scales
    distinct and positive, exponents nonzero, sorted by scale."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(sorted((int(s), int(e)) for s, e in terms))
        scales = [s for s, _ in terms]
        if any(s < 1 for s in scales):
            raise ValueError("scales must be positive")
        if len(set(scales)) != len(scales):
            raise ValueError("scales must be distinct")
        if any(e == 0 for _, e in terms):
            raise ValueError("exponents must be nonzero")
        super().__init__(terms)

    def order24(self):
        """Leading exponent of the q-expansion, in units of 1/24."""
        return sum(s * e for s, e in self.terms)

    def weight(self):
        """Half the exponent sum as exact text: "3", "1/2", "-5/2"."""
        w = sum(e for _, e in self.terms)
        return f"{w}/2" if w % 2 else str(w // 2)

    def __str__(self):
        def side(pairs):
            return "*".join(
                f"{s}^{e}" if e != 1 else str(s)
                for s, e in sorted(pairs, reverse=True)
            ) or "1"

        num = [(s, e) for s, e in self.terms if e > 0]
        den = [(s, -e) for s, e in self.terms if e < 0]
        return side(num) + ("/" + side(den) if den else "")


def cyclotomic_spec(h):
    """Exponent map of the cyclotomic eta quotient for h >= 2.

    Scale h carries totient(h), each divisor d of h carries -moebius(d);
    equal scales merge and zero exponents drop.  h = 7 gives {7: 7, 1: -1}.
    """
    if h < 2:
        raise ValueError("cyclotomic spec needs h >= 2")
    exps = {h: totient(h)}
    for d in divisors(h):
        exps[d] = exps.get(d, 0) - moebius(d)
    return EtaQuotientSpec(tuple((s, e) for s, e in exps.items() if e))


def _eta_power(e, m):
    """First m coefficients of E(q)**e, e >= 1, where E(q) = prod (1 - q^n).

    E and E^3 are sparse outright (Euler's pentagonal tail, Jacobi's
    cube), E^2 and E^6 are their sparse squares, and E^4 and E^7 take one
    packed shift-sum of E^3 and E^6 by E's tail (_sparse_mul).  Every other
    exponent goes to Miller's recurrence.
    """
    pent = pentagonal_terms(m - 1)
    if e not in (1, 2, 3, 4, 6, 7):
        return _sparse_power(pent, e, m)
    tail = pent if e < 3 else jacobi_terms(m - 1)
    base = _dense(tail, m) if e in (1, 3, 4) else _sparse_square(tail, m)
    return _sparse_mul(base, pent, m) if e in (4, 7) else base


def _product(factors, n):
    """First n coefficients of prod (1 + t(q^s))^e over the (s, t, e) in
    `factors`, where each tail t is ascending (offset, coefficient) pairs
    with positive offsets (the binomial [(1, -1)] for the cyclotomic
    family), or None for Euler's product E itself, 1 + its pentagonal tail.

    Positive factors come first.  E(q^s) and E(q^s)^3 stay sparse: after
    the other positive factors, each multiplies the running product by its
    stretched pentagonal or Jacobi tail in one packed shift-sum
    (_sparse_mul); only as the product's first factor is one written out
    dense.  Every other positive factor is raised at its own length
    ceil(n/s) (E by _eta_power, any other tail by Miller's power
    recurrence) and stretched by s, so the structural zeros of q -> q^s are
    never multiplied, and every one after the first is multiplied into the
    running product as a dense series.  Negative factors then divide, -e
    times each, against their stretched tails, so quotient coefficients
    are produced directly (no inverse series, whose coefficients grow like
    partition numbers, is ever materialized).  Scales may repeat; an
    exponent 0 contributes nothing.
    """
    # qseries._mul_lists and this module's _solve_quotient are looked up at
    # call time, so wrappers bound over them after import (perfbench/spans.py)
    # are the ones that run.
    acc, sparse = None, []
    for s, tail, e in factors:
        if e > 0:
            m = (n - 1) // s + 1
            if tail is None and e in (1, 3):
                terms = pentagonal_terms(m - 1) if e == 1 else jacobi_terms(m - 1)
                sparse.append([(g * s, c) for g, c in terms])
                continue
            power = [0] * n
            power[::s] = _eta_power(e, m) if tail is None else _sparse_power(tail, e, m)
            acc = power if acc is None else qseries._mul_lists(power, acc, n)
    for tail in sparse:
        acc = _dense(tail, n) if acc is None else _sparse_mul(acc, tail, n)
    if acc is None:
        acc = [1] + [0] * (n - 1)
    for s, tail, e in factors:
        if e < 0:
            if tail is None:
                tail = pentagonal_terms((n - 1) // s)
            den = [(g * s, c) for g, c in tail]
            for _ in range(-e):
                acc = _solve_quotient(acc, den, 1, n)
    return acc


def expand(spec, n_max):
    """q-expansion of the quotient through q**n_max, exactly.

    Returns a QSeries with order24 = spec.order24(); the window covers every
    exponent (order24 + 24k)/24 <= n_max, and always the leading term, so
    an n_max below it gives the window (1,).  The factors E(q^s)^e go to
    `_product` in ascending scale.
    """
    o24 = spec.order24()
    n_coeff = max((24 * n_max - o24) // 24 + 1, 1)
    return QSeries(_product([(s, None, e) for s, e in spec.terms], n_coeff), o24)


def expansion_values(series, n_max):
    """Raw value list [0, v(1), ..., v(n_max)] of an integer-exponent
    expansion, without the kind constraints of lseries.CoeffTable (the
    leading degree may be 1, or past n_max)."""
    if series.order24 % 24:
        raise ValueError("series has fractional exponents; rescale the spec first")
    lead = series.order24 // 24
    if lead < 1:
        raise ValueError("expansion must start at degree >= 1")
    # zeros below lead, the window through n_max (the whole tuple, not a
    # copy, when it ends there), zeros after it; a slice assignment into a
    # list of zeros would hold a second list-sized buffer of the replaced items
    out = [0] * min(lead, n_max + 1)
    out += series.coeffs[:max(n_max + 1 - lead, 0)]
    out += [0] * (n_max + 1 - len(out))
    return out


_BINOMIAL = [(1, -1)]


def _family_factors(d, m):
    """Factors of the d-th cyclotomic-family polynomial at x = lambda**m:
    (1-x^d)^phi(d) / prod_{t|d} (1-x^t)^mu(t)."""
    return [(d * m, _BINOMIAL, totient(d))] + [
        (t * m, _BINOMIAL, -moebius(t)) for t in divisors(d)
    ]


def cyclotomic_check(h, degree):
    """Verify prod_{d|h} Poly_d(lambda^(h/d)) = (1-lambda^h)^h/(1-lambda)
    through lambda**degree.  True iff the truncations agree everywhere."""
    if h < 2:
        raise ValueError("cyclotomic_check needs h >= 2")
    lhs = [f for d in divisors(h) for f in _family_factors(d, h // d)]
    rhs = [(h, _BINOMIAL, h), (1, _BINOMIAL, -1)]
    return _product(lhs, degree + 1) == _product(rhs, degree + 1)


# Rescaled corpus: integer-exponent variants of small cyclotomic quotients.
# "48^3/24" is {2: 3, 1: -1} at 24*tau; the other two are the h = 4 and
# h = 6 cyclotomic specs at 8*tau and 12*tau.
CORPUS = {str(s): s for s in (
    EtaQuotientSpec(((48, 3), (24, -1))),
    EtaQuotientSpec(((32, 2), (16, 1), (8, -1))),
    EtaQuotientSpec(((72, 1), (36, 1), (24, 1), (12, -1))),
)}
