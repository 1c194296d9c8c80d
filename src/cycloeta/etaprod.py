"""Eta quotients prod_i eta(i*tau)^e(i) as formal specs, and their exact
q-expansions.

The distinguished family here is the cyclotomic one: for h >= 2 the quotient
eta(h*tau)^phi(h) / prod_{d|h} eta(d*tau)^mu(d), whose exponent map comes out
of the same mu/phi data that builds the cyclotomic-style polynomial family
checked by `cyclotomic_check`.  For prime h this collapses to
eta(h*tau)^h / eta(tau).
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors, moebius, totient
from .qseries import (
    QSeries,
    _solve_quotient,
    _sparse_power,
    pentagonal_terms,
)


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Exponent map of an eta quotient: ((scale, exponent), ...), scales
    distinct and positive, exponents nonzero, sorted by scale."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(sorted((int(s), int(e)) for s, e in self.terms))
        scales = [s for s, _ in terms]
        if any(s < 1 for s in scales):
            raise ValueError("scales must be positive")
        if len(set(scales)) != len(scales):
            raise ValueError("scales must be distinct")
        if any(e == 0 for _, e in terms):
            raise ValueError("exponents must be nonzero")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_map(cls, mapping):
        return cls(tuple(mapping.items()))

    def as_map(self):
        return dict(self.terms)

    def order24(self):
        """Leading exponent of the q-expansion, in units of 1/24."""
        return sum(s * e for s, e in self.terms)

    def weight(self):
        return Fraction(sum(e for _, e in self.terms), 2)

    def rescaled(self, m):
        """tau -> m*tau: every scale multiplies by m."""
        if m < 1:
            raise ValueError("rescale factor must be >= 1")
        return EtaQuotientSpec(tuple((s * m, e) for s, e in self.terms))

    def combined(self, other):
        """Spec of the product of the two quotients (exponents add)."""
        merged = self.as_map()
        for s, e in other.terms:
            merged[s] = merged.get(s, 0) + e
        return EtaQuotientSpec(tuple((s, e) for s, e in merged.items() if e))

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


def expand(spec, n_max):
    """q-expansion of the quotient through q**n_max, exactly.

    Returns a QSeries with order24 = spec.order24(); the window covers every
    exponent (order24 + 24k)/24 <= n_max.  Each positive factor E(q^s)^e is
    computed at its own length ceil(n/s) by Miller's power recurrence on the
    pentagonal terms and then stretched by s, so the structural zeros of
    q -> q^s are never multiplied; several positive factors multiply as
    dense series.  Negative exponents divide against the sparse pentagonal
    factor so quotient coefficients are produced directly (the intermediate
    inverse series, whose coefficients grow like partition numbers, is never
    materialized).
    """
    o24 = spec.order24()
    n_coeff = (24 * n_max - o24) // 24 + 1
    if n_coeff < 1:
        raise ValueError(
            f"n_max={n_max} is below the leading exponent {o24}/24"
        )
    cur = None
    for scale, e in spec.terms:
        if e > 0:
            m = (n_coeff - 1) // scale + 1
            factor = [0] * n_coeff
            factor[::scale] = _sparse_power(pentagonal_terms(m - 1), e, m)
            cur = QSeries(factor) if cur is None else QSeries(factor) * cur
    coeffs = [1] + [0] * (n_coeff - 1) if cur is None else list(cur.coeffs)
    for scale, e in spec.terms:
        if e < 0:
            den = [
                (g * scale, s)
                for g, s in pentagonal_terms((n_coeff - 1) // scale)
            ]
            for _ in range(-e):
                coeffs = _solve_quotient(coeffs, den, 1, n_coeff)
    return QSeries(coeffs, o24)


def _cyclotomic_factor_series(d, m, degree):
    """The d-th cyclotomic-family polynomial evaluated at lambda**m, as a
    series through lambda**degree: (1-x^d)^phi(d) / prod_{t|d} (1-x^t)^mu(t)
    with x = lambda**m."""
    n = degree + 1
    mono = [0] * n
    mono[0] = 1
    if d * m < n:
        mono[d * m] = -1
    cur = QSeries(mono, 0) ** totient(d)
    coeffs = list(cur.coeffs)
    for t in divisors(d):
        mu = moebius(t)
        if mu == 1:
            coeffs = _solve_quotient(coeffs, [(t * m, -1)], 1, n)
        elif mu == -1:
            step = [0] * n
            step[0] = 1
            if t * m < n:
                step[t * m] = -1
            coeffs = list((QSeries(coeffs, 0) * QSeries(step, 0)).coeffs)
    return QSeries(coeffs, 0)


def cyclotomic_poly_series(h, degree):
    """Truncated series of the h-th polynomial in the cyclotomic family."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return _cyclotomic_factor_series(h, 1, degree)


def cyclotomic_check(h, degree):
    """Verify prod_{d|h} Poly_d(lambda^(h/d)) = (1-lambda^h)^h/(1-lambda)
    through lambda**degree.  True iff the truncations agree everywhere."""
    if h < 2:
        raise ValueError("cyclotomic_check needs h >= 2")
    n = degree + 1
    lhs = QSeries([1] + [0] * (degree), 0)
    for d in divisors(h):
        lhs = lhs * _cyclotomic_factor_series(d, h // d, degree)
    mono = [0] * n
    mono[0] = 1
    if h < n:
        mono[h] = -1
    num = QSeries(mono, 0) ** h
    rhs = QSeries(_solve_quotient(list(num.coeffs), [(1, -1)], 1, n), 0)
    return list(lhs.coeffs) == list(rhs.coeffs)


# Rescaled corpus: integer-exponent variants of small cyclotomic quotients.
# "48^3/24" is {2: 3, 1: -1} at 24*tau; the other two are the h = 4 and
# h = 6 cyclotomic specs at 8*tau and 12*tau.
CORPUS = {
    "48^3/24": EtaQuotientSpec(((48, 3), (24, -1))),
    "32^2*16/8": EtaQuotientSpec(((32, 2), (16, 1), (8, -1))),
    "72*36*24/12": EtaQuotientSpec(((72, 1), (36, 1), (24, 1), (12, -1))),
}
