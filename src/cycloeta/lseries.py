"""Dirichlet coefficients of the decomposition
(a(n) - b(n))/8 = c(n), where c(n) are the Fourier coefficients of
eta(7*tau)^7/eta(tau).

a(n) is the coefficient of the product of the character series (character
mod 7) with the twice-shifted zeta function; b(n) is the coefficient of the
once-shifted Hecke series of the field of discriminant -7.  Both are
multiplicative; each has an independent brute-force oracle (divisor sum for
a, ideal enumeration for b) and b additionally has a truncated Euler-product
route.  All arithmetic is in exact ints.
"""

import math
from functools import lru_cache

from . import etaprod
from .arith import divisors, epsilon, factorize, primes_up_to, sieve_multiplicative
from .quadfield import (
    InconsistencyError,
    hecke_weight,
    ideals_of_norm,
    split_euler_factor,
    split_trace,
    split_traces,
)


class IdentityViolation(ArithmeticError):
    """8 does not divide a(n) - b(n): the decomposition identity failed."""

    def __init__(self, n, a, b):
        super().__init__(f"a({n}) - b({n}) = {a - b} is not divisible by 8")
        self.n = n
        self.a = a
        self.b = b


_KINDS = ("A", "B", "C")


class CoeffTable:
    """Coefficient table values[1..n_max]; values[0] is unused and 0.

    kind "A" and "B" tables are multiplicative with values[1] = 1;
    kind "C" (the eta-quotient coefficients) has values[1] = 0.
    """

    __slots__ = ("kind", "n_max", "values")

    def __init__(self, kind, n_max, values):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if n_max < 1 or len(values) != n_max + 1 or values[0] != 0:
            raise ValueError("values must be [0] followed by entries for 1..n_max")
        want = 0 if kind == "C" else 1
        if values[1] != want:
            raise ValueError(f"kind {kind} requires values[1] == {want}")
        self.kind = kind
        self.n_max = n_max
        self.values = list(values)

    def __getitem__(self, n):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside 1..{self.n_max}")
        return self.values[n]

    def __eq__(self, other):
        return (
            isinstance(other, CoeffTable)
            and (self.kind, self.n_max, self.values)
            == (other.kind, other.n_max, other.values)
        )

    def __repr__(self):
        return f"CoeffTable(kind={self.kind!r}, n_max={self.n_max})"


# ---------------------------------------------------------------------------
# a(n): character series times twice-shifted zeta

def a_prime_power(p, k):
    """a(p^k) = (p^(2k+2) - e^(k+1)) / (p^2 - e) with e = epsilon(p): the
    geometric series of the local factor 1/((1 - e X)(1 - p^2 X)) at every
    p, so e = 0 gives 7^(2k)."""
    e = epsilon(p)
    q, r = divmod(p ** (2 * (k + 1)) - e ** (k + 1), p * p - e)
    if r:
        raise InconsistencyError(f"a({p}^{k}) closed form is not integral")
    return q


def a_coeff(n):
    return math.prod(a_prime_power(p, k) for p, k in factorize(n))


def a_table(n_max):
    return CoeffTable("A", n_max, sieve_multiplicative(a_prime_power, n_max))


def a_oracle(n):
    """Divisor-sum route: sum of epsilon(d) * (n/d)^2 over d | n."""
    return sum(epsilon(d) * (n // d) ** 2 for d in divisors(n))


def a_oracle_table(n_max):
    """Same divisor sum, assembled as a Dirichlet convolution over the
    whole range; never factorizes anything."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        e = epsilon(d)
        if e:
            for m in range(1, n_max // d + 1):
                table[d * m] += e * m * m
    return CoeffTable("A", n_max, table)


# ---------------------------------------------------------------------------
# b(n): once-shifted Hecke series

_trace = lru_cache(maxsize=None)(split_trace)


def _split_power_sum(t, p, k):
    """s_k = sum_j pi^(2j) conj(pi)^(2(k-j)) via the integer recurrence
    s_k = t s_(k-1) - p^2 s_(k-2) from s_(-1) = 0, s_0 = 1, where
    t = pi^2 + conj(pi)^2 is the split trace of p."""
    s_prev, s = 0, 1
    for _ in range(k):
        s_prev, s = s, t * s - p * p * s_prev
    return s


def b_prime_power(p, k, traces=None):
    """b(p^k); a split p takes its trace from `traces` ({p: trace}) when
    given, else from the _trace cache."""
    if p == 7:
        return (-7) ** k
    if epsilon(p) == 1:
        t = _trace(p) if traces is None else traces[p]
        return _split_power_sum(t, p, k)
    return p ** k if k % 2 == 0 else 0


def b_coeff(n):
    return math.prod(b_prime_power(p, k) for p, k in factorize(n))


def b_table(n_max):
    """Sieved b table.  Its split traces come from one enumeration of
    x^2 + 7y^2 (quadfield.split_traces); each b(p^k) is still evaluated by
    b_prime_power."""
    traces = split_traces(n_max)
    values = sieve_multiplicative(lambda p, k: b_prime_power(p, k, traces), n_max)
    return CoeffTable("B", n_max, values)


def b_oracle(n):
    """Ideal-enumeration route: sum of alpha^2 over one generator per ideal
    of norm n.  The imaginary parts must cancel exactly."""
    total_u = 0
    total_v = 0
    for alpha in ideals_of_norm(n):
        sq = hecke_weight(alpha)
        total_u += sq.u
        total_v += sq.v
    if total_v != 0:
        raise InconsistencyError(
            f"ideal weights of norm {n} leave imaginary residue {total_v}/2"
        )
    if total_u % 2:
        raise InconsistencyError(f"ideal weight sum of norm {n} is half-integral")
    return total_u // 2


def euler_truncate(n_max):
    """Kind-B table from the truncated Euler product of the shifted Hecke
    series over every prime <= n_max: local factor 1/(1 + 7X) at 7,
    1/(1 - q^2 X^2) at inert q, and the reciprocal of the quadratic split
    factor elsewhere.
    """
    table = [0] * (n_max + 1)
    table[1] = 1
    for p in primes_up_to(n_max):
        for pj, uj in _local_expansion(p, n_max):
            for m in range(1, n_max // pj + 1):
                if m % p and table[m]:
                    table[m * pj] += table[m] * uj
    return CoeffTable("B", n_max, table)


def _local_expansion(p, n_max):
    """(p^j, u_j) for j >= 1 while p^j <= n_max, where sum u_j X^j is the
    reciprocal of the local Euler factor 1 + c1 X + c2 X^2 at p:
    u_j = -c1 u_(j-1) - c2 u_(j-2) from u_(-1) = 0, u_0 = 1."""
    if p == 7:
        c1, c2 = 7, 0
    elif epsilon(p) == 1:
        fac = split_euler_factor(p)
        c1, c2 = fac.c1, fac.c2
    else:
        c1, c2 = 0, -p * p
    out = []
    u_prev, u = 0, 1
    pj = p
    while pj <= n_max:
        u_prev, u = u, -c1 * u - c2 * u_prev
        out.append((pj, u))
        pj *= p
    return out


# ---------------------------------------------------------------------------
# c(n) = (a(n) - b(n))/8, two ways

def c_table(n_max, at=None):
    """Fourier coefficients of the quotient via the decomposition identity.

    c is written over a's own value list, so no third table of big ints
    is ever alive, and b is built before a, so b_table's split traces are
    freed before both tables are.  Given an iterable `at` of indices,
    returns (table, [a(n) for n in at], [b(n) for n in at]) instead, the
    values read before c overwrites a; `at` is consumed only once both
    tables exist."""
    bv = b_table(n_max).values
    av = a_table(n_max).values
    if at is not None:
        a_at, b_at = [], []
        for n in at:
            a_at.append(av[n])
            b_at.append(bv[n])
    _eighths(av, bv)
    c = CoeffTable("C", n_max, av)
    return c if at is None else (c, a_at, b_at)


def _eighths(av, bv):
    """av[n] = (av[n] - bv[n]) / 8 in place, raising IdentityViolation
    where 8 does not divide; each a(n) is read before it is replaced."""
    for n, (a, b) in enumerate(zip(av, bv)):
        d = a - b
        if d % 8:
            raise IdentityViolation(n, a, b)
        av[n] = d // 8


def coeff_table_from_series(series, n_max):
    """Read an integer-exponent q-expansion into a kind C 1..n_max table;
    its window must reach n_max."""
    values = expansion_values(series, n_max)
    if series.order24 // 24 + series.trunc - 1 < n_max:
        raise ValueError("series window too short for requested table")
    return CoeffTable("C", n_max, values)


def c_table_from_expansion(n_max):
    """The independent pipeline: expand the eta quotient itself."""
    series = etaprod.expand(etaprod.cyclotomic_spec(7), n_max)
    return coeff_table_from_series(series, n_max)


def expansion_values(series, n_max):
    """Raw value list [0, v(1), ..., v(n_max)] of an integer-exponent
    expansion, without the kind constraints of CoeffTable (the leading
    degree may be 1, or past n_max)."""
    if series.order24 % 24:
        raise ValueError("series has fractional exponents; rescale the spec first")
    lead = series.order24 // 24
    if lead < 1:
        raise ValueError("expansion must start at degree >= 1")
    out = [0] * (n_max + 1)
    for i, c in enumerate(series.coeffs):
        n = lead + i
        if n > n_max:
            break
        out[n] = c
    return out
