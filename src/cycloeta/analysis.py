"""Verification layer: positivity of the quotient coefficients, the
uniqueness hypotheses for the decomposition, non-decomposability witnesses
for prime levels, and the non-negativity scan over the cyclotomic family.

Everything here is a mechanical check over exact integer data; each check
returns a report object rather than a bare bool so callers can see what was
actually verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import le

from . import etaprod, lseries
from .arith import epsilon, is_prime, primes_up_to


# ---------------------------------------------------------------------------
# positivity

@dataclass
class CaseMargin:
    """Exact prime-power comparison of a(p^k) against |b(p^k)|.  Not frozen:
    positivity builds one per prime power (78,734 at 1e6), and a frozen
    dataclass takes nearly twice as long to construct.

    `ok` asserts the full chain for the relevant splitting case:
    ramified  a = 7^(2k) > 7^k = |b|
    split     a > p^(2k) >= (k+1) p^k >= |b|
    inert     (a - |b|) (p^2+1) >= (p^(k+2)-1)(p^k-1) - 2 > 0
    """

    p: int
    k: int
    case: str
    a: int
    abs_b: int
    ok: bool


def case_margin(p, k):
    """The margin at p^k, from the closed forms of a and b."""
    return _margin(p, k, lseries.a_prime_power(p, k), lseries.b_prime_power(p, k))


def _margin(p, k, a, b):
    abs_b = abs(b)
    if p == 7:
        ok = a == 7 ** (2 * k) and abs_b == 7 ** k and a > abs_b
        case = "ramified"
    elif epsilon(p) == 1:
        ok = (
            a > p ** (2 * k)
            and p ** (2 * k) >= (k + 1) * p ** k
            and (k + 1) * p ** k >= abs_b
        )
        case = "split"
    else:
        lower = (p ** (k + 2) - 1) * (p ** k - 1) - 2
        ok = (a - abs_b) * (p * p + 1) >= lower and lower > 0
        case = "inert"
    return CaseMargin(p, k, case, a, abs_b, ok)


def _prime_powers(n_max):
    """(p, k, p^k) for every prime power p^k <= n_max, p then k ascending."""
    for p in primes_up_to(n_max):
        q, k = p, 1
        while q <= n_max:
            yield p, k, q
            q *= p
            k += 1


@dataclass
class PositivityReport:
    n_max: int
    failures: list[int]          # n >= 2 with c(n) <= 0
    casewise: list[CaseMargin]   # every prime power <= n_max
    inequality_failures: list[CaseMargin]

    @property
    def verified(self):
        return not self.failures and not self.inequality_failures


def check_positivity(n_max):
    """Verify c(n) > 0 for 2 <= n <= n_max directly, and the three case
    inequalities at every prime power <= n_max.

    The margins take a(p^k) and b(p^k) from the tables that c is built
    from, and c is freed before they are built."""
    c, a_at, b_at = lseries.c_table(
        n_max, at=(q for _, _, q in _prime_powers(n_max))
    )
    failures = list(
        compress(range(2, n_max + 1), map(le, islice(c.values, 2, None), repeat(0)))
    )
    del c
    casewise = [
        _margin(p, k, a, b)
        for (p, k, _), a, b in zip(_prime_powers(n_max), a_at, b_at)
    ]
    bad = [m for m in casewise if not m.ok]
    return PositivityReport(n_max, failures, casewise, bad)


def extended_case_failures(p_bound=1000, k_max=20):
    """Case-inequality margins for all primes < p_bound and 1 <= k <= k_max,
    far beyond any table; returns the failing margins (expected none)."""
    bad = []
    for p in primes_up_to(p_bound - 1):
        for k in range(1, k_max + 1):
            m = case_margin(p, k)
            if not m.ok:
                bad.append(m)
    return bad


# ---------------------------------------------------------------------------
# uniqueness hypotheses

@dataclass(frozen=True)
class UniquenessWitness:
    """Five pairwise-coprime indices with nonzero coefficients."""

    indices: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.indices) != 5 or len(self.coeffs) != 5:
            raise ValueError("witness needs exactly five indices")
        if any(c == 0 for c in self.coeffs):
            raise ValueError("witness coefficients must be nonzero")
        idx = self.indices
        for i in range(5):
            for j in range(i + 1, 5):
                if math.gcd(idx[i], idx[j]) != 1:
                    raise ValueError(f"indices {idx[i]}, {idx[j]} share a factor")


@dataclass
class UniquenessReport:
    c1_zero: bool
    witness: UniquenessWitness | None
    searched_to: int

    @property
    def verified(self):
        return self.c1_zero and self.witness is not None


def uniqueness_hypotheses(values):
    """Check c(1) = 0 and greedily collect, in ascending order, five
    pairwise-coprime indices with nonzero coefficient.

    `values` is a raw list [0, v(1), ..., v(n_max)].  Greedy ascending
    makes the witness deterministic.  An exhausted search yields witness
    None: the hypotheses are then unverified at this range, which is
    weaker than a failure.
    """
    n_max = len(values) - 1
    c1_zero = values[1] == 0
    chosen = []
    for n in range(2, n_max + 1):
        if values[n] == 0:
            continue
        if all(math.gcd(n, m) == 1 for m in chosen):
            chosen.append(n)
            if len(chosen) == 5:
                break
    witness = None
    if len(chosen) == 5:
        witness = UniquenessWitness(
            tuple(chosen), tuple(values[n] for n in chosen)
        )
    return UniquenessReport(c1_zero, witness, n_max)


# ---------------------------------------------------------------------------
# non-decomposability for prime levels p >= 11

@dataclass
class NondecompWitness:
    """Window data showing no convolution-style splitting can exist.

    bound = (p^2 - 1)/24 is the leading degree; the coefficients vanish
    below it and are nonzero on [bound, bound + p); m is the smallest odd
    index with 1 < m < bound and bound <= 2m < bound + p.
    """

    p: int
    bound: int
    m: int | None
    zero_range_ok: bool
    nonzero_range_ok: bool

    @property
    def valid(self):
        return self.m is not None and self.zero_range_ok and self.nonzero_range_ok


def nondecomp_witness(p):
    """Build and validate the witness for prime p >= 11."""
    if p < 11 or not is_prime(p):
        raise ValueError("the argument applies to primes p >= 11 only")
    bound = (p * p - 1) // 24
    hi = bound + p - 1  # last index that must be nonzero
    series = etaprod.expand(etaprod.cyclotomic_spec(p), hi)
    table = lseries.coeff_table_from_series(series, hi)
    zero_ok = all(table[n] == 0 for n in range(1, bound))
    nonzero_ok = all(table[n] != 0 for n in range(bound, hi + 1))
    m = None
    for cand in range(3, bound, 2):
        if bound <= 2 * cand < bound + p:
            m = cand
            break
    return NondecompWitness(p, bound, m, zero_ok, nonzero_ok)


# ---------------------------------------------------------------------------
# non-negativity scan over the cyclotomic family

@dataclass(frozen=True)
class ScanEntry:
    """Scan result for one h.  first_negative_num24 is the exponent (in
    units of 1/24) of the first negative coefficient, None if the window
    has none.  Absence of a negative within a finite window is evidence,
    not proof, so truncation_limited is always True."""

    h: int
    checked_to: int
    order24: int
    exponent_integral: bool
    first_negative_num24: int | None
    truncation_limited: bool = True


def conjecture_scan(h_max, n_max):
    """Expand the cyclotomic quotient for each h in 2..h_max through
    q**n_max and record the first negative coefficient, if any."""
    if h_max < 2:
        raise ValueError("h_max must be >= 2")
    out = []
    for h in range(2, h_max + 1):
        series = etaprod.expand(etaprod.cyclotomic_spec(h), n_max)
        first = None
        for i, coeff in enumerate(series.coeffs):
            if coeff < 0:
                first = series.order24 + 24 * i
                break
        out.append(
            ScanEntry(
                h=h,
                checked_to=n_max,
                order24=series.order24,
                exponent_integral=series.order24 % 24 == 0,
                first_negative_num24=first,
            )
        )
    return out
