"""Verification layer: positivity of the quotient coefficients, the
uniqueness hypotheses for the decomposition, non-decomposability witnesses
for prime levels, and the non-negativity scan over the cyclotomic family.

Everything here is a mechanical check over exact integer data; each check
returns its report as a dict, keys in the order of the CLI payload, rather
than a bare bool, so callers can see what was actually verified.
"""

import math
from itertools import combinations, islice

# lseries, and with it quadfield, is imported by the checks that read its
# tables (positivity); the expansion-side checks read their windows through
# etaprod alone
from . import etaprod
from .arith import epsilon, is_prime, iter_primes, primes_up_to


# ---------------------------------------------------------------------------
# positivity

def case_margin(p, k):
    """Exact prime-power comparison of a(p^k) against |b(p^k)|, from the
    closed forms of a and b: {"p", "k", "case", "a", "abs_b", "ok"}.

    `ok` asserts the full chain for the relevant splitting case:
    ramified  a = 7^(2k) > 7^k = |b|
    split     a > p^(2k) >= (k+1) p^k >= |b|
    inert     (a - |b|) (p^2+1) >= (p^(k+2)-1)(p^k-1) - 2 > 0
    """
    from . import lseries

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
    return {"p": p, "k": k, "case": case, "a": a, "abs_b": abs_b, "ok": ok}


def _prime_powers(n_max):
    """(p, k, p^k) for every prime power p^k <= n_max, p then k ascending."""
    for p in iter_primes(n_max):
        q, k = p, 1
        while q <= n_max:
            yield p, k, q
            q *= p
            k += 1


class Margins:
    """The margin at every prime power <= n_max, in the order of
    _prime_powers, made on demand from the a(p^k) and b(p^k) words: a
    read-only sized iterable, so a report that only counts them holds no
    margin dict."""

    __slots__ = ("n_max", "a_at", "b_at")

    def __init__(self, n_max, a_at, b_at):
        self.n_max, self.a_at, self.b_at = n_max, a_at, b_at

    def __len__(self):
        return len(self.a_at)

    def __iter__(self):
        for (p, k, _), a, b in zip(_prime_powers(self.n_max), self.a_at, self.b_at):
            yield _margin(p, k, a, b)


def check_positivity(n_max):
    """Verify c(n) > 0 for 2 <= n <= n_max directly, and the three case
    inequalities at every prime power <= n_max.  `failures` lists the
    n >= 2 with c(n) <= 0, `casewise` the margin at every prime power (a
    lazy Margins) and `inequality_failures` the margins that fail.

    The margins take a(p^k) and b(p^k) from the tables that c is built
    from, and c is freed before they are checked, in one pass that keeps
    only the failing ones."""
    from . import lseries

    c, a_at, b_at = lseries.c_table(
        n_max, at=(q for _, _, q in _prime_powers(n_max))
    )
    failures = lseries.nonpositive_indices(c.values, 2)
    del c
    casewise = Margins(n_max, a_at, b_at)
    bad = [m for m in casewise if not m["ok"]]
    return {"n_max": n_max, "verified": not failures and not bad, "failures": failures,
            "inequality_failures": bad, "casewise": casewise}


def extended_case_failures(p_bound=1000, k_max=20):
    """Case-inequality margins for all primes < p_bound and 1 <= k <= k_max,
    far beyond any table; returns the failing margins (expected none)."""
    margins = (
        case_margin(p, k) for p in primes_up_to(p_bound - 1) for k in range(1, k_max + 1)
    )
    return [m for m in margins if not m["ok"]]


# ---------------------------------------------------------------------------
# uniqueness hypotheses

def check_witness(indices, coeffs):
    """Raise ValueError unless these are five pairwise-coprime indices with
    nonzero coefficients."""
    if len(indices) != 5 or len(coeffs) != 5:
        raise ValueError("witness needs exactly five indices")
    if 0 in coeffs:
        raise ValueError("witness coefficients must be nonzero")
    for i, j in combinations(indices, 2):
        if math.gcd(i, j) != 1:
            raise ValueError(f"indices {i}, {j} share a factor")


def uniqueness_hypotheses(values):
    """Check c(1) = 0 and greedily collect, in ascending order, five
    pairwise-coprime indices with nonzero coefficient.

    `values` is a raw list [0, v(1), ..., v(n_max)].  Greedy ascending
    makes the witness deterministic.  An exhausted search leaves
    witness_indices and witness_coeffs None: the hypotheses are then
    unverified at this range, which is weaker than a failure.
    """
    n_max = len(values) - 1
    c1_zero = values[1] == 0
    chosen = []
    for n in range(2, n_max + 1):
        if values[n] and all(math.gcd(n, m) == 1 for m in chosen):
            chosen.append(n)
            if len(chosen) == 5:
                break
    found = len(chosen) == 5
    coeffs = [values[n] for n in chosen]
    if found:
        check_witness(chosen, coeffs)
    return {"c1_zero": c1_zero, "witness_indices": chosen if found else None,
            "witness_coeffs": coeffs if found else None, "searched_to": n_max,
            "verified": c1_zero and found}


# ---------------------------------------------------------------------------
# non-decomposability for prime levels p >= 11

def nondecomp_witness(p):
    """Build and validate the window data for prime p >= 11 showing no
    convolution-style splitting can exist.

    bound = (p^2 - 1)/24 is the leading degree; the coefficients vanish
    below it and are nonzero on [bound, bound + p); m is the smallest odd
    index with 1 < m < bound and bound <= 2m < bound + p.
    """
    if p < 11 or not is_prime(p):
        raise ValueError("the argument applies to primes p >= 11 only")
    bound = (p * p - 1) // 24
    hi = bound + p - 1  # last index that must be nonzero
    series = etaprod.expand(etaprod.cyclotomic_spec(p), hi)
    values = etaprod.expansion_values(series, hi)
    zero_ok = not any(islice(values, 1, bound))
    nonzero_ok = all(islice(values, bound, hi + 1))
    m = next((m for m in range(3, bound, 2) if bound <= 2 * m < bound + p), None)
    return {"p": p, "bound": bound, "m": m, "zero_range_ok": zero_ok,
            "nonzero_range_ok": nonzero_ok, "valid": m is not None and zero_ok and nonzero_ok}


# ---------------------------------------------------------------------------
# non-negativity scan over the cyclotomic family

def conjecture_scan(h_max, n_max):
    """Expand the cyclotomic quotient for each h in 2..h_max through
    q**n_max and record the first negative coefficient, if any.

    first_negative_num24 is its exponent in units of 1/24, None if the
    window has none.  Absence of a negative within a finite window is
    evidence, not proof, so truncation_limited is always True."""
    if h_max < 2:
        raise ValueError("h_max must be >= 2")
    out = []
    for h in range(2, h_max + 1):
        series = etaprod.expand(etaprod.cyclotomic_spec(h), n_max)
        exponents = range(series.order24, 24 * n_max + 1, 24)
        first = next((e for e, c in zip(exponents, series.coeffs) if c < 0), None)
        out.append({"h": h, "checked_to": n_max, "order24": series.order24,
                    "exponent_integral": series.order24 % 24 == 0,
                    "first_negative_num24": first, "truncation_limited": True})
    return out
