"""Ring arithmetic in Z[(1+sqrt(-7))/2] and ideal bookkeeping.

The exhaustive checks (representation uniqueness, ideal counts against the
divisor-sum character formula) are the oracles the L-series layer leans on.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloeta import lseries
from cycloeta.arith import divisors, epsilon, primes_up_to
from cycloeta.quadfield import (
    PI_TWO,
    QuadInt,
    SplittingError,
    hecke_weight,
    ideals_of_norm,
    pi_element,
    split_rep,
    split_trace,
)


def rand_elt(rng):
    v = rng.randrange(-40, 41)
    u = rng.randrange(-40, 41) * 2 + (v % 2)
    return QuadInt(u, v)


def test_parity_enforced():
    QuadInt(1, 1)
    QuadInt(2, 0)
    with pytest.raises(ValueError):
        QuadInt(1, 0)
    with pytest.raises(ValueError):
        QuadInt(2, 3)


@pytest.mark.parametrize(
    "record, text, fields",
    [(QuadInt(1, 1), "QuadInt(u=1, v=1)", (1, 1))],
)
def test_records_behave_as_frozen_value_types(record, text, fields):
    # repr, equality and hash by field, as the frozen dataclasses gave them
    cls = type(record)
    assert repr(record) == text
    assert record == cls(*fields) and hash(record) == hash(fields)
    assert record != cls(*fields[:-1], fields[-1] + 2)
    assert record != fields and len({record, cls(*fields)}) == 1
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls.__slots__) == fields
    with pytest.raises(TypeError):
        cls(*fields[:-1])


def test_records_from_the_splitting_routes():
    assert split_rep(11) == (2, 1)
    assert str(QuadInt(1, 1)) == "(1 + 1*sqrt(-7))/2"
    with pytest.raises(ValueError, match="is not integral"):
        QuadInt(u=1, v=2)


def test_pi_two_generates_two():
    assert PI_TWO.norm() == 2
    assert (PI_TWO * PI_TWO.conjugate()).rational_part() == 2
    assert hecke_weight(PI_TWO) == QuadInt(-3, 1)
    assert split_trace(2) == -3


def test_ring_laws_random():
    rng = random.Random(7)
    one = QuadInt(2, 0)
    for _ in range(400):
        a, b, c = (rand_elt(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() == (a * a.conjugate()).rational_part()
        assert a.norm() >= 0


def test_pow_and_rational_part():
    assert QuadInt(-10, 0).rational_part() == -5
    with pytest.raises(ValueError):
        QuadInt(1, 1).rational_part()


def test_split_rep_known_values():
    assert split_rep(11) == (2, 1)
    assert split_rep(23) == (4, 1)
    assert split_rep(29) == (1, 2)
    assert split_rep(37) == (3, 2)


def test_split_rep_exhaustive_uniqueness():
    # for every odd prime < 1000: a representation exists iff epsilon(p) = 1,
    # and the positive solution is unique (scan all y, not just the first hit)
    for p in primes_up_to(1000):
        if p in (2, 7):
            with pytest.raises(SplittingError):
                split_rep(p)
            continue
        sols = [
            (x, y)
            for y in range(1, math.isqrt(p // 7) + 1)
            for x in range(1, math.isqrt(p) + 1)
            if x * x + 7 * y * y == p
        ]
        if epsilon(p) == 1:
            x, y = split_rep(p)
            assert sols == [(x, y)]
            assert x ** 2 + 7 * y ** 2 == p
        else:
            assert sols == []
            with pytest.raises(SplittingError):
                split_rep(p)


def _search_rep(p):
    """Oracle: the O(sqrt p) search over y for p = x^2 + 7 y^2, x, y > 0;
    None when there is none."""
    for y in range(1, math.isqrt(p // 7) + 1):
        rem = p - 7 * y * y
        x = math.isqrt(rem)
        if x * x == rem and x > 0:
            return (x, y)
    return None


def _cornacchia_or_none(p):
    try:
        return split_rep(p)
    except SplittingError:
        return None


def test_split_rep_matches_search_below_20000():
    for p in primes_up_to(20_000):
        assert _cornacchia_or_none(p) == _search_rep(p), p


def _next_prime(n, step=1):
    """Smallest prime >= n in n's class mod step (trial division)."""
    while not (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))):
        n += step
    return n


# 7681 - 1 = 15 * 2^9 and 3329 - 1 = 13 * 2^8: Tonelli-Shanks runs its
# full loop.  9999991 is the largest prime below 10^7.
@given(st.integers(3, 10**7).map(_next_prime))
@example(7681)
@example(3329)
@example(9_999_991)
@settings(max_examples=300, deadline=None)
def test_split_rep_matches_search_on_drawn_primes(p):
    assert _cornacchia_or_none(p) == _search_rep(p)


@given(st.integers(0, 10**7 // 8).map(lambda m: _next_prime(8 * m + 1, 8)))
@settings(max_examples=200, deadline=None)
def test_split_rep_matches_search_one_mod_eight(p):
    # p = 1 (mod 8): the square root of -7 needs a quadratic non-residue
    assert p % 8 == 1
    assert _cornacchia_or_none(p) == _search_rep(p)


def test_split_rep_rejects_non_primes():
    # 253 = 11 * 23 = 15^2 + 7 * 2^2: a search would "split" it
    for n in (253, 1, 0, -11, 561, 25_326_001):
        with pytest.raises(ValueError):
            split_rep(n)
    for p in (2, 7, 3, 5):
        with pytest.raises(SplittingError):
            split_rep(p)


def test_split_trace_matches_ring_square():
    for p in [2] + [p for p in primes_up_to(20_000) if epsilon(p) == 1]:
        sq = hecke_weight(pi_element(p))
        assert split_trace(p) == (sq + sq.conjugate()).rational_part()
    with pytest.raises(SplittingError):
        split_trace(3)


def test_pi_element_norms():
    for p in [2, 11, 23, 29, 37, 43]:
        assert pi_element(p).norm() == p


def test_hecke_weight_unit_independent():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_elt(rng)
        assert hecke_weight(QuadInt(-a.u, -a.v)) == hecke_weight(a)
        assert hecke_weight(a).norm() == a.norm() ** 2


# solutions of u^2 + 7 v^2 = 4n, one generator per unit orbit, (v, u) order
IDEALS_SMALL = {
    1: [(2, 0)],
    2: [(-1, 1), (1, 1)],
    3: [],
    4: [(4, 0), (-3, 1), (3, 1)],
    7: [(0, 2)],
    8: [(-5, 1), (5, 1), (-2, 2), (2, 2)],
    9: [(6, 0)],
    11: [(-4, 2), (4, 2)],
}


def test_ideals_of_norm_frozen():
    for n, expect in IDEALS_SMALL.items():
        assert [(a.u, a.v) for a in ideals_of_norm(n)] == expect
    with pytest.raises(ValueError):
        ideals_of_norm(0)


def test_ideals_canonical_and_correct():
    for n in range(1, 500):
        gens = ideals_of_norm(n)
        seen = set()
        for a in gens:
            assert a.norm() == n
            assert a.v > 0 or (a.v == 0 and a.u > 0)
            # one representative per unit orbit
            assert (a.u, a.v) not in seen and (-a.u, -a.v) not in seen
            seen.add((a.u, a.v))


def test_ideal_count_matches_character_sum():
    for n in range(1, 2001):
        count = len(ideals_of_norm(n))
        # classical: #ideals of norm n = sum of the character over divisors
        assert count == sum(epsilon(d) for d in divisors(n))


def test_split_trace_closed_form():
    for p in [11, 23, 29, 37, 43, 53]:
        x, y = split_rep(p)
        assert split_trace(p) == 2 * (x ** 2 - 7 * y ** 2)


def test_split_euler_factor_from_roots():
    # the local factor 1 + c1 X + c2 X^2 at a split p must equal
    # (1 - pi^2 X)(1 - conj(pi)^2 X): c1 = -(pi^2 + conj(pi)^2) and
    # c2 = norm(pi)^2 = p^2.  Its reciprocal starts 1 - c1 X + (c1^2 - c2) X^2
    for p in [2, 11, 23, 29, 37]:
        sq = hecke_weight(pi_element(p))
        c1 = -(sq + sq.conjugate()).rational_part()
        c2 = (sq * sq.conjugate()).rational_part()
        assert c2 == p * p
        assert lseries._local_expansion(p, p * p) == [(p, -c1), (p * p, c1 * c1 - c2)]
    assert (split_trace(2), split_trace(11), split_trace(23)) == (-3, -6, 18)
    assert lseries._local_expansion(2, 4) == [(2, -3), (4, 5)]
    assert lseries._local_expansion(11, 121) == [(11, -6), (121, -85)]
    assert lseries._local_expansion(23, 529) == [(23, 18), (529, -205)]
