"""Multiplicative-arithmetic helpers and the quadratic character mod 7."""

import math
import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloeta import arith
from cycloeta.arith import (
    divisors,
    epsilon,
    factorize,
    is_prime,
    moebius,
    prime_flags,
    primes_up_to,
    sieve_multiplicative,
    spf_table,
    totient,
)
from cycloeta.lseries import a_coeff, a_prime_power


def test_epsilon_residue_table():
    # squares mod 7 are {1, 2, 4}
    assert [epsilon(n) for n in range(8)] == [0, 1, 1, -1, 1, -1, -1, 0]
    assert epsilon(7 * 13) == 0
    with pytest.raises(ValueError):
        epsilon(-1)


def test_epsilon_matches_square_membership():
    squares = {(x * x) % 7 for x in range(1, 7)}
    for n in range(1, 10_000):
        r = n % 7
        expect = 0 if r == 0 else (1 if r in squares else -1)
        assert epsilon(n) == expect


def test_epsilon_completely_multiplicative():
    # every residue-class pair appears well inside this range
    for m in range(1, 300):
        for n in range(1, 300):
            assert epsilon(m * n) == epsilon(m) * epsilon(n)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_up_to(10_000)
    assert len(ps) == 1229
    assert ps[-1] == 9973


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2001):
        assert is_prime(n) == (n in sieve)


def test_factorize_roundtrip():
    rng = random.Random(701)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        fac = factorize(n)
        prod = 1
        for p, k in fac:
            assert is_prime(p) and k >= 1
            prod *= p**k
        assert prod == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    assert factorize(1) == []
    assert factorize(2**10 * 3**4 * 49) == [(2, 10), (3, 4), (7, 2)]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(360) == sorted(d for d in range(1, 361) if 360 % d == 0)


def test_totient_and_moebius():
    assert [totient(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # Gauss: sum of totients over divisors
    for n in range(1, 200):
        assert sum(totient(d) for d in divisors(n)) == n
    # Moebius sums vanish past n=1
    for n in range(2, 200):
        assert sum(moebius(d) for d in divisors(n)) == 0


def test_spf_table():
    spf = spf_table(100)
    for n in range(2, 101):
        assert n % spf[n] == 0
        assert is_prime(spf[n])
        assert all(n % p for p in primes_up_to(spf[n] - 1))


def test_sieve_multiplicative_reconstructs_totient():
    def rule(p, k):
        return p**k - p ** (k - 1)

    table = sieve_multiplicative(rule, 500)
    assert table[0] == 0
    assert table[1] == 1
    for n in range(1, 501):
        assert table[n] == totient(n)


def test_sieve_multiplicative_divisor_count():
    table = sieve_multiplicative(lambda p, k: k + 1, 300)
    for n in range(1, 301):
        assert table[n] == len(divisors(n))


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(-10, 10**7))
@example(2047)
@example(1_373_653)
@example(1_373_651)
@settings(max_examples=500, deadline=None)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == _trial_division_is_prime(n)


def test_is_prime_past_each_base_set():
    # the smallest strong pseudoprimes to bases 2; 2,3; 2,3,5; 2..7; 2..13;
    # 2..17; 2..37 and 2..41; each is composite
    for n in (
        2047,
        1_373_653,
        25_326_001,
        3_215_031_751,
        3_474_749_660_383,
        341_550_071_728_321,
        3_825_123_056_546_413_051,
        318_665_857_834_031_151_167_461,
    ):
        assert not is_prime(n)
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(1_000_003 * (2**61 - 1))


def test_is_prime_refuses_the_unproven_range():
    # 3317044064679887385961981 is the first n no proven base set covers
    limit = 3_317_044_064_679_887_385_961_981
    assert not is_prime(limit - 1)
    for n in (limit, (2**31 - 1) * (2**61 - 1), 2**89 - 1, 2 * limit):
        with pytest.raises(ValueError, match="proven only below"):
            is_prime(n)


def test_prime_flags_match_primes_up_to():
    for n in range(0, 300):
        flags = prime_flags(n)
        assert len(flags) == n + 1
        assert [m for m in range(n + 1) if flags[m]] == primes_up_to(n)


SIEVE_KEY_PRIMES = primes_up_to(60)


def _sieve_oracle(rule, n_max):
    return [0] + [
        math.prod(rule(p, k) for p, k in factorize(n)) for n in range(1, n_max + 1)
    ]


@given(
    st.dictionaries(
        st.tuples(st.sampled_from(SIEVE_KEY_PRIMES), st.integers(1, 11)),
        st.integers(-3, 3),
    ),
    st.integers(1, 3000),
)
@example({}, 1)
@example({(2, 1): 0}, 2)
@example({}, 3)
@example({(2, 2): 0}, 4)
@example({(2, 11): 5}, 2048)
@example({(3, 7): -2}, 2187)
@example({(7, 4): 3}, 2401)
@example({(53, 2): 0}, 2809)
@example({}, 2999)
@settings(max_examples=150, deadline=None)
def test_sieve_multiplicative_matches_factorized_product(values, n_max):
    # primes outside the dict's keys still get varied values, some 0
    def rule(p, k):
        return values.get((p, k), (p + k) % 5 - 2)

    calls = Counter()

    def counted(p, k):
        calls[p, k] += 1
        return rule(p, k)

    assert sieve_multiplicative(counted, n_max).tolist() == _sieve_oracle(rule, n_max)
    powers = {
        (p, k) for p in primes_up_to(n_max) for k in range(1, 12) if p**k <= n_max
    }
    assert set(calls) == powers
    assert set(calls.values()) <= {1}


def test_sieve_multiplicative_stores_64_bit_words():
    table = sieve_multiplicative(lambda p, k: (-p) ** k, 100)
    assert table.typecode == "q"
    assert table[96] == (-2) ** 5 * -3 and table[97] == -97
    # a value past 64 bits fails loudly instead of wrapping
    with pytest.raises(OverflowError):
        sieve_multiplicative(lambda p, k: 2**63 if p == 97 else 1, 97)
    with pytest.raises(OverflowError):
        sieve_multiplicative(lambda p, k: 2**32, 6)


_C = arith._SIEVE_CHUNK
# the in-place write's slices end at 4, 8, ..., _C, then at every multiple
# of _C; n is drawn on both sides of each end, and for a patched slice
# length c also around its multiples
_SIEVE_ENDS = {1, 2, 3} | {e + d for e in (*(2**k for k in range(2, 17)), 2 * _C)
                           for d in (-1, 0, 1)}


def _chunk_and_n(chunk):
    ends = {m * chunk + d for m in range(1, 40) for d in (-1, 0, 1)} | _SIEVE_ENDS
    n = st.sampled_from(sorted(e for e in ends if 1 <= e <= 2 * _C + 1)) | st.integers(1, 3000)
    return st.tuples(st.just(chunk), n)


@cache
def _a_closed(n_max):
    return [0] + [a_coeff(n) for n in range(1, n_max + 1)]


@given(st.sampled_from((1, 2, 3, 7, 64, _C)).flatmap(_chunk_and_n))
@example((_C, _C + 1))
@example((_C, 2 * _C + 1))
@settings(max_examples=60, deadline=None)
def test_sieve_multiplicative_in_place_is_the_closed_form(chunk_n):
    chunk, n = chunk_n
    try:
        arith._SIEVE_CHUNK = chunk
        table = sieve_multiplicative(a_prime_power, n)
    finally:
        arith._SIEVE_CHUNK = _C
    assert table.tolist() == _a_closed(2 * _C + 1)[:n + 1]


def test_sieve_multiplicative_overflows_in_the_chunked_write():
    # each prime-power value is a word; the product at 2 * 65537, in the
    # slice from 2 * _C on, is 2^63, one past the largest word
    assert is_prime(65537) and 2 * 65537 > 2 * _C

    def rule(sign):
        return lambda p, k: {2: sign * 2**31, 65537: 2**32}.get(p, 1)

    with pytest.raises(OverflowError):
        sieve_multiplicative(rule(1), 2 * 65537)
    # -2^63 is a word, so the same product with one sign flipped is kept
    assert sieve_multiplicative(rule(-1), 2 * 65537)[2 * 65537] == -(2**63)


def test_sieve_multiplicative_rejects_empty_range():
    with pytest.raises(ValueError):
        sieve_multiplicative(lambda p, k: 1, 0)
