"""Coefficient generators a, b, c and their brute-force counterparts.

Frozen scalars below were computed from the divisor-sum and ideal-sum
oracles (and by hand for the smallest cases) before the closed forms were
written.
"""

import random
from array import array
from itertools import compress, islice, repeat
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloeta import arith, etaprod, lseries, quadfield
from cycloeta.analysis import nondecomp_witness
from cycloeta.arith import epsilon, primes_up_to
from cycloeta.etaprod import cyclotomic_spec, expand
from cycloeta.lseries import (
    CoeffTable,
    IdentityViolation,
    a_coeff,
    a_oracle,
    a_oracle_table,
    a_prime_power,
    a_table,
    b_coeff,
    b_oracle,
    b_prime_power,
    b_table,
    c_table,
    c_table_from_expansion,
    coeff_table_from_series,
    euler_truncate,
    expansion_values,
)
from cycloeta.qseries import QSeries
from cycloeta.quadfield import QuadInt, hecke_weight, pi_element

A_HEAD = [1, 5, 8, 21, 24, 40, 49, 85, 73, 120, 122, 168]
B_HEAD = [1, -3, 0, 5, 0, 0, -7, -3, 9, 0, -6, 0]


def test_a_frozen_values():
    assert [a_coeff(n) for n in range(1, 13)] == A_HEAD
    assert a_coeff(49) == 7**4
    assert a_coeff(41) == 1680
    assert a_prime_power(2, 3) == 85


def test_b_frozen_values():
    assert [b_coeff(n) for n in range(1, 13)] == B_HEAD
    assert b_coeff(14) == 21
    assert b_coeff(16) == -11
    assert b_coeff(49) == 49
    assert b_coeff(41) == 0


def test_tables_match_pointwise():
    at, bt = a_table(300), b_table(300)
    assert at.kind == "A" and bt.kind == "B"
    for n in range(1, 301):
        assert at[n] == a_coeff(n)
        assert bt[n] == b_coeff(n)


def test_a_against_divisor_oracle():
    for n in range(1, 2001):
        assert a_coeff(n) == a_oracle(n)


def test_a_oracle_table_is_the_same_sum():
    t = a_oracle_table(2000)
    for n in range(1, 2001):
        assert t[n] == a_oracle(n)
    assert t == a_table(2000)


def test_b_against_ideal_oracle():
    for n in range(1, 2001):
        assert b_coeff(n) == b_oracle(n)


def test_b_oracle_spot_values():
    assert b_oracle(4) == 5
    assert b_oracle(14) == 21
    assert b_oracle(3) == 0


def test_split_power_sum_against_literal_ring_sum():
    # literal sum of pi^(2t) * conj(pi)^(2(k-t)) in the ring, incremental
    # power lists, no recurrence involved
    for p in primes_up_to(1000):
        if p == 7 or epsilon(p) != 1:
            continue
        sq = hecke_weight(pi_element(p))
        cj = sq.conjugate()
        max_k = 30 if p < 50 else 8
        pw, pc = [QuadInt(2, 0)], [QuadInt(2, 0)]
        for _ in range(max_k):
            pw.append(pw[-1] * sq)
            pc.append(pc[-1] * cj)
        for k in range(max_k + 1):
            total = pw[0] * pc[k]
            for t in range(1, k + 1):
                total = total + pw[t] * pc[k - t]
            assert total.rational_part() == b_coeff(p**k)


def test_multiplicative_on_coprime_pairs():
    at, bt = a_table(10_000), b_table(10_000)
    from math import gcd

    for m in range(2, 100):
        for n in range(2, 100):
            if gcd(m, n) == 1:
                assert at[m * n] == at[m] * at[n]
                assert bt[m * n] == bt[m] * bt[n]


def test_euler_truncate_matches_b_table():
    assert euler_truncate(2000).values == b_table(2000).values


def test_local_factors_beyond_any_table():
    # primes < 1000 and k <= 20, the range of extended_case_failures: a's
    # geometric series against the divisor sum, and each b(p^j) against the
    # reciprocal of the local Euler factor (where b(p^j) is 0 the expansion
    # may leave p^j out)
    for p in primes_up_to(999):
        for k in range(21):
            assert a_prime_power(p, k) == a_oracle(p**k), (p, k)
        local = dict(lseries._local_expansion(p, p**20))
        for j in range(1, 21):
            assert local.get(p**j, 0) == b_prime_power(p, j), (p, j)


def test_b_table_is_the_jacobi_product():
    # eta(tau)^3 eta(7 tau)^3 = q E(q)^3 E(q^7)^3, the CM form of b, read
    # off two Jacobi series: a route that shares nothing with the sweep
    spec = etaprod.EtaQuotientSpec(((1, 3), (7, 3)))
    assert b_table(20_000).values.tolist() == expansion_values(expand(spec, 20_000), 20_000)


@pytest.fixture(scope="module")
def b_30000():
    return b_table(30_000)


def test_b_table_at_primes_is_the_cornacchia_trace(b_30000):
    for p in primes_up_to(30_000):
        assert b_30000[p] == b_prime_power(p, 1), p


# the sweep's bounds move with n_max: 1, 2 and 7 are its first norms, and
# 16417 is the split prime the identity-violation tests perturb
@given(st.integers(1, 30_000))
@example(1)
@example(2)
@example(7)
@example(10)
@example(11)
@example(16_417)
@settings(max_examples=60, deadline=None)
def test_b_table_is_a_prefix_of_a_longer_one(b_30000, n_max):
    assert b_table(n_max).values == b_30000.values[:n_max + 1]


def test_b_table_never_runs_cornacchia(monkeypatch):
    # the Euler-product oracle reaches the split traces through split_rep;
    # b_table is one pass over u^2 + 7v^2 and needs no trace
    before = b_table(20_000)
    euler = euler_truncate(20_000)
    assert before == euler

    def refuse(p):
        raise AssertionError(f"split_rep({p}) called")

    monkeypatch.setattr(quadfield, "split_rep", refuse)
    lseries._trace.cache_clear()
    assert b_table(20_000) == before


def test_c_table_reads_a_and_b_at_indices_before_the_overwrite():
    at = [1, 2, 7, 41, 49, 300]
    c, a_at, b_at = c_table(300, at=iter(at))
    assert c == c_table(300)
    assert a_at.tolist() == [a_coeff(n) for n in at]
    assert b_at.tolist() == [b_coeff(n) for n in at]


@pytest.mark.parametrize("at", [slice(7, None, 6), slice(2, 1000, 5), slice(None, None, -3)])
def test_c_table_copies_a_and_b_by_slice_before_the_overwrite(at):
    c, a_at, b_at = c_table(300, at=at)
    assert c == c_table(300)
    assert (a_at.typecode, b_at.typecode) == ("q", "q")
    assert a_at == a_table(300).values[at]
    assert b_at == b_table(300).values[at]


def test_c_table_identity_and_misprint_value():
    ct = c_table(300)
    assert ct.kind == "C"
    assert ct[1] == 0
    assert ct[2] == 1
    assert ct[7] == 7
    assert ct[41] == 210
    at, bt = a_table(300), b_table(300)
    for n in range(1, 301):
        assert 8 * ct[n] == at[n] - bt[n]


def test_two_pipelines_agree_small():
    assert c_table_from_expansion(300).values == c_table(300).values


def test_identity_violation_payload():
    err = IdentityViolation(5, 10, 3)
    assert (err.n, err.a, err.b) == (5, 10, 3)
    assert "divisible by 8" in str(err)


# 9 = 3^2 is an inert prime square, 16417 a split prime far into the table.
@pytest.mark.parametrize("p,k,n_max", [(3, 2, 50), (16417, 1, 16500)])
def test_identity_violation_from_perturbed_b(monkeypatch, p, k, n_max):
    true_b = b_coeff(p**k)
    honest = lseries.b_table

    def perturbed(n):
        table = honest(n)
        table.values[p**k] += 1
        return table

    monkeypatch.setattr(lseries, "b_table", perturbed)
    for at in (None, range(1, n_max + 1), slice(1, None)):
        with pytest.raises(IdentityViolation) as info:
            c_table(n_max, at=at)
        err = info.value
        assert (err.n, err.a, err.b) == (p**k, a_coeff(p**k), true_b + 1)


@pytest.mark.parametrize("n_max", [1, 2, 300, 40_000])
def test_c_table_at_every_index_matches_separate_tables(n_max):
    for at in (range(1, n_max + 1), slice(1, None)):
        c, a_at, b_at = c_table(n_max, at=at)
        assert c == c_table(n_max)
        assert [0] + a_at.tolist() == a_table(n_max).values.tolist()
        assert [0] + b_at.tolist() == b_table(n_max).values.tolist()


def test_coeff_table_validation():
    with pytest.raises(ValueError):
        CoeffTable("X", 2, [0, 1, 1])
    with pytest.raises(ValueError):
        CoeffTable("A", 2, [1, 1, 1])
    with pytest.raises(ValueError):
        CoeffTable("A", 2, [0, 1])
    with pytest.raises(ValueError):
        CoeffTable("A", 2, [0, 0, 1])
    with pytest.raises(ValueError):
        CoeffTable("C", 2, [0, 1, 1])
    t = CoeffTable("C", 2, [0, 0, 1])
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[3]


def test_coeff_table_from_series_guards():
    with pytest.raises(ValueError):
        coeff_table_from_series(expand(cyclotomic_spec(4), 6), 5)
    with pytest.raises(ValueError):
        coeff_table_from_series(QSeries([1, 1, 1]), 2)
    with pytest.raises(ValueError):
        coeff_table_from_series(expand(cyclotomic_spec(7), 20), 50)


def test_expansion_values_lead_degree_one():
    # the h = 5 quotient starts at q^1, which CoeffTable kind C refuses
    series = expand(cyclotomic_spec(5), 10)
    assert expansion_values(series, 10) == [0, 1, 1, 2, 3, 5, 2, 6, 5, 7, 5]
    with pytest.raises(ValueError):
        coeff_table_from_series(series, 10)
    with pytest.raises(ValueError):
        expansion_values(expand(cyclotomic_spec(4), 6), 5)


# ---------------------------------------------------------------------------
# 64-bit storage

@given(st.integers(1, 3000))
@example(1)
@example(2)
@example(2401)
@example(3000)
@settings(max_examples=40, deadline=None)
def test_word_tables_match_the_oracles(n_max):
    # the array sieve against the divisor-sum convolution, the truncated
    # Euler product and the ideal enumeration
    at, bt = a_table(n_max), b_table(n_max)
    assert at == a_oracle_table(n_max)
    assert bt == euler_truncate(n_max)
    assert bt.values[1:].tolist() == [b_oracle(n) for n in range(1, n_max + 1)]


def test_every_identity_table_holds_words():
    expansion = coeff_table_from_series(expand(cyclotomic_spec(7), 100), 100)
    for table in (a_table(100), b_table(100), c_table(100), a_oracle_table(100),
                  euler_truncate(100), expansion, c_table_from_expansion(100)):
        assert isinstance(table.values, array) and table.values.typecode == "q"
    assert c_table(100) == expansion


def test_coeff_table_refuses_values_past_64_bits():
    with pytest.raises(OverflowError):
        CoeffTable("C", 3, [0, 0, -(1 << 63) - 1, 5])
    with pytest.raises(OverflowError):
        CoeffTable("C", 3, [0, 0, 1 << 63, 5])
    edge = CoeffTable("C", 3, [0, 0, -(1 << 63), (1 << 63) - 1])
    assert edge.values == array("q", [0, 0, -(1 << 63), (1 << 63) - 1])
    # an array is kept as the table's storage, not copied
    words = array("q", [0, 1, 5])
    assert CoeffTable("A", 2, words).values is words


@pytest.mark.parametrize("p", [401, 409])
def test_nondecomp_window_holds_values_past_64_bits(p):
    # the partition-like values of the level-p window pass 2^63 at p = 409;
    # nondecomp reads them as ints, through no table
    hi = (p * p - 1) // 24 + p - 1
    values = etaprod.expansion_values(expand(cyclotomic_spec(p), hi), hi)
    assert (max(map(abs, values)) >= 1 << 63) == (p == 409)
    assert nondecomp_witness(p)["valid"]


def test_word_bound_is_the_64_bit_limit_of_a():
    w = lseries.WORD_N_MAX
    # a(n) < 1.65 n^2 fits in a signed 64-bit word up to w and no further
    assert 165 * w * w <= 100 * (2**63 - 1) < 165 * (w + 1) ** 2
    lseries._check_word_range(w)


def test_tables_past_the_word_bound_refuse_before_allocating(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table build started past the word bound")

    for module, name in ((lseries, "sieve_multiplicative"), (arith, "sieve_multiplicative"),
                         (lseries, "array")):
        monkeypatch.setattr(module, name, refuse)
    n_max = lseries.WORD_N_MAX + 1
    monkeypatch.setattr(etaprod, "expand", refuse)
    for build in (a_table, b_table, c_table, c_table_from_expansion):
        with pytest.raises(ValueError, match="64-bit words"):
            build(n_max)


_MIN, _MAX = -(2**63), 2**63 - 1
# every 64-bit word, and the edges where a field's sign bit or carry could
# leak into its neighbour
_EDGES = (_MIN, _MIN + 1, _MIN + 7, _MIN + 8, -9, -8, -1, 0, 1, 7, 8, _MAX - 8, _MAX - 7,
          _MAX)
_WORD = st.integers(_MIN, _MAX) | st.sampled_from(_EDGES)
# table lengths on both sides of one and several word-pass chunks
_K = lseries._CHUNK
_LENGTHS = st.integers(1, 40) | st.sampled_from((_K - 1, _K, _K + 1, 3 * _K - 1, 3 * _K + 2))


def _congruent(b, a):
    """b moved by less than 8 to agree with a mod 8, inside the word range."""
    b -= (b - a) % 8
    return b + 8 if b < _MIN else b


def _words(n, rows, rnd):
    """n random words with `rows` of (position, word) written over them."""
    words = [rnd.randint(_MIN, _MAX) for _ in range(n)]
    for i, w in rows:
        words[i % n] = w
    return words


@given(_LENGTHS, st.lists(st.tuples(st.integers(0, 4 * _K), _WORD, _WORD, st.booleans()),
                          max_size=30), st.randoms(use_true_random=False), st.booleans())
@example(40_001, [(40_000, 3, 2, False)], random.Random(0), False)
@settings(max_examples=80, deadline=None)
def test_eighths_matches_the_plain_loop(n, rows, rnd, same):
    # the background pairs are congruent mod 8; a drawn pair is made
    # congruent when marked True or when `same` holds, else left as drawn
    av = array("q", _words(n, [(i, a) for i, a, _, _ in rows], rnd))
    bv = array("q", (_congruent(b, a) for a, b in zip(av, _words(n, [], rnd))))
    for i, a, b, keep in rows:
        bv[i % n] = _congruent(b, av[i % n]) if keep or same else b
    bad = [i for i, (a, b) in enumerate(zip(av, bv)) if (a - b) % 8]
    want = [(a - b) // 8 for a, b in zip(av, bv)]
    if bad:
        i = bad[0]
        with pytest.raises(IdentityViolation) as info:
            lseries._eighths(array("q", av), bv)
        assert (info.value.n, info.value.a, info.value.b) == (i, av[i], bv[i])
    else:
        lseries._eighths(av, bv)
        assert av.tolist() == want


@pytest.mark.parametrize("n", [_K - 1, _K, _K + 1, 2 * _K + 5])
def test_eighths_raises_at_the_first_bad_n_of_any_chunk(n):
    # n_max = 2 * _K + 5 ends in a short third chunk; a word moved by 8
    # before n still divides, and bad words after n are not the first
    n_max = 2 * _K + 5
    av, bv = a_table(n_max).values, b_table(n_max).values
    a, b = av[n], bv[n] + 3
    bv[n] = b
    bv[n - 1] -= 8
    for later in (n + 1, _K + 2, n_max):
        if n < later <= n_max:
            bv[later] += 1
    with pytest.raises(IdentityViolation) as info:
        lseries._eighths(av, bv)
    err = info.value
    assert (err.n, err.a, err.b) == (n, a, b)
    assert str(err) == f"a({n}) - b({n}) = {a - b} is not divisible by 8"


@pytest.mark.parametrize("n", [_K - 1, _K, _K + 1])
@pytest.mark.parametrize("d", [4, -4, 12, 1, 2, 3, 5, 6, 7, -1])
def test_eighths_catches_every_residue_mod_8(n, d):
    # one b word moved by d, d % 8 in 1..7, just before, at and just after
    # the first chunk edge; d = 4 (mod 8) is the move that a check of the
    # low two bits alone would pass and then floor
    av, bv = a_table(2 * _K).values, b_table(2 * _K).values
    bv[n] += d
    with pytest.raises(IdentityViolation) as info:
        lseries._eighths(av, bv)
    assert info.value.n == n


@given(_LENGTHS, st.lists(st.tuples(st.integers(0, 4 * _K), _WORD), max_size=30),
       st.randoms(use_true_random=False), st.sampled_from((0.0, 0.5, 0.99, 1.0)),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_nonpositive_indices_match_the_plain_scan(n, rows, rnd, positive, start):
    # a background of positive words at the drawn density, the rest <= 0
    words = [rnd.randint(1, _MAX) if rnd.random() < positive else rnd.randint(_MIN, 0)
             for _ in range(n)]
    for i, w in rows:
        words[i % n] = w
    words = array("q", words)
    want = list(compress(range(start, n), map(le, islice(words, start, None), repeat(0))))
    assert lseries.nonpositive_indices(words, start) == want
