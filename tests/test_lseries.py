"""Coefficient generators a, b, c and their brute-force counterparts.

Frozen scalars below were computed from the divisor-sum and ideal-sum
oracles (and by hand for the smallest cases) before the closed forms were
written.
"""

import pytest

from cycloeta import lseries, quadfield
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
from cycloeta.quadfield import hecke_weight, pi_element

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
        pw = [sq**t for t in range(max_k + 1)]
        pc = [cj**t for t in range(max_k + 1)]
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


def test_b_table_never_runs_cornacchia(monkeypatch):
    # the Euler-product oracle reaches the split traces through split_rep;
    # b_table reads them off one enumeration of x^2 + 7y^2
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
    assert a_at == [a_coeff(n) for n in at]
    assert b_at == [b_coeff(n) for n in at]


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
    honest = lseries.b_prime_power

    def perturbed(q, j, traces=None):
        return honest(q, j, traces) + (1 if (q, j) == (p, k) else 0)

    monkeypatch.setattr(lseries, "b_prime_power", perturbed)
    for at in (None, range(1, n_max + 1)):
        with pytest.raises(IdentityViolation) as info:
            c_table(n_max, at=at)
        err = info.value
        assert (err.n, err.a, err.b) == (p**k, a_coeff(p**k), true_b + 1)


@pytest.mark.parametrize("n_max", [1, 2, 300, 40_000])
def test_c_table_at_every_index_matches_separate_tables(n_max):
    c, a_at, b_at = c_table(n_max, at=range(1, n_max + 1))
    assert c == c_table(n_max)
    assert [0] + a_at == a_table(n_max).values
    assert [0] + b_at == b_table(n_max).values


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
