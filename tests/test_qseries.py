"""Series substrate: exactness, windows, Euler product, the power
recurrence and the sparse quotient solve.  QSeries has no inverse: a
negative power raises, and series divide by the quotient solve.

Expected values are frozen from the brute-force oracles defined here
(literal factor-by-factor products and a coin-style partition count), not
from the code under test.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cycloeta
from cycloeta.qseries import (
    QSeries,
    _kronecker_mul,
    _schoolbook_mul,
    _solve_quotient,
    _sparse_power,
    euler_series,
    euler_series_rescaled,
    pentagonal_terms,
)


def literal_euler(trunc):
    """prod (1 - q^n) multiplied out factor by factor; the oracle."""
    s = QSeries([1] + [0] * (trunc - 1))
    for n in range(1, trunc):
        mono = [0] * trunc
        mono[0] = 1
        mono[n] = -1
        s = s * QSeries(mono)
    return s


def partition_counts(n):
    """p(0..n) by the coin-style double loop; the oracle for 1/euler."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


# frozen from literal_euler(16): note the sign at q^12 is -1
EULER_16 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


def test_euler_series_frozen_prefix():
    assert list(euler_series(8).coeffs) == EULER_16[:8]
    assert list(euler_series(16).coeffs) == EULER_16


def test_euler_series_against_literal_product():
    for trunc in range(1, 201):
        assert euler_series(trunc) == literal_euler(trunc)


def test_pentagonal_terms_prefix():
    assert pentagonal_terms(15) == [(1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)]


def test_partition_series_from_negative_pow():
    n = 60
    assert _sparse_power(pentagonal_terms(n - 1), -1, n) == partition_counts(n - 1)


def test_inverse_times_original_is_one():
    s = QSeries([1, 3, -2, 7, 0, 5])
    tail = [(j, c) for j, c in enumerate(s.coeffs) if j and c]
    inv = QSeries(_solve_quotient([1], tail, 1, s.trunc))
    prod = inv * s
    assert list(prod.coeffs) == [1, 0, 0, 0, 0, 0]
    assert prod.order24 == 0


def test_negative_pow_raises():
    # a subprocess with a timeout, so a lost guard fails instead of hanging
    # whatever loop the power runs
    probe = (
        "from cycloeta.qseries import QSeries\n"
        "try:\n"
        "    QSeries([1, 1]) ** -1\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    root = str(Path(cycloeta.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert (proc.returncode, proc.stdout) == (0, "ValueError\n")


def test_pow_zero_is_one():
    s = QSeries([3, 1], order24=24)
    assert (s ** 0) == QSeries([1, 0], order24=0)


def test_mul_window_and_order():
    a = QSeries([1, 2, 3, 4], order24=24)
    b = QSeries([1, -1], order24=-48)
    prod = a * b
    assert prod.trunc == 2
    assert prod.order24 == -24
    assert list(prod.coeffs) == [1, 1]


def test_normalization_strips_leading_zeros():
    s = QSeries([0, 0, 5, 1], order24=24)
    assert s.order24 == 24 + 48
    assert s.coeffs == (5, 1)
    z = QSeries([0, 0, 0])
    assert z.is_zero() and z.trunc == 3 and z.order24 == 0


def test_coeff24_lookup():
    s = QSeries([1, 0, 7], order24=48)
    assert s.coeff24(48) == 1
    assert s.coeff24(96) == 7
    assert s.coeff24(72) == 0
    assert s.coeff24(49) is None
    assert s.coeff24(120) is None


def test_agrees_with_overlap_only():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 2], order24=0)
    c = QSeries([2, 2], order24=0)
    assert a.agrees_with(b)
    assert not a.agrees_with(c)
    # disjoint windows agree vacuously
    assert a.agrees_with(QSeries([9, 9], order24=24 * 10))


def test_agrees_with_misaligned_grids():
    # off each other's exponent grid the two series agree only where both
    # vanish on the overlap, whichever of them starts first
    a = QSeries([1, 5])
    z = QSeries([0, 0], order24=12)
    assert not a.agrees_with(z) and not z.agrees_with(a)
    assert QSeries([1, 0]).agrees_with(z) and z.agrees_with(QSeries([1, 0]))
    assert not QSeries([1, 0]).agrees_with(QSeries([0, 3], order24=12))


def test_rescaled_spreads_exponents():
    s = QSeries([1, -1, 2], order24=24)
    r = s.rescaled(3)
    assert r.order24 == 72
    assert list(r.coeffs) == [1, 0, 0, -1, 0, 0, 2]
    assert euler_series_rescaled(2, 9) == euler_series(5).rescaled(2)


small_series = st.lists(st.integers(-50, 50), min_size=1, max_size=18)


@given(small_series, small_series)
@settings(max_examples=120, deadline=None)
def test_mul_commutes(xs, ys):
    a, b = QSeries(xs), QSeries(ys)
    assert a * b == b * a


@given(small_series, small_series, small_series)
@settings(max_examples=120, deadline=None)
def test_mul_associates_on_common_window(xs, ys, zs):
    a, b, c = QSeries(xs), QSeries(ys), QSeries(zs)
    assert (a * b) * c == a * (b * c)


@given(small_series, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_pow_addition_law(xs, m, n):
    a = QSeries(xs)
    assert (a ** m) * (a ** n) == a ** (m + n)


@given(small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_kronecker_matches_schoolbook(xs, ys):
    n = min(len(xs), len(ys))
    assert _kronecker_mul(xs, ys, n) == _schoolbook_mul(xs[:n], ys[:n], n)


def test_kronecker_large_magnitudes():
    xs = [(-3) ** i for i in range(40)]
    ys = [7 ** (i % 13) - 2 ** i for i in range(40)]
    assert _kronecker_mul(xs, ys, 40) == _schoolbook_mul(xs, ys, 40)


def test_big_mul_dispatch_consistency():
    # force the Kronecker path through the public api and compare against
    # a shifted schoolbook computation
    xs = [((i * 2654435761) % 4001) - 2000 for i in range(3000)]
    ys = [((i * 40503) % 997) - 498 for i in range(3000)]
    prod = QSeries(xs) * QSeries(ys)
    assert list(prod.coeffs) == _schoolbook_mul(xs, ys, 3000)


def test_immutability():
    s = QSeries([1, 2])
    with pytest.raises(AttributeError):
        s.order24 = 5


def dense(lead, tail, n):
    """lead + sum c q^g over the tail, as its first n coefficients."""
    out = [0] * n
    if n:
        out[0] = lead
    for g, c in tail:
        if g < n:
            out[g] += c
    return out


# Tails with ascending distinct offsets (some past the window) and integer
# coefficients drawn from a small set, so coefficient groups repeat.
tails = st.lists(
    st.tuples(st.integers(1, 40), st.sampled_from([-3, -1, 1, 1, 2, 5])),
    max_size=10,
    unique_by=lambda t: t[0],
).map(sorted)


@given(
    st.lists(st.integers(-1000, 1000), max_size=30),
    tails,
    st.sampled_from([1, -1]),
    st.integers(0, 30),
)
@example(num=[1, 2, 3], tail=[(2, 7)], den_lead=1, n=6)  # one single-offset group
@example(num=[4], tail=[(1, -1), (3, -1), (5, 2)], den_lead=-1, n=12)
@example(num=[1] * 30, tail=[(g, 1) for g in range(1, 25)], den_lead=1, n=30)
@example(num=[1, -1], tail=[(30, 3), (41, 1)], den_lead=1, n=30)  # offsets >= n
@settings(max_examples=300, deadline=None)
def test_solve_quotient_times_den_is_num(num, tail, den_lead, n):
    out = _solve_quotient(num, tail, den_lead, n)
    assert len(out) == n
    back = _schoolbook_mul(out, dense(den_lead, tail, n), n)
    assert back == (num + [0] * n)[:n]


sparse_tails = st.lists(
    st.tuples(st.integers(1, 25), st.integers(-4, 4).filter(bool)),
    max_size=5,
    unique_by=lambda t: t[0],
).map(sorted)


@given(sparse_tails, st.integers(-4, 9), st.integers(1, 30))
@example(tail=[(1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)], e=7, n=30)
@settings(max_examples=400, deadline=None)
def test_sparse_power_matches_pow(tail, e, n):
    # QSeries.__pow__ is the oracle: a repeated product of g for e > 0, and
    # of 1/g from the quotient solve for e < 0
    g = QSeries(dense(1, tail, n))
    if e < 0:
        g = QSeries(_solve_quotient([1] + [0] * (n - 1), tail, 1, n))
    assert _sparse_power(tail, e, n) == list((g ** abs(e)).coeffs)


def test_sparse_power_edges():
    assert _sparse_power([], 5, 4) == [1, 0, 0, 0]
    assert _sparse_power([(1, 1)], 0, 3) == [1, 0, 0]
    assert _sparse_power([(1, 1)], 3, 0) == []
    assert _sparse_power([(9, 1)], 2, 5) == [1, 0, 0, 0, 0]


def test_sparse_power_checks_exact_division():
    # (1 + q/2)^1 has a non-integral coefficient, so the division by k leaves
    # a remainder; the recurrence must refuse instead of rounding
    with pytest.raises(ArithmeticError):
        _sparse_power([(1, Fraction(1, 2))], 1, 3)
