"""Series substrate: exactness, the QSeries record, Euler's product,
the power recurrence, the products and the sparse quotient solve.

Expected values are frozen from the brute-force oracles defined here
(literal factor-by-factor products and a coin-style partition count), not
from the code under test.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloeta import qseries
from cycloeta.qseries import (
    QSeries,
    _dense,
    _kronecker_mul,
    _mul_lists,
    _schoolbook_mul,
    _solve_packed,
    _solve_plain,
    _solve_quotient,
    _sparse_mul,
    _sparse_power,
    _sparse_square,
    jacobi_terms,
    pentagonal_terms,
)


def literal_euler(trunc):
    """prod (1 - q^n) multiplied out factor by factor; the oracle."""
    out = [1] + [0] * (trunc - 1)
    for n in range(1, trunc):
        for i in range(trunc - 1, n - 1, -1):  # times (1 - q^n), high first
            out[i] -= out[i - n]
    return out


def euler_series(trunc):
    """Euler's product to trunc coefficients from the pentagonal terms."""
    return _dense(pentagonal_terms(trunc - 1), trunc)


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
    assert euler_series(8) == EULER_16[:8]
    assert euler_series(16) == EULER_16


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
    inv = _solve_quotient([1], tail, 1, s.trunc)
    assert _schoolbook_mul(inv, list(s.coeffs), s.trunc) == [1, 0, 0, 0, 0, 0]


def test_empty_window_is_refused():
    with pytest.raises(ValueError):
        QSeries([])


small_series = st.lists(st.integers(-50, 50), min_size=1, max_size=18)
# values at the byte-width edges of a field, both signs: wide fields whose
# sign bits vary from field to field
WIDE_VALUES = [s * (m + d) for k in (1, 2, 3, 5) for m in (1 << (8 * k - 1), 1 << (8 * k))
               for d in (-1, 0) for s in (1, -1)]
wide_series = st.lists(
    st.one_of(st.sampled_from(WIDE_VALUES), st.integers(-50, 50)), min_size=1, max_size=18
)


@given(
    st.one_of(small_series, st.lists(st.just(0), min_size=1, max_size=18), wide_series),
    st.one_of(small_series, wide_series),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_kronecker_matches_schoolbook(xs, ys, data):
    # n reaches past either operand and past the full convolution; through
    # _mul_lists the operands may also be longer than n
    n = data.draw(st.integers(1, len(xs) + len(ys) + 1), label="n")
    want = _schoolbook_mul(xs, ys, n)
    assert _kronecker_mul(xs[:n], ys[:n], n) == want
    assert _kronecker_mul(ys[:n], xs[:n], n) == want
    assert _mul_lists(xs, ys, n) == want


def alternating(m, v):
    """[v, -v, v, ...] of length m."""
    return [v if i % 2 == 0 else -v for i in range(m)]


def test_kronecker_large_magnitudes():
    xs = [(-3) ** i for i in range(40)]
    ys = [7 ** (i % 13) - 2 ** i for i in range(40)]
    assert _kronecker_mul(xs, ys, 40) == _schoolbook_mul(xs, ys, 40)
    # Convolutions that reach their bound amax * bmax * min(len) exactly,
    # with the bound on both sides of each field width step: 2^(8k-1) - 1
    # is the largest bound of a k-byte field, 2^(8k-1) the smallest of a
    # (k+1)-byte one.  Alternating signs make the coefficients alternate
    # in sign, so each field's sign bit is read back.
    for k in range(1, 6):
        for bound in ((1 << (8 * k - 1)) - 1, 1 << (8 * k - 1)):
            for m in (1, 2, 7, 8, 127, 128):
                if bound % m:
                    continue
                for amax, bmax in ((1, bound // m), (bound // m, 1)):
                    xs, ys = alternating(m, amax), alternating(m, -bmax)
                    for n in (m, 2 * m - 1, 2 * m + 1):
                        want = _schoolbook_mul(xs, ys, n)
                        assert max(map(abs, want)) == bound
                        assert _kronecker_mul(xs, ys, n) == want
                        assert _kronecker_mul(ys, [-x for x in xs], n) == [-c for c in want]


def test_mul_lists_is_one_kronecker_product(monkeypatch):
    # _mul_lists sends every product, large (nnz * n about 9e6) or small
    # (about 1e6), to the one Kronecker kernel; each against schoolbook
    xs = [((i * 2654435761) % 4001) - 2000 for i in range(3000)]
    ys = [((i * 40503) % 997) - 498 for i in range(3000)]
    kron = []
    real = qseries._kronecker_mul

    def spy(a, b, n):
        kron.append(n)
        return real(a, b, n)

    monkeypatch.setattr(qseries, "_kronecker_mul", spy)
    for n in (3000, 1000):
        assert _mul_lists(xs, ys, n) == _schoolbook_mul(xs[:n], ys[:n], n)
    assert kron == [3000, 1000]


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
    # the oracle is abs(e) repeated schoolbook products of g for e > 0, and
    # of 1/g from the quotient solve for e < 0
    g = dense(1, tail, n)
    if e < 0:
        g = _solve_quotient([1] + [0] * (n - 1), tail, 1, n)
    want = [1] + [0] * (n - 1)
    for _ in range(abs(e)):
        want = _schoolbook_mul(want, g, n)
    assert _sparse_power(tail, e, n) == want


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


# ---------------------------------------------------------------------------
# the packed solve against the plain loop

B = qseries._BLOCK


def binomial_product(parts):
    """prod (1 - q^a) over the parts, as a sparse tail: its inverse counts
    partitions into those parts, so quotients grow only polynomially and
    stay inside the packed bound."""
    poly = {0: 1}
    for a in parts:
        for g, c in list(poly.items()):
            poly[g + a] = poly.get(g + a, 0) - c
    return sorted((g, c) for g, c in poly.items() if g and c)


def plain_calls(monkeypatch):
    """Spy on _solve_plain: the (len(out), n) of every call."""
    calls = []
    real = qseries._solve_plain

    def spy(out, num, den_terms, n):
        calls.append((len(out), n))
        return real(out, num, den_terms, n)

    monkeypatch.setattr(qseries, "_solve_plain", spy)
    return calls


# parts on and next to the block edges, and far past them
EDGE_PARTS = [1, 2, 3, 7, 100, B - 1, B, B + 1, 300, 2 * B - 1, 2 * B, 2 * B + 1, 700]


def extreme_far_sums(a, sign):
    """Arguments whose solve sums far offsets at the packed guard's limit.

    The tail (1 - q^a)^11, a >= B, has far weight 2^11 - 1 = 2047, the
    largest the guard admits, and the quotient out[m] = sign * (-1)^(m // a)
    * (2^52 - 1) is as large as a packed value may be.  Its signs follow
    the tail's, so from 11a on the far sums are +-2047 * (2^52 - 1),
    alternating in sign every a coefficients.  num = out * den, so the
    solve never falls back.
    """
    n = 12 * a + 5
    tail = binomial_product([a] * 11)
    out = [sign * (-1) ** (m // a) * ((1 << 52) - 1) for m in range(n)]
    num = [out[k] + sum(c * out[k - g] for g, c in tail if g <= k) for k in range(n)]
    return {"num": num, "parts": [a] * 11, "n": n}


@given(
    st.lists(st.integers(-1000, 1000), max_size=60),
    st.lists(st.sampled_from(EDGE_PARTS), min_size=1, max_size=4, unique=True),
    st.integers(1, 1400),
)
@example(num=[1], parts=[B], n=B + 1)
@example(num=[3, -1], parts=[1, B - 1, B + 1], n=2 * B)
@example(num=[5], parts=[2, 2 * B], n=5 * B + 17)
@example(**extreme_far_sums(B, 1))
@example(**extreme_far_sums(B + 1, -1))  # offsets jB + j: fields spill across blocks
@settings(max_examples=150, deadline=None)
def test_packed_solve_matches_plain_loop(num, parts, n):
    # tails of a binomial product carry coefficients other than +-1
    tail = binomial_product(parts)
    num = (num + [0] * n)[:n]
    assert _solve_packed(num, tail, n) == _solve_plain([], num, tail, n)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    st.lists(st.sampled_from(EDGE_PARTS), min_size=1, max_size=3, unique=True),
    st.sampled_from([1, -1]),
    st.integers(600, 1300),
)
@settings(max_examples=40, deadline=None)
def test_solve_quotient_routes_through_the_packed_solve(num, parts, den_lead, n):
    # with the threshold lowered, _solve_quotient itself runs the packed
    # solve; den_lead = -1 is handled before it
    tail = binomial_product(parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qseries, "_PACKED_MIN_LEN", 1)
        got = _solve_quotient(num, tail, den_lead, n)
    assert got == _solve_quotient(num, tail, den_lead, n)
    back = _schoolbook_mul(got, dense(den_lead, tail, n), n)
    assert back == (num + [0] * n)[:n]


def test_packed_solve_runs_packed_on_eta_quotients(monkeypatch):
    # E(q^7)^7 / E(q): the plain loop runs only the first block
    calls = plain_calls(monkeypatch)
    n = 3000
    num = [0] * n
    num[::7] = _sparse_power(pentagonal_terms((n - 1) // 7), 7, (n - 1) // 7 + 1)
    den = pentagonal_terms(n - 1)
    got = _solve_packed(num, den, n)
    assert calls == [(0, B)]
    assert got == _solve_plain([], num, den, n)


def test_packed_solve_falls_back_on_large_values(monkeypatch):
    calls = plain_calls(monkeypatch)
    n = 4 * B + 10
    tail = binomial_product([3, B + 5])
    num = [1] * n
    num[0] = 1 << 52  # too large for a field: the first block never packs
    assert _solve_packed(num, tail, n) == _solve_plain([], num, tail, n)
    assert calls[:2] == [(0, B), (B, n)]
    calls.clear()
    num = [1] * n
    num[2 * B + 7] = 1 << 60  # block 2 is checked when block 3 is due
    assert _solve_packed(num, tail, n) == _solve_plain([], num, tail, n)
    assert calls[:2] == [(0, B), (3 * B, n)]


def test_packed_solve_falls_back_on_heavy_tails(monkeypatch):
    calls = plain_calls(monkeypatch)
    n = 3 * B
    # one far coefficient of 2^11: 2^11 * 2^52 reaches the 2^63 field bound
    tail = [(1, -1), (B + 3, 1 << 11)]
    num = [1] + [0] * (n - 1)
    assert _solve_packed(num, tail, n) == _solve_plain([], num, tail, n)
    assert calls[0] == (0, n)

    # 2^11 far offsets of weight 1: the plain loop runs from the start
    class Stop(Exception):
        pass

    def stop(out, num, den_terms, n):
        raise Stop(len(out), n)

    monkeypatch.setattr(qseries, "_solve_plain", stop)
    tail = [(g, 1) for g in range(B, B + (1 << 11))]
    n = B + (1 << 11) + 1
    with pytest.raises(Stop) as exc:
        _solve_packed([1] + [0] * (n - 1), tail, n)
    assert exc.value.args == (0, n)


# ---------------------------------------------------------------------------
# sparse products and Jacobi's cube


def test_jacobi_terms_is_euler_cubed():
    for m in (1, 2, 7, 50, 400):
        assert _dense(jacobi_terms(m - 1), m) == _sparse_power(pentagonal_terms(m - 1), 3, m)
    assert jacobi_terms(10) == [(1, -3), (3, 5), (6, -7), (10, 9)]


@given(sparse_tails, st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_sparse_square_matches_schoolbook(tail, n):
    d = dense(1, tail, n)
    assert _sparse_square(tail, n) == _schoolbook_mul(d, d, n)


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=60), tails)
@settings(max_examples=200, deadline=None)
def test_sparse_mul_matches_schoolbook(values, tail):
    n = len(values)
    want = _schoolbook_mul(values, dense(1, tail, n), n)
    consumed = list(values) + [7]  # entries past n are dropped
    assert _sparse_mul(consumed, tail, n) == want
    assert consumed == []


def mul_lists_spy():
    """Patch qseries._mul_lists with a spy that still runs it."""
    return mock.patch.object(qseries, "_mul_lists", wraps=qseries._mul_lists)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40), tails,
       st.sampled_from([-1, 0, 1]), st.integers(0, 39), st.booleans())
@example(values=[3], tail=[(1, 5), (7, -3)], edge=0, at=0, negative=False)
@example(values=[3], tail=[(1, 5), (7, -3)], edge=1, at=0, negative=True)
@settings(max_examples=200, deadline=None)
def test_sparse_mul_on_both_sides_of_the_field_bound(values, tail, edge, at, negative):
    # the peak |value| is the largest with peak * (1 + sum|cg|) < 2^63 over
    # the offsets below n (edge 0), one less (-1) or one more (+1): the
    # packed shift-sum runs up to it and one _mul_lists product past it
    n = len(values)
    weight = 1 + sum(abs(cg) for g, cg in tail if g < n)
    peak = ((1 << 63) - 1) // weight + edge
    dense_in = [v * peak // 10**6 for v in values]
    dense_in[at % n] = -peak if negative else peak
    want = _schoolbook_mul(dense_in, dense(1, tail, n), n)
    consumed = list(dense_in)
    with mul_lists_spy() as spy:
        assert _sparse_mul(consumed, tail, n) == want
    assert spy.called == (edge > 0)
    assert consumed == []


@pytest.mark.parametrize("edge", [0, 1])
@pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
def test_sparse_mul_fields_reach_the_bound(edge, signs):
    # even offsets keep every term's sign that of its field, so each
    # coefficient reaches +-peak * (1 + sum|cg|) over the offsets below it:
    # from field 8 on, at edge 0, 2^63 - 16, one step under the bound, in
    # both signs and with signs alternating from field to field; at edge 1
    # the fields could not hold it and the product is a _mul_lists one
    tail = [(2, 2), (4, 5), (6, 7), (8, 1), (90, -4)]
    peak = ((1 << 63) - 1) // 16 + edge
    for n in (1, 8, 9, 60):
        weight = 1 + sum(abs(c) for g, c in tail if g < n)
        dense_in = [peak * signs[i % len(signs)] for i in range(n)]
        want = _schoolbook_mul(dense_in, dense(1, tail, n), n)
        with mul_lists_spy() as spy:
            assert _sparse_mul(list(dense_in), tail, n) == want
        assert max(map(abs, want)) == peak * weight
        assert spy.called == (peak * weight >= 1 << 63) == (edge == 1 and n > 8)
