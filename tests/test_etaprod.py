"""Eta-quotient specs, their expansions, and the cyclotomic polynomial family.

Frozen coefficient lists were computed by hand or with the literal-product
oracle (multiply Euler factors, multiply by the inverse series) before the
division-based `expand` existed.  `literal_product` shares no kernel with
`etaprod._product`: it applies one binomial (1 - q^k) at a time.
`dense_family_series` builds the cyclotomic family by repeated schoolbook
products with one binomial, sharing only the quotient solve with
`_product`, whose products are Kronecker products.
"""

from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloeta import lseries, qseries
from cycloeta.arith import divisors, factorize, moebius, totient
from cycloeta.etaprod import (
    CORPUS,
    EtaQuotientSpec,
    _eta_power,
    _family_factors,
    _product,
    cyclotomic_check,
    cyclotomic_spec,
    expand,
    expansion_values,
)
from cycloeta.qseries import (
    QSeries,
    _schoolbook_mul,
    _solve_quotient,
    _sparse_power,
    pentagonal_terms,
)


def literal_product(binomials, n):
    """First n coefficients of prod (1 - q^k)^e over the (k, e) pairs,
    multiplying or dividing by one (1 - q^k) at a time."""
    out = [1] + [0] * (n - 1)
    for k, e in binomials:
        for _ in range(abs(e)):
            if e > 0:  # times (1 - q^k), high coefficients first
                for i in range(n - 1, k - 1, -1):
                    out[i] -= out[i - k]
            else:  # over (1 - q^k): the geometric series in q^k
                for i in range(k, n):
                    out[i] += out[i - k]
    return out


def rescaled(spec, m):
    """The spec at tau -> m*tau: every scale multiplies by m."""
    return EtaQuotientSpec(tuple((s * m, e) for s, e in spec.terms))


def eta_binomials(scale, e, n):
    """E(q^scale)^e as binomials (1 - q^(scale*j))^e, j >= 1, below q^n."""
    return [(scale * j, e) for j in range(1, (n - 1) // scale + 1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaQuotientSpec(((0, 1),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 1), (2, 3)))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 0),))
    s = EtaQuotientSpec(((7, 7), (1, -1)))
    assert s.terms == ((1, -1), (7, 7))


def test_spec_map_roundtrip_and_str():
    s = EtaQuotientSpec(tuple({7: 7, 1: -1}.items()))
    assert dict(s.terms) == {1: -1, 7: 7}
    assert str(s) == "7^7/1"
    assert str(EtaQuotientSpec(((2, 2),))) == "2^2"
    assert str(EtaQuotientSpec(((1, -1),))) == "1/1"


def test_spec_is_a_frozen_value_type():
    # repr, equality and hash by terms, as the frozen dataclass gave them
    s = cyclotomic_spec(7)
    assert repr(s) == "EtaQuotientSpec(terms=((1, -1), (7, 7)))"
    assert s == EtaQuotientSpec(terms=((7, 7), (1, -1)))
    assert hash(s) == hash((((1, -1), (7, 7)),))
    assert s != EtaQuotientSpec(((7, 7),)) and s != s.terms
    assert len({s, EtaQuotientSpec(((1, -1), (7, 7)))}) == 1
    for name in ("terms", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, ())
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s.terms == ((1, -1), (7, 7))


def test_expand_below_the_leading_term_returns_it():
    # a window below the leading exponent still holds the leading term
    for spec in (*map(cyclotomic_spec, range(2, 40)), EtaQuotientSpec(((1, -3),))):
        o24 = spec.order24()
        below = -(-o24 // 24) - 1  # the greatest n_max with 24 * n_max < o24
        assert expand(spec, below) == QSeries([1], o24)
        assert expand(spec, below - 3) == QSeries([1], o24)


def plain_expansion_values(series, n_max):
    """expansion_values' read-out, one coefficient at a time."""
    lead = series.order24 // 24
    out = [0] * (n_max + 1)
    for i, c in enumerate(series.coeffs):
        if lead + i > n_max:
            break
        out[lead + i] = c
    return out


@given(st.integers(1, 60), st.lists(st.integers(-(2**70), 2**70), min_size=1,
                                    max_size=60), st.integers(1, 80))
@example(1, [5, -3, 2], 3)  # lead degree 1, window ends at n_max
@example(4, [1, 2], 9)  # window shorter than n_max
@example(4, [1, 2, 3, 4, 5, 6], 9)  # window ends at n_max
@example(4, list(range(1, 20)), 9)  # window longer than n_max
@example(9, [7, 8], 9)  # lead at n_max
@example(10, [7, 8], 9)  # lead past n_max
@example(30, [7], 1)
@settings(max_examples=150, deadline=None)
def test_expansion_values_matches_the_plain_read_out(lead, coeffs, n_max):
    series = QSeries(coeffs, 24 * lead)
    assert expansion_values(series, n_max) == plain_expansion_values(series, n_max)


def test_cyclotomic_spec_small_h():
    assert dict(cyclotomic_spec(7).terms) == {7: 7, 1: -1}
    assert dict(cyclotomic_spec(2).terms) == {2: 2, 1: -1}
    assert dict(cyclotomic_spec(4).terms) == {4: 2, 2: 1, 1: -1}
    assert dict(cyclotomic_spec(6).terms) == {6: 1, 3: 1, 2: 1, 1: -1}
    assert dict(cyclotomic_spec(49).terms) == {49: 42, 7: 1, 1: -1}
    with pytest.raises(ValueError):
        cyclotomic_spec(1)


def test_order24_closed_form():
    for h in range(2, 101):
        closed = h * totient(h) - prod(1 - p for p, _ in factorize(h))
        assert cyclotomic_spec(h).order24() == closed
    assert cyclotomic_spec(7).order24() == 48
    assert cyclotomic_spec(2).order24() == 3
    assert cyclotomic_spec(4).order24() == 9


INTEGRAL_H = [5, 7, 11, 13, 17, 19, 21, 23, 25, 29, 31, 34, 35, 37, 39, 41, 43, 47, 49]


def test_integral_exponent_classification():
    # most h in 2..50 give a fractional leading exponent; these do not
    got = [h for h in range(2, 51) if cyclotomic_spec(h).order24() % 24 == 0]
    assert got == INTEGRAL_H


def test_weight():
    assert cyclotomic_spec(7).weight() == "3"
    assert cyclotomic_spec(2).weight() == "1/2"
    assert EtaQuotientSpec(((1, -6), (2, 1))).weight() == "-5/2"


@given(
    st.dictionaries(
        st.integers(1, 50), st.integers(-10**5, 10**5).filter(bool),
        min_size=1, max_size=4,
    )
)
@example({1: 1, 2: -1})
@settings(max_examples=200, deadline=None)
def test_weight_matches_fraction_text(exponents):
    # weight writes no Fraction, so that expand never loads fractions
    from fractions import Fraction

    spec = EtaQuotientSpec(exponents.items())
    assert spec.weight() == str(Fraction(sum(exponents.values()), 2))


def test_rescaled_and_corpus():
    assert CORPUS["48^3/24"] == rescaled(EtaQuotientSpec(((2, 3), (1, -1))), 24)
    assert CORPUS["32^2*16/8"] == rescaled(cyclotomic_spec(4), 8)
    assert CORPUS["72*36*24/12"] == rescaled(cyclotomic_spec(6), 12)
    for key, spec in CORPUS.items():
        assert str(spec) == key


# leading coefficients of the h = 7 quotient, index i <-> q**(2 + i)
H7_HEAD = [1, 1, 2, 3, 5, 7, 11, 8, 15, 16, 21, 21, 28]


def test_expand_h7_frozen_head():
    s = expand(cyclotomic_spec(7), 14)
    assert s.order24 == 48
    assert list(s.coeffs) == H7_HEAD


def test_expand_h4_fractional_head():
    # order 9/24 = 3/8; first coefficients worked out by hand
    s = expand(cyclotomic_spec(4), 5)
    assert s.order24 == 9
    assert list(s.coeffs) == [1, 1, 1, 2, 0]


def test_expand_window_too_small():
    assert expand(cyclotomic_spec(7), 1) == QSeries([1], 48)


def test_expand_empty_spec_is_one():
    s = expand(EtaQuotientSpec(()), 5)
    assert s.order24 == 0
    assert list(s.coeffs) == [1, 0, 0, 0, 0, 0]


LITERAL_SPECS = [
    pytest.param(cyclotomic_spec(h), id=str(h)) for h in [2, 3, 4, 5, 6, 7, 10, 12]
] + [
    pytest.param(EtaQuotientSpec(tuple(m.items())), id=key)
    for key, m in [
        ("6:2,3:4,2:1,1:-2", {6: 2, 3: 4, 2: 1, 1: -2}),
        ("5:3,4:1,2:2,1:1", {5: 3, 4: 1, 2: 2, 1: 1}),
        ("9:1,3:-2,2:5,1:-1", {9: 1, 3: -2, 2: 5, 1: -1}),
    ]
] + [pytest.param(spec, id=key) for key, spec in CORPUS.items()]


@pytest.mark.parametrize("spec", LITERAL_SPECS)
def test_expand_matches_literal_product(spec):
    n = 80
    literal = literal_product(
        [b for scale, e in spec.terms for b in eta_binomials(scale, e, n)], n
    )
    got = expand(spec, (spec.order24() + 24 * (n - 1) + 23) // 24)
    assert got.trunc >= n
    assert list(got.coeffs)[:n] == literal
    assert got.order24 == spec.order24()


factor_draws = st.lists(
    st.tuples(
        st.integers(1, 12), st.sampled_from(["pentagonal", "binomial"]), st.integers(-3, 4)
    ),
    min_size=1,
    max_size=4,
)


@given(factor_draws, st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_product_matches_literal_product(draws, n):
    factors, binomials = [], []
    for scale, kind, e in draws:
        if kind == "pentagonal":
            factors.append((scale, pentagonal_terms((n - 1) // scale), e))
            binomials += eta_binomials(scale, e, n)
        else:
            factors.append((scale, [(1, -1)], e))
            binomials.append((scale, e))
    assert _product(factors, n) == literal_product(binomials, n)


def dense_family_series(d, m, degree):
    """The d-th family polynomial at lambda**m through lambda**degree, by
    repeated schoolbook products with the binomial."""
    n = degree + 1

    def binomial(k):
        return [1] + [-1 if i == k else 0 for i in range(1, n)]

    coeffs = [1] + [0] * degree
    for _ in range(totient(d)):
        coeffs = _schoolbook_mul(coeffs, binomial(d * m), n)
    for t in divisors(d):
        if moebius(t) == 1:
            coeffs = _solve_quotient(coeffs, [(t * m, -1)], 1, n)
        elif moebius(t) == -1:
            coeffs = _schoolbook_mul(coeffs, binomial(t * m), n)
    return coeffs


@given(st.integers(1, 24), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_family_matches_dense_construction(h, degree):
    n = degree + 1
    assert _product(_family_factors(h, 1), n) == dense_family_series(h, 1, degree)
    if h == 1:
        return
    lhs = [1] + [0] * degree
    for d in divisors(h):
        lhs = qseries._schoolbook_mul(lhs, dense_family_series(d, h // d, degree), n)
    assert _product([f for d in divisors(h) for f in _family_factors(d, h // d)], n) == lhs
    assert cyclotomic_check(h, degree)


def test_expand_h7_never_needs_dense_products(monkeypatch):
    # E(q^7)^7 comes from Jacobi's cube at n/7 and the division by E(q)
    # from the pentagonal solve, so the Kronecker kernel never runs
    def refuse(*args):
        raise AssertionError("Kronecker product on the h = 7 route")

    monkeypatch.setattr(qseries, "_kronecker_mul", refuse)
    n = 20000
    series = expand(cyclotomic_spec(7), n)
    got = lseries.coeff_table_from_series(series, n)
    assert got.values[1:] == lseries.c_table(n).values[1:]


def test_every_dense_product_is_a_kronecker_product(monkeypatch):
    # _mul_lists has one kernel: no production product, at family sizes or
    # in the cyclotomic check, reaches the schoolbook reference
    def refuse(*args):
        raise AssertionError("schoolbook product on a production route")

    sizes = []
    real = qseries._kronecker_mul

    def spy(a, b, n):
        sizes.append(n)
        return real(a, b, n)

    monkeypatch.setattr(qseries, "_schoolbook_mul", refuse)
    monkeypatch.setattr(qseries, "_kronecker_mul", spy)
    expand(EtaQuotientSpec(((6, 2), (3, 4), (2, 1), (1, -2))), 300)
    expand(EtaQuotientSpec(((1, 4), (2, 3), (5, 2), (7, -1))), 3000)
    assert cyclotomic_check(12, 200)
    assert sizes, "no Kronecker product ran"


@given(st.integers(1, 12), st.integers(1, 400))
# E^4 and E^7 by the packed shift-sum at family size and at verify's
# E(q^7)^7 length
@example(e=4, m=3000)
@example(e=7, m=3000)
@example(e=4, m=14287)
@example(e=7, m=14287)
@settings(max_examples=150, deadline=None)
def test_eta_power_matches_power_recurrence(e, m):
    # Jacobi's cube, sparse squares and one sparse product against Miller
    assert _eta_power(e, m) == _sparse_power(pentagonal_terms(m - 1), e, m)


def schoolbook_expansion(spec, n):
    """First n coefficients of the spec's product, each positive factor by
    Miller's recurrence, stretched and multiplied in by _schoolbook_mul
    (its sparse operand first), then divided by the quotient solve."""
    acc = [1] + [0] * (n - 1)
    for s, e in spec.terms:
        m = (n - 1) // s + 1
        if e > 0:
            power = [0] * n
            power[::s] = _sparse_power(pentagonal_terms(m - 1), e, m)
            acc = _schoolbook_mul(power, acc, n)
    for s, e in spec.terms:
        den = [(g * s, c) for g, c in pentagonal_terms((n - 1) // s)]
        for _ in range(-e):
            acc = _solve_quotient(acc, den, 1, n)
    return acc


@pytest.mark.parametrize("text", ["1:4,2:3,5:1,7:-1", "1:2,5000:1"])
def test_sparse_eta_factors_skip_the_kronecker_product(monkeypatch, text):
    # E(q^2)^3, E(q^5) and E(q^5000) multiply the dense E(q)^4 or E(q)^2
    # by their stretched tails, so no Kronecker product runs
    kron = []
    real = qseries._kronecker_mul

    def spy(a, b, n):
        kron.append(n)
        return real(a, b, n)

    monkeypatch.setattr(qseries, "_kronecker_mul", spy)
    spec = EtaQuotientSpec(tuple(map(int, t.split(":")) for t in text.split(",")))
    series = expand(spec, 10_000)
    assert list(series.coeffs) == schoolbook_expansion(spec, len(series.coeffs))
    assert kron == []


def packed_counter(monkeypatch):
    calls = []
    real = qseries._solve_packed

    def counted(num, den_terms, n):
        calls.append(n)
        return real(num, den_terms, n)

    monkeypatch.setattr(qseries, "_solve_packed", counted)
    return calls


def test_family_sizes_never_enter_the_packed_solve(monkeypatch):
    calls = packed_counter(monkeypatch)
    for spec in [cyclotomic_spec(7), cyclotomic_spec(23),
                 EtaQuotientSpec(((4, 3), (1, -3), (2, -3))), *CORPUS.values()]:
        expand(spec, 3000)
    assert calls == []


def test_expansion_just_above_the_packed_threshold(monkeypatch):
    # 10_049 coefficients: past the threshold and not a multiple of a block
    calls = packed_counter(monkeypatch)
    n = 10_050
    assert lseries.c_table_from_expansion(n) == lseries.c_table(n)
    assert calls == [n - 1]
    assert (n - 1) >= qseries._PACKED_MIN_LEN and (n - 1) % qseries._BLOCK


def test_expand_of_combined_is_product():
    n = 40
    s1 = cyclotomic_spec(3)
    s2 = cyclotomic_spec(5)
    merged = dict(s1.terms)
    for s, e in s2.terms:
        merged[s] = merged.get(s, 0) + e
    both = expand(EtaQuotientSpec(tuple(merged.items())), n)
    e1, e2 = expand(s1, n), expand(s2, n)
    assert both.order24 == e1.order24 + e2.order24
    assert list(both.coeffs) == _schoolbook_mul(list(e1.coeffs), list(e2.coeffs), both.trunc)


def test_expand_rescale_commutes():
    base = cyclotomic_spec(7)
    got = expand(rescaled(base, 3), 60)
    want = expand(base, 20)
    assert got.order24 == 3 * want.order24
    assert list(got.coeffs[::3]) == list(want.coeffs)
    assert not any(c for i, c in enumerate(got.coeffs) if i % 3)


PHI2 = [1, 1, -1, -1]
PHI3 = [1, 1, 1, -2, -2, -2, 1, 1, 1]


def test_cyclotomic_polys_frozen():
    assert _product(_family_factors(1, 1), 6) == [1, 0, 0, 0, 0, 0]
    assert _product(_family_factors(2, 1), 7) == PHI2 + [0, 0, 0]
    assert _product(_family_factors(3, 1), 11) == PHI3 + [0, 0]
    # the family is not the classical cyclotomic one: classical Phi_2 = 1 + x
    assert _product(_family_factors(2, 1), 4) != [1, 1, 0, 0]


def test_cyclotomic_poly_degree_matches_order24():
    # the series is eventually zero (it really is a polynomial) and its
    # degree equals the 24-order of the matching eta quotient
    for h in range(2, 13):
        coeffs = _product(_family_factors(h, 1), 201)
        deg = max(i for i, c in enumerate(coeffs) if c != 0)
        assert deg == cyclotomic_spec(h).order24()
        assert not any(coeffs[deg + 1 :])


@pytest.mark.parametrize("h", list(range(2, 13)))
def test_cyclotomic_recursion_check(h):
    assert cyclotomic_check(h, 120)


def test_cyclotomic_check_rejects_bad_h():
    with pytest.raises(ValueError):
        cyclotomic_check(1, 10)
