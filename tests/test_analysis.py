"""Report-producing checks: positivity, uniqueness witness, non-decomposability,
family scan."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloeta import lseries
from cycloeta.analysis import (
    case_margin,
    check_positivity,
    check_witness,
    conjecture_scan,
    extended_case_failures,
    nondecomp_witness,
    uniqueness_hypotheses,
)
from cycloeta.arith import primes_up_to
from cycloeta.etaprod import cyclotomic_spec, expand
from cycloeta.lseries import c_table, expansion_values


def margin(p, k, case, a, abs_b, ok):
    return {"p": p, "k": k, "case": case, "a": a, "abs_b": abs_b, "ok": ok}


def test_case_margin_frozen():
    assert case_margin(7, 1) == margin(7, 1, "ramified", 49, 7, True)
    assert case_margin(2, 2) == margin(2, 2, "split", 21, 5, True)
    # the tight inert corner: (73 - 9) * 10 = 640 against 80 * 8 - 2 = 638
    assert case_margin(3, 2) == margin(3, 2, "inert", 73, 9, True)


def test_case_margin_holds_extended():
    assert extended_case_failures(200, 10) == []


def test_check_positivity_small():
    report = check_positivity(500)
    assert report["verified"]
    assert report["failures"] == []
    assert report["inequality_failures"] == []
    casewise = list(report["casewise"])
    assert all(m["ok"] for m in casewise)
    assert {m["case"] for m in casewise} == {"ramified", "split", "inert"}
    # one margin per prime power in range
    assert sum(1 for m in casewise if m["p"] == 2) == 8
    assert len(report["casewise"]) == len(casewise)


@pytest.mark.parametrize("n_max", [1, 2, 7, 49, 5000])
def test_check_positivity_margins_from_tables_match_closed_forms(n_max):
    closed = [
        case_margin(p, k)
        for p in primes_up_to(n_max)
        for k in range(1, n_max.bit_length() + 1)
        if p**k <= n_max
    ]
    report = check_positivity(n_max)
    assert list(report["casewise"]) == closed
    assert len(report["casewise"]) == len(closed)
    assert report["verified"]


def test_check_positivity_keeps_no_margin_list():
    # the margins are made again on each pass over `casewise`, and the
    # check itself keeps only the failing ones: 3,649 KB traced at 10**5
    # when every margin dict was kept, about 2,400 KB without them
    check_positivity(100)  # imports and caches outside the traced run
    tracemalloc.start()
    try:
        report = check_positivity(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["verified"]
    assert peak < 3_000 * 1024
    casewise = report["casewise"]
    assert not isinstance(casewise, list)
    assert len(casewise) == 9_700
    assert list(casewise) == list(casewise)


def test_check_positivity_flags_injected_failure(monkeypatch):
    honest = lseries.c_table
    # the scan starts at n = 2, so its first chunk boundary falls between
    # k + 1 and k + 2; n_max = 10 lies in one chunk
    k = lseries._CHUNK
    injected = {10: {5: -2, 7: 0},
                2 * k + 5: {2: 0, k: -1, k + 1: -(2**63), k + 2: 0, k + 3: -5,
                            2 * k + 1: -1, 2 * k + 2: 0, 2 * k + 5: -7}}

    def tampered(n_max, at=None):
        c, a_at, b_at = honest(n_max, at=at)
        for n, v in injected[n_max].items():
            c.values[n] = v
        return c, a_at, b_at

    monkeypatch.setattr(lseries, "c_table", tampered)
    for n_max, bad in injected.items():
        report = check_positivity(n_max)
        assert report["failures"] == sorted(bad)
        assert not report["verified"]


def test_uniqueness_witness_validation():
    check_witness([2, 3, 5, 7, 11], [1, 1, 3, 7, 16])
    with pytest.raises(ValueError):
        check_witness([2, 3, 5, 7], [1, 1, 3, 7])
    with pytest.raises(ValueError):
        check_witness([2, 3, 5, 7, 11], [1, 0, 3, 7, 16])
    with pytest.raises(ValueError):
        check_witness([2, 3, 5, 7, 14], [1, 1, 3, 7, 28])


def test_uniqueness_hypotheses_canonical_witness():
    report = uniqueness_hypotheses(c_table(300).values)
    assert report["verified"]
    assert report["c1_zero"]
    assert report["witness_indices"] == [2, 3, 5, 7, 11]
    assert report["witness_coeffs"] == [1, 1, 3, 7, 16]
    assert report["searched_to"] == 300


def test_uniqueness_hypotheses_exhausted_search():
    report = uniqueness_hypotheses(c_table(300).values[:11])
    assert report["witness_indices"] is None
    assert report["witness_coeffs"] is None
    assert report["c1_zero"]
    assert not report["verified"]
    assert report["searched_to"] == 10


def test_uniqueness_hypotheses_raw_list():
    # h = 5 expansion starts at q^1, so the first hypothesis fails
    values = expansion_values(expand(cyclotomic_spec(5), 200), 200)
    report = uniqueness_hypotheses(values)
    assert not report["c1_zero"]
    assert not report["verified"]
    assert report["witness_indices"] is not None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0, 0, 0, 1, -1, 7)), min_size=2, max_size=40))
def test_uniqueness_hypotheses_random_values(values):
    # mostly zeros, so short or sparse lists exhaust the search
    report = uniqueness_hypotheses(values)
    indices, coeffs = report["witness_indices"], report["witness_coeffs"]
    assert report["searched_to"] == len(values) - 1
    assert report["c1_zero"] == (values[1] == 0)
    assert report["verified"] == (report["c1_zero"] and indices is not None)
    if indices is None:
        assert coeffs is None
        # a nonzero prime shares no factor with a smaller index, so the
        # greedy search picks every one it reaches: fewer than five exist
        assert sum(1 for p in primes_up_to(len(values) - 1) if values[p]) < 5
        return
    assert indices == sorted(indices) and len(set(indices)) == 5
    assert 2 <= indices[0] and indices[-1] <= report["searched_to"]
    assert all(math.gcd(m, n) == 1 for i, m in enumerate(indices) for n in indices[i + 1:])
    assert coeffs == [values[n] for n in indices] and 0 not in coeffs
    # greedy: every skipped nonzero index below the last shares a factor
    # with an earlier pick
    for n in range(2, indices[-1]):
        if values[n] and n not in indices:
            assert any(math.gcd(n, m) > 1 for m in indices if m < n), n


def test_nondecomp_witness_frozen():
    w11 = nondecomp_witness(11)
    assert (w11["bound"], w11["m"]) == (5, 3)
    assert w11["valid"]
    w13 = nondecomp_witness(13)
    assert (w13["bound"], w13["m"]) == (7, 5)
    assert w13["valid"]
    w17 = nondecomp_witness(17)
    assert (w17["bound"], w17["m"]) == (12, 7)
    assert w17["valid"]


def test_nondecomp_witness_rejects_bad_p():
    with pytest.raises(ValueError):
        nondecomp_witness(7)
    with pytest.raises(ValueError):
        nondecomp_witness(12)


def test_conjecture_scan_small():
    entries = conjecture_scan(7, 300)
    assert [e["h"] for e in entries] == [2, 3, 4, 5, 6, 7]
    assert all(e["first_negative_num24"] is None for e in entries)
    assert all(e["truncation_limited"] for e in entries)
    assert [e["order24"] for e in entries] == [3, 8, 9, 24, 10, 48]
    assert [e["exponent_integral"] for e in entries] == [
        False, False, False, True, False, True,
    ]
    with pytest.raises(ValueError):
        conjecture_scan(1, 50)


def test_conjecture_scan_below_the_leading_term():
    # h = 7 leads at q^2, h = 11 at q^5: a window to n_max = 1 or 4 holds
    # no coefficient of theirs, so no negative one
    for n_max in (1, 4):
        entries = conjecture_scan(12, n_max)
        assert [e["order24"] for e in entries] == [
            cyclotomic_spec(h).order24() for h in range(2, 13)
        ]
        assert all(e["first_negative_num24"] is None for e in entries)
        assert all(e["checked_to"] == n_max for e in entries)
