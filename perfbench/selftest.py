"""Self-tests of the benchmark harness (about two minutes):

    python3 -m pytest perfbench/selftest.py

They run each workload once untraced and once traced, and check that every
span fires on the workload meant for it, that tracing leaves stdout
byte-identical, and that the computed counters repeat exactly.  The file
name keeps these runs out of the repository's default test collection.
"""

import os
import shutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import run
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from cycloeta import etaprod  # noqa: E402
from cycloeta.reference import KNOWN_MISPRINTS, TABULATED_C50  # noqa: E402

COUNTERS = [name for name, unit, _, _ in run.PER_LAYER if unit != "s"]


@pytest.fixture(scope="module")
def runner():
    workdir = os.path.join(run.HERE, ".work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    yield run.Runner(workdir)
    shutil.rmtree(workdir)


_traced = {}


def traced(runner, workload, seed=0):
    """Per-layer metrics of one untraced/traced pair, cached per workload."""
    key = (workload, seed)
    if key not in _traced:
        before = len(runner.failures)
        ops = workloads.ops_for(workload, seed)
        metrics = run.measure(runner, ops, 0, trace=True)
        assert runner.failures[before:] == []
        _traced[key] = {name: m["value"] for name, m in metrics.items()}
    return _traced[key]


def module_self_s(m, module):
    return sum(v for k, v in m.items()
               if k.startswith(module + ".") and k.endswith("_s") and k != "trace.overhead_s")


# ---------------------------------------------------------------------------
# generator and oracle

def test_family_argvs_repeat_for_a_seed():
    assert workloads.family_argvs(7) == workloads.family_argvs(7)
    assert workloads.family_argvs(7) != workloads.family_argvs(8)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63))
def test_family_draws_only_valid_specs(seed):
    specs, primes = [], []
    for argv in workloads.family_argvs(seed):
        if argv[:2] == ("expand", "--spec"):
            specs.append(workloads.parse_spec(argv[2]))
        elif argv[0] == "nondecomp":
            primes.append(int(argv[2]))
    assert len(specs) == len(workloads.SPEC_CLASSES)
    for terms in specs:
        scales = [s for s, _ in terms]
        assert 2 <= len(terms) <= 4 and len(set(scales)) == len(scales)
        assert all(1 <= s <= 12 and e in workloads.SPEC_EXPONENTS for s, e in terms)
        etaprod.EtaQuotientSpec(terms)
    assert sum(all(e < 0 for _, e in t) for t in specs) >= 4
    assert sum(workloads.order24(t) % 24 != 0 for t in specs) >= 4
    assert len(primes) == len(workloads.PRIME_BANDS)
    assert all(p in workloads.nondecomp_primes() for p in primes)
    cost = workloads.spec_list_seconds(specs)
    assert abs(cost / workloads.SPEC_COST_S - 1) <= workloads.SPEC_COST_TOL


def test_oracle_reproduces_the_tabulated_quotient():
    c = workloads.eta_prefix(((7, 7), (1, -1)), 50)
    want = {**TABULATED_C50, **KNOWN_MISPRINTS}
    # eta(7t)^7/eta(t) = q^2 * prod(...), so c[n - 2] is the coefficient of q^n
    assert {n: c[n - 2] for n in want} == want


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_oracle_agrees_with_expand_on_drawn_specs(seed):
    for argv in workloads.family_argvs(seed):
        if argv[:2] == ("expand", "--spec"):
            terms = workloads.parse_spec(argv[2])
            series = etaprod.expand(etaprod.EtaQuotientSpec(terms), 40)
            n = min(series.trunc, 30)
            assert list(series.coeffs[:n]) == workloads.eta_prefix(terms, n)


def test_spec_check_flags_a_wrong_row():
    terms = ((1, -2), (2, 1))
    rows = [f"n={n}: {c}" for n, c in enumerate(workloads.eta_prefix(terms, 4))]
    good = "\n".join(["expansion of eta(1t)^-2*eta(2t)^1 to n_max=3", *rows, ""])
    check = workloads.spec_check(terms, 3)
    assert check(good.encode(), 0) is None
    assert check(good.replace(rows[3], rows[3] + "1").encode(), 0) is not None
    assert check(good.replace(rows[3] + "\n", "").encode(), 0) is not None
    assert check(good.encode(), 1) is not None


# ---------------------------------------------------------------------------
# spans fire where they should

def test_verify_spans(runner):
    m = traced(runner, "verify")
    assert m["qseries.kronecker_calls"] > 0 and m["qseries.kronecker_bytes"] > 0
    assert m["qseries.solve_calls"] > 0 and m["qseries.solve_steps"] > 0
    assert m["etaprod.expand_calls"] == 1 and m["etaprod.expand_coeffs"] > 0
    assert m["lseries.a_table_calls"] == m["lseries.b_table_calls"] == 1
    assert m["lseries.c_table_s"] > 0 and m["lseries.readout_s"] > 0
    assert m["quadfield.split_trace_misses"] > 0
    qseries = module_self_s(m, "qseries")
    for module in ("etaprod", "lseries", "arith", "quadfield", "analysis", "cli"):
        assert qseries > module_self_s(m, module), module


def test_tables_spans(runner):
    m = traced(runner, "tables")
    for name in COUNTERS:
        if name.startswith(("qseries.", "etaprod.")):
            assert m[name] == 0, name
    # a_table and b_table run twice per coeffs call (directly and inside
    # c_table), once for positivity
    assert m["lseries.a_table_calls"] == m["lseries.b_table_calls"] == 3 * 2 + 1
    assert m["lseries.prime_power_evals"] > 0
    assert 0 < m["quadfield.split_trace_misses"] <= m["quadfield.split_trace_calls"]
    for name in ("lseries.a_table_s", "lseries.b_table_s", "arith.sieve_s",
                 "arith.spf_s", "quadfield.split_trace_s", "analysis.positivity_s",
                 "cli.parse_s", "cli.render_s"):
        assert m[name] > 0, name
    assert m["cli.out_bytes"] > 10_000_000


def test_family_spans(runner):
    m = traced(runner, "family")
    assert m["qseries.schoolbook_calls"] > m["qseries.kronecker_calls"]
    assert m["qseries.schoolbook_ops"] > 0 and m["qseries.solve_steps"] > 0
    assert m["etaprod.expand_calls"] > len(workloads.SPEC_CLASSES)
    for name in ("analysis.scan_s", "analysis.nondecomp_s", "analysis.uniqueness_s",
                 "qseries.dispatch_s", "lseries.readout_s"):
        assert m[name] > 0, name
    assert m["lseries.a_table_calls"] == m["lseries.prime_power_evals"] == 0


def test_counters_repeat_for_a_seed(runner):
    first = traced(runner, "family")
    _traced.pop(("family", 0))
    second = traced(runner, "family")
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
