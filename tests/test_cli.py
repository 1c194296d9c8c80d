"""Command line behavior: formats, exit codes, determinism, env override."""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloeta
from cycloeta import analysis, cli, etaprod, lseries, qseries, quadfield
from cycloeta.cli import run

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_default_flags_misprint(capsys):
    code, out, err = capture(capsys, ["expand"])
    assert code == 0
    assert "n=2: 1" in out
    assert "n=41: 210" in out
    assert "tabulated 21" in out and "known misprint" in out


def test_expand_spec_matches_h_but_carries_no_table_note(capsys):
    _, via_h, _ = capture(capsys, ["expand", "--h", "7", "--n-max", "30"])
    _, via_spec, _ = capture(capsys, ["expand", "--spec", "7:7,1:-1", "--n-max", "30"])
    h_rows = [l for l in via_h.splitlines() if l.startswith("n=")]
    spec_rows = [l for l in via_spec.splitlines() if l.startswith("n=")]
    assert h_rows == spec_rows


def test_expand_fractional_json(capsys):
    code, out, _ = capture(capsys, ["expand", "--h", "4", "--n-max", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["row_key"] == "num24"
    assert payload["exponent_integral"] is False
    assert payload["order24"] == 9
    assert payload["rows"] == [[9, 1], [33, 1], [57, 1], [81, 2], [105, 0]]
    assert cli.spec_from_payload(payload).as_map() == {4: 2, 2: 1, 1: -1}
    assert "known_discrepancies" not in payload


def test_expand_fractional_csv_header(capsys):
    _, out, _ = capture(capsys, ["expand", "--h", "4", "--n-max", "5", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "num24,coefficient"
    assert lines[1] == "9,1"


def test_expand_corpus(capsys):
    code, out, _ = capture(capsys, ["expand", "--corpus", "32^2*16/8", "--n-max", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order24"] == 72
    assert payload["row_key"] == "n"
    assert payload["rows"][0] == [3, 1]


def test_coeffs_csv(capsys):
    code, out, _ = capture(capsys, ["coeffs", "--n-max", "12", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a,b,c"
    assert lines[1] == "1,1,1,0"
    assert lines[2] == "2,5,-3,1"
    assert lines[-1] == "12,168,0,21"
    assert len(lines) == 13
    assert "." not in out  # exact integers only


def test_verify_text(capsys):
    code, out, _ = capture(capsys, ["verify", "--n-max", "50"])
    assert code == 0
    assert out == "identity c=(a-b)/8 holds on [1,50]\n"


def test_byte_identical_reruns(capsys):
    for argv in (
        ["coeffs", "--n-max", "40", "--format", "json"],
        ["positivity", "--n-max", "100", "--format", "csv"],
        ["scan", "--h-max", "5", "--n-max", "60"],
    ):
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second


def test_positivity_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["positivity", "--n-max", "200", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rebuilt = cli.positivity_from_payload(payload)
    assert rebuilt == analysis.check_positivity(200)
    assert rebuilt.verified


def test_nondecomp_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["nondecomp", "--p", "13", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert cli.nondecomp_from_payload(payload) == analysis.nondecomp_witness(13)


def test_uniqueness_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["uniqueness", "--n-max", "300", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    rebuilt = cli.uniqueness_from_payload(payload)
    assert rebuilt == analysis.uniqueness_hypotheses(lseries.c_table(300).values)
    assert payload["witness_indices"] == [2, 3, 5, 7, 11]
    assert payload["witness_coeffs"] == [1, 1, 3, 7, 16]


def test_scan_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["scan", "--h-max", "6", "--n-max", "80", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert cli.scan_from_payload(payload) == analysis.conjecture_scan(6, 80)


def test_uniqueness_failing_spec_exits_one(capsys):
    # the h = 5 quotient has c(1) != 0
    code, out, _ = capture(capsys, ["uniqueness", "--h", "5", "--n-max", "100"])
    assert code == 1
    assert "c(1) != 0" in out


def test_nondecomp_valid_and_invalid_p(capsys):
    code, out, _ = capture(capsys, ["nondecomp", "--p", "11"])
    assert code == 0
    assert "witness valid" in out
    with pytest.raises(SystemExit) as exc:
        run(["nondecomp", "--p", "7"])
    assert exc.value.code == 2


def test_usage_errors_exit_two(capsys):
    # older argparse lists invalid-choice alternatives by repr, newer by str
    quoted = ", ".join(repr(name) for name in sorted(etaprod.CORPUS))
    bare = ", ".join(sorted(etaprod.CORPUS))
    corpus = "cycloeta expand: error: argument --corpus: invalid choice: 'nope' (choose from {})"
    for argv, last in (
        (["expand", "--h", "7", "--spec", "1:1"], {"cycloeta: error: give at most one of --h, --spec, --corpus"}),
        (["expand", "--h", "1"], {"cycloeta: error: --h must be >= 2"}),
        (["expand", "--spec", "garbage"], {"cycloeta: error: bad spec term 'garbage'; expected scale:exponent"}),
        (["expand", "--n-max", "0"], {"cycloeta: error: n-max must be >= 1"}),
        (["expand", "--corpus", "nope"], {corpus.format(quoted), corpus.format(bare)}),
        (["scan", "--h-max", "1"], {"cycloeta: error: --h-max must be >= 2"}),
        # window below leading degree
        (["expand", "--h", "7", "--n-max", "1"], {"cycloeta: error: n_max=1 is below the leading exponent 48/24"}),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1] in last, argv


def test_env_var_sets_default_n_max(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_N_MAX, "20")
    _, out, _ = capture(capsys, ["coeffs", "--format", "csv"])
    assert len(out.splitlines()) == 21
    # explicit flag beats the environment
    _, out, _ = capture(capsys, ["coeffs", "--n-max", "5", "--format", "csv"])
    assert len(out.splitlines()) == 6
    monkeypatch.setenv(cli.ENV_N_MAX, "many")
    with pytest.raises(SystemExit) as exc:
        run(["coeffs"])
    assert exc.value.code == 2


def test_output_file_matches_stdout(capsys, tmp_path):
    _, expected, _ = capture(capsys, ["coeffs", "--n-max", "15", "--format", "json"])
    path = tmp_path / "out.json"
    code, out, _ = capture(capsys, ["coeffs", "--n-max", "15", "--format", "json", "--output", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == expected


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x"
    code, out, err = capture(capsys, ["verify", "--n-max", "5", "--output", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"cycloeta: error: cannot write {path}: No such file or directory"]
    assert not path.exists()


def test_arithmetic_failure_exits_one(capsys, monkeypatch):
    def boom(n_max, at=None):
        raise lseries.IdentityViolation(3, 10, 1)

    monkeypatch.setattr(cli.lseries, "c_table", boom)
    code, out, err = capture(capsys, ["coeffs", "--n-max", "10"])
    assert code == 1
    assert err == "mathematical check failed: a(3) - b(3) = 9 is not divisible by 8\n"


def test_missed_split_prime_exits_one(capsys, monkeypatch):
    honest = quadfield._prime_reps

    def hiding(n_max, flags):
        return (rep for rep in honest(n_max, flags) if rep[0] != 16417)

    monkeypatch.setattr(quadfield, "_prime_reps", hiding)
    code, out, err = capture(capsys, ["coeffs", "--n-max", "20000"])
    assert (code, out) == (1, "")
    assert err == "mathematical check failed: split primes [16417] not found as x^2 + 7y^2\n"


GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden_stdout.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS))
def test_golden_stdout(capsys, argv):
    # a bare digest means exit 0; a failing check records its exit code beside it
    golden = GOLDEN_DIGESTS[argv]
    if isinstance(golden, str):
        golden = {"exit": 0, "sha256": golden}
    code, out, _ = capture(capsys, argv.split())
    assert code == golden["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden["sha256"]


# ---------------------------------------------------------------------------
# failure renderings: one stage patched to report a failed check

VERIFY_FAILS = {
    "text": "identity FAILS at n=17: decomposition gives 36, expansion gives 44\n",
    "json": (
        '{\n  "command": "verify",\n  "n_max": 30,\n  "identity_holds": false,\n'
        '  "first_mismatch": 17,\n  "identity_value": 36,\n  "expansion_value": 44\n}\n'
    ),
    "csv": "n_max,identity_holds,first_mismatch\n30,False,17\n",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_FAILS))
def test_verify_failure_renderings(capsys, monkeypatch, fmt):
    honest = lseries.c_table_from_expansion

    def perturbed(n_max):
        values = honest(n_max).values
        values[17] += 8
        return lseries.CoeffTable("C", n_max, values)

    monkeypatch.setattr(lseries, "c_table_from_expansion", perturbed)
    code, out, _ = capture(capsys, ["verify", "--n-max", "30", "--format", fmt])
    assert (code, out) == (1, VERIFY_FAILS[fmt])


def _margin_json(p, k, case, a, abs_b, ok):
    return (
        f'    {{\n      "p": {p},\n      "k": {k},\n      "case": "{case}",\n'
        f'      "a": {a},\n      "abs_b": {abs_b},\n      "ok": {ok}\n    }}'
    )


POSITIVITY_FAILS = {
    "text": (
        "positivity FAILED for 2 <= n <= 4 (3 prime-power margins checked)\n"
        "c(3) <= 0\n"
        "case inequality fails at 3^1\n"
    ),
    "json": (
        '{\n  "command": "positivity",\n  "n_max": 4,\n  "verified": false,\n'
        '  "failures": [\n    3\n  ],\n  "inequality_failures": [\n'
        + _margin_json(3, 1, "inert", 8, 0, "false")
        + '\n  ],\n  "casewise": [\n'
        + _margin_json(2, 1, "split", 5, 3, "true") + ",\n"
        + _margin_json(2, 2, "split", 21, 5, "true") + ",\n"
        + _margin_json(3, 1, "inert", 8, 0, "false")
        + "\n  ]\n}\n"
    ),
    "csv": "p,k,case,a,abs_b,ok\n2,1,split,5,3,True\n2,2,split,21,5,True\n3,1,inert,8,0,False\n",
}


@pytest.mark.parametrize("fmt", sorted(POSITIVITY_FAILS))
def test_positivity_failure_renderings(capsys, monkeypatch, fmt):
    honest = analysis.check_positivity

    def failing(n_max):
        report = honest(n_max)
        bad = dataclasses.replace(report.casewise[2], ok=False)  # 3^1
        return analysis.PositivityReport(n_max, [3], report.casewise[:2] + [bad], [bad])

    monkeypatch.setattr(analysis, "check_positivity", failing)
    code, out, _ = capture(capsys, ["positivity", "--n-max", "4", "--format", fmt])
    assert (code, out) == (1, POSITIVITY_FAILS[fmt])


NONDECOMP_FAILS = {
    "text": (
        "p=13: witness INVALID (bound=7, m=5, zero_range_ok=False, "
        "nonzero_range_ok=True)\n"
    ),
    "json": (
        '{\n  "command": "nondecomp",\n  "p": 13,\n  "bound": 7,\n  "m": 5,\n'
        '  "zero_range_ok": false,\n  "nonzero_range_ok": true,\n  "valid": false\n}\n'
    ),
    "csv": "p,bound,m,zero_range_ok,nonzero_range_ok,valid\n13,7,5,False,True,False\n",
}


@pytest.mark.parametrize("fmt", sorted(NONDECOMP_FAILS))
def test_nondecomp_failure_renderings(capsys, monkeypatch, fmt):
    honest = analysis.nondecomp_witness
    monkeypatch.setattr(
        analysis,
        "nondecomp_witness",
        lambda p: dataclasses.replace(honest(p), zero_range_ok=False),
    )
    code, out, _ = capture(capsys, ["nondecomp", "--p", "13", "--format", fmt])
    assert (code, out) == (1, NONDECOMP_FAILS[fmt])


def test_programming_errors_are_not_check_failures(capsys, monkeypatch):
    # only the package's own check failures exit 1; a ZeroDivisionError is a bug
    def bug(n_max, at=None):
        raise ZeroDivisionError("integer division or modulo by zero")

    monkeypatch.setattr(lseries, "c_table", bug)
    with pytest.raises(ZeroDivisionError):
        run(["coeffs", "--n-max", "10"])
    assert capsys.readouterr().err == ""


def test_inexact_power_recurrence_exits_one(capsys, monkeypatch):
    # the real recurrence on a non-integral tail, (1 + q/2)^1, leaves a remainder
    def inexact(tail, e, n):
        return qseries._sparse_power([(1, Fraction(1, 2))], 1, 3)

    monkeypatch.setattr(etaprod, "_sparse_power", inexact)
    code, out, err = capture(capsys, ["expand", "--n-max", "10"])
    assert (code, out) == (1, "")
    assert err == "mathematical check failed: power recurrence: division by 1 is not exact\n"


# ---------------------------------------------------------------------------
# fuzz: the exit-code contract over small argument vectors

_SELECTORS = st.one_of(
    st.just([]),
    st.integers(1, 12).map(lambda h: ["--h", str(h)]),
    st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 4)), min_size=1, max_size=4).map(
        lambda terms: ["--spec", ",".join(f"{s}:{e}" for s, e in terms)]
    ),
    st.sampled_from(sorted(etaprod.CORPUS)).map(lambda name: ["--corpus", name]),
)
_N_MAX = st.one_of(st.just([]), st.integers(0, 60).map(lambda n: ["--n-max", str(n)]))
_OPTIONS = {
    "expand": st.tuples(_SELECTORS, _N_MAX),
    "uniqueness": st.tuples(_SELECTORS, _N_MAX),
    "coeffs": st.tuples(_N_MAX),
    "verify": st.tuples(_N_MAX),
    "positivity": st.tuples(_N_MAX),
    "nondecomp": st.tuples(st.integers(-5, 200).map(lambda p: ["--p", str(p)])),
    "scan": st.tuples(st.integers(1, 12).map(lambda h: ["--h-max", str(h)]), _N_MAX),
}
_ARGV = st.sampled_from(sorted(_OPTIONS)).flatmap(
    lambda cmd: st.tuples(_OPTIONS[cmd], st.sampled_from(("text", "json", "csv"))).map(
        lambda drawn: [cmd, *(a for opt in drawn[0] for a in opt), "--format", drawn[1]]
    )
)


@settings(max_examples=60, deadline=None)
@given(argv=_ARGV)
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())


def _declared_console_script():
    """The `cycloeta` target declared under [project.scripts] in pyproject.toml."""
    text = PYPROJECT.read_text(encoding="utf-8")
    if tomllib is not None:
        scripts = tomllib.loads(text)["project"]["scripts"]
    else:
        scripts = _scripts_table(text)
    module, _, attr = scripts["cycloeta"].partition(":")
    return module.strip(), attr.strip()


def _scripts_table(text):
    """Read `name = "module:attr"` lines of [project.scripts] without tomllib."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = value
    return scripts


def _child_env():
    """Environment whose first import root is the directory holding this `cycloeta`."""
    env = dict(os.environ)
    root = str(Path(cycloeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def _run(argv, timeout=None):
    return subprocess.run(
        argv, input="", capture_output=True, text=True, env=_child_env(), timeout=timeout
    )


def _assert_exit_codes(command):
    """`command` keeps the 0 ok / 1 check failed / 2 usage error contract."""
    assert _run(command).returncode == 2  # no subcommand is a usage error

    proc = _run(command + ["verify", "--n-max", "30"])
    assert proc.returncode == 0
    assert "holds on [1,30]" in proc.stdout

    # the h = 5 quotient has c(1) != 0, so its uniqueness check fails
    assert _run(command + ["uniqueness", "--h", "5", "--n-max", "100"]).returncode == 1


def test_console_script_runs():
    proc = _run([sys.executable, "-m", "cycloeta.cli"])
    assert proc.returncode == 2  # no subcommand is a usage error

    module, attr = _declared_console_script()
    assert callable(getattr(importlib.import_module(module), attr))

    # the body of the script that installers generate for a console entry point
    script = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'cycloeta'\n"
        f"sys.exit({attr}())\n"
    )
    _assert_exit_codes([sys.executable, "-c", script])


@pytest.mark.skipif(shutil.which("cycloeta") is None, reason="cycloeta script not installed (pip install -e .)")
def test_installed_console_script_runs():
    _assert_exit_codes([shutil.which("cycloeta")])


def test_module_form_runs():
    _assert_exit_codes([sys.executable, "-m", "cycloeta"])


def test_unproven_primality_is_usage_error():
    # (2^31 - 1)(2^61 - 1) > 3.3e24, past every proven Miller-Rabin base set;
    # trial division on it never finished, so a regression times out here
    proc = _run(
        [sys.executable, "-m", "cycloeta", "nondecomp", "--p", "4951760154835678088235319297"],
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cycloeta: error:" in proc.stderr and "is_prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_json_and_csv_unloaded():
    # json and csv load only in the renderers that need them, off every
    # command's start-up path
    probe = "import sys, cycloeta.cli; print(sorted({'json', 'csv'} & set(sys.modules)))"
    proc = _run([sys.executable, "-c", probe])
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_perfbench_spans_wrap_a_several_factor_expand():
    # perfbench/spans.py rebinds kernel and layer names after import; a
    # refactor that drops or rebinds one of them breaks `run.py --trace 1`
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from cycloeta import cli\n"
        "code = cli.run(['expand', '--spec', '6:2,3:4,2:1,1:-2', '--n-max', '300'])\n"
        "names = ('etaprod.expand', 'qseries.dispatch', 'qseries.schoolbook', 'qseries.solve')\n"
        "assert all(tracer.calls[name] for name in names), tracer.calls\n"
        "sys.exit(code)\n"
    )
    proc = _run([sys.executable, "-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_spans_wrap_the_identity_side():
    # the tables workload traces the identity side through the same
    # rebinding; coeffs and positivity must reach every wrapped layer, and
    # no table build may fall back to the per-prime split_trace cache
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from cycloeta import cli\n"
        "codes = [cli.run([cmd, '--n-max', '300']) for cmd in ('coeffs', 'positivity')]\n"
        "assert codes == [0, 0], codes\n"
        "names = ('lseries.a_table', 'lseries.b_table', 'lseries.c_table',\n"
        "         'arith.sieve', 'analysis.positivity')\n"
        "assert all(tracer.calls[name] for name in names), tracer.calls\n"
        "assert tracer.counts['lseries.prime_power_evals'] > 0, tracer.counts\n"
        "assert tracer.calls['quadfield.split_trace'] == 0, tracer.calls\n"
    )
    proc = _run([sys.executable, "-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
