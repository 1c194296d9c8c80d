"""Command line behavior: formats, exit codes, determinism, env override."""

import argparse
import contextlib
import csv
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
README = PYPROJECT.with_name("README.md")


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
    assert payload["spec_terms"] == [[1, -1], [2, 1], [4, 2]]
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


def test_verify_at_n_max_one(capsys):
    # the expansion runs through its leading term q^2, so it reads c(1) = 0
    code, out, _ = capture(capsys, ["verify", "--n-max", "1"])
    assert (code, out) == (0, "identity c=(a-b)/8 holds on [1,1]\n")


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
    report = analysis.check_positivity(200)
    assert report.keys() <= payload.keys()
    assert payload["n_max"] == report["n_max"] == 200
    assert payload["failures"] == report["failures"]
    assert payload["casewise"] == report["casewise"]
    assert payload["inequality_failures"] == report["inequality_failures"]
    assert payload["verified"] is report["verified"] is True


def test_nondecomp_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["nondecomp", "--p", "13", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    witness = analysis.nondecomp_witness(13)
    assert {name: payload[name] for name in witness} == witness
    assert payload["valid"] is witness["valid"] is True


def test_uniqueness_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["uniqueness", "--n-max", "300", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    report = analysis.uniqueness_hypotheses(lseries.c_table(300).values)
    assert payload["c1_zero"] is report["c1_zero"] is True
    assert payload["searched_to"] == report["searched_to"] == 300
    assert payload["witness_indices"] == report["witness_indices"] == [2, 3, 5, 7, 11]
    assert payload["witness_coeffs"] == report["witness_coeffs"] == [1, 1, 3, 7, 16]
    assert payload["verified"] is report["verified"] is True


def test_scan_json_roundtrip(capsys):
    code, out, _ = capture(capsys, ["scan", "--h-max", "6", "--n-max", "80", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == analysis.conjecture_scan(6, 80)


def test_windows_below_the_leading_term(capsys):
    # h = 7 leads at q^2, so to n_max = 1 the window holds only c(1) = 0:
    # uniqueness finds no witness, scan no negative coefficient
    code, out, err = capture(capsys, ["uniqueness", "--n-max", "1"])
    assert (code, out, err) == (
        1, "hypotheses unverified: no five pairwise-coprime nonzero indices up to 1\n", ""
    )
    _, out, _ = capture(capsys, ["uniqueness", "--n-max", "1", "--format", "json"])
    payload = json.loads(out)
    assert (payload["c1_zero"], payload["witness_indices"], payload["searched_to"]) == (
        True, None, 1
    )
    code, out, err = capture(capsys, ["scan", "--h-max", "9", "--n-max", "1"])
    assert (code, err) == (0, "")
    assert out.splitlines()[5:] == [
        f"h={h}: no negative coefficients through n_max=1 (truncation-limited evidence)"
        for h in (7, 8, 9)
    ]
    # expand still refuses a window below the leading term
    with pytest.raises(SystemExit) as exc:
        run(["expand", "--n-max", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: n_max=1 is below the leading exponent 48/24\n"
    )


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
        (["expand", "--h", "7", "--spec", "1:1"], {"cycloeta expand: error: give at most one of --h, --spec, --corpus"}),
        (["expand", "--h", "1"], {"cycloeta expand: error: --h must be >= 2"}),
        (["expand", "--spec", "garbage"], {"cycloeta expand: error: bad spec term 'garbage'; expected scale:exponent"}),
        (["expand", "--n-max", "0"], {"cycloeta expand: error: n-max must be >= 1"}),
        (["expand", "--corpus", "nope"], {corpus.format(quoted), corpus.format(bare)}),
        (["scan", "--h-max", "1"], {"cycloeta scan: error: --h-max must be >= 2"}),
        # window below leading degree
        (["expand", "--h", "7", "--n-max", "1"], {"cycloeta expand: error: n_max=1 is below the leading exponent 48/24"}),
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


def test_command_table_declares_every_command(capsys, monkeypatch):
    # a command is one cli._COMMANDS row: its subparser, its handler, its
    # default --n-max (named in its help) and the key its exit code reads
    monkeypatch.delenv(cli.ENV_N_MAX, raising=False)
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    handlers = {name[len("_cmd_"):] for name in dir(cli) if name.startswith("_cmd_")}
    assert set(sub.choices) == handlers == set(cli._COMMANDS)
    assert len(cli._COMMANDS) == 7
    for command, (_, n_max, verdict) in cli._COMMANDS.items():
        options = {o: a for a in sub.choices[command]._actions for o in a.option_strings}
        if n_max is None:
            assert "--n-max" not in options, command
        else:
            assert f"else {n_max})" in options["--n-max"].help, command
        argv = [command, "--format", "json", *(["--p", "11"] * (command == "nondecomp"))]
        code, out, _ = capture(capsys, argv)
        payload = json.loads(out)
        assert payload.get("n_max") == n_max, command
        assert verdict is None or verdict in payload, command
        assert code == (1 if verdict and not payload[verdict] else 0), command


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


@pytest.mark.parametrize(
    "failure, reason",
    [
        pytest.param(
            lseries.IdentityViolation(3, 10, 1), "a(3) - b(3) = 9 is not divisible by 8",
            id="IdentityViolation",
        ),
        pytest.param(
            quadfield.InconsistencyError("p=11 = 2^2 + 7*1^2: a second or non-split hit"),
            "p=11 = 2^2 + 7*1^2: a second or non-split hit",
            id="InconsistencyError",
        ),
        pytest.param(
            quadfield.SplittingError("p=3 is not x^2 + 7y^2; it does not split"),
            "p=3 is not x^2 + 7y^2; it does not split",
            id="SplittingError",
        ),
        pytest.param(
            qseries.InexactDivisionError("power recurrence: division by 2 is not exact"),
            "power recurrence: division by 2 is not exact",
            id="InexactDivisionError",
        ),
    ],
)
def test_arithmetic_failure_exits_one(capsys, monkeypatch, failure, reason):
    # each of the package's own check failures, raised inside a handler,
    # is exit 1 and one stderr line
    def boom(n_max, at=None):
        raise failure

    monkeypatch.setattr(lseries, "c_table", boom)
    code, out, err = capture(capsys, ["coeffs", "--n-max", "10"])
    assert (code, out) == (1, "")
    assert err == f"mathematical check failed: {reason}\n"


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
        bad = {**report["casewise"][2], "ok": False}  # 3^1
        casewise = report["casewise"][:2] + [bad]
        return {**report, "verified": False, "failures": [3],
                "inequality_failures": [bad], "casewise": casewise}

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
        lambda p: {**honest(p), "zero_range_ok": False, "valid": False},
    )
    code, out, _ = capture(capsys, ["nondecomp", "--p", "13", "--format", fmt])
    assert (code, out) == (1, NONDECOMP_FAILS[fmt])


SCAN_NEGATIVE = {
    "text": (
        "h=2: no negative coefficients through n_max=10 (truncation-limited evidence)\n"
        "h=3: first negative coefficient at exponent 128/24\n"
    ),
    "csv": (
        "h,order24,exponent_integral,first_negative_num24,checked_to\n"
        "2,3,False,,10\n3,8,False,128,10\n"
    ),
}


@pytest.mark.parametrize("fmt", sorted(SCAN_NEGATIVE))
def test_scan_negative_coefficient_renderings(capsys, monkeypatch, fmt):
    # no real scan meets a negative coefficient; the h = 3 entry is given one
    honest = analysis.conjecture_scan

    def negative(h_max, n_max):
        entries = honest(h_max, n_max)
        return entries[:1] + [{**entries[1], "first_negative_num24": 128}]

    monkeypatch.setattr(analysis, "conjecture_scan", negative)
    code, out, _ = capture(capsys, ["scan", "--h-max", "3", "--n-max", "10", "--format", fmt])
    assert (code, out) == (0, SCAN_NEGATIVE[fmt])


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, module, stage, size", [
    (["verify", "--n-max", "100"], lseries, "c_table", "n-max 100"),
    (["expand", "--h", "5", "--format", "json"], cli, "_render_json", "n-max 50"),
    (["nondecomp", "--p", "13"], etaprod, "expand", "p 13"),
])
def test_out_of_memory_exits_three(capsys, monkeypatch, argv, module, stage, size):
    # one stage raises as an allocation would; nothing is allocated at size
    monkeypatch.setattr(module, stage, _exhausted)
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"cycloeta {argv[0]}: error: out of memory ({size})\n"


@pytest.mark.parametrize("argv, size", [
    (["expand", "--h", "7", "--n-max", "100000000"], "n-max 100000000"),
    (["nondecomp", "--p", "100003"], "p 100003"),
])
def test_real_out_of_memory_exits_three(argv, size):
    # a fresh process whose address space is capped at 512 MB runs out for
    # real; the whole stderr is the one error line, with no traceback
    resource = pytest.importorskip("resource")
    cap = 512 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "cycloeta", *argv], input="", capture_output=True,
        text=True, env=_child_env(), preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"cycloeta {argv[0]}: error: out of memory ({size})\n"


def test_programming_errors_are_not_check_failures(capsys, monkeypatch):
    # only the package's own check failures exit 1; a ZeroDivisionError is a bug
    def bug(n_max, at=None):
        raise ZeroDivisionError("integer division or modulo by zero")

    monkeypatch.setattr(lseries, "c_table", bug)
    with pytest.raises(ZeroDivisionError):
        run(["coeffs", "--n-max", "10"])
    assert capsys.readouterr().err == ""

    # ZeroDivisionError shares ArithmeticError with the check failures; one
    # raised by the handler itself surfaces as itself too
    def handler(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_scan", handler)
    with pytest.raises(ZeroDivisionError):
        run(["scan"])
    assert capsys.readouterr() == ("", "")


def test_inexact_power_recurrence_exits_one(capsys, monkeypatch):
    # the real recurrence on a non-integral tail, (1 + q/2)^1, leaves a
    # remainder; E(q)^5 goes to the recurrence at every length
    calls = []

    def inexact(tail, e, n):
        calls.append(e)
        return qseries._sparse_power([(1, Fraction(1, 2))], 1, 3)

    monkeypatch.setattr(etaprod, "_sparse_power", inexact)
    code, out, err = capture(capsys, ["expand", "--spec", "1:5", "--n-max", "100"])
    assert (code, out, calls) == (1, "", [5])
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


@pytest.mark.skipif(tomllib is None, reason="tomllib is new in Python 3.11")
def test_scripts_table_matches_tomllib():
    # _scripts_table is the Python 3.10 reader; here tomllib is its oracle
    text = PYPROJECT.read_text(encoding="utf-8")
    assert _scripts_table(text) == tomllib.loads(text)["project"]["scripts"]


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


def test_readme_library_snippet_runs():
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})


def test_unproven_primality_is_usage_error():
    # (2^31 - 1)(2^61 - 1) > 3.3e24, past every proven Miller-Rabin base set;
    # trial division on it never finished, so a regression times out here
    proc = _run(
        [sys.executable, "-m", "cycloeta", "nondecomp", "--p", "4951760154835678088235319297"],
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cycloeta nondecomp: error:" in proc.stderr and "is_prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_never_imports_numpy():
    # past the packed-solve threshold, the expansion stays in pure Python
    code = (
        "import sys; from cycloeta.cli import run; "
        "code = run(['verify', '--n-max', '10050']); "
        "print(code, 'numpy' in sys.modules)"
    )
    proc = _run([sys.executable, "-c", code])
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_verify_reports_the_first_mismatch_of_word_tables(capsys, monkeypatch):
    # the two word tables compare in one pass; the walk names the first n
    # where they differ, with values up to the top of a word
    big = [0, 0, (1 << 63) - 1, 5]

    def table(values):
        return lambda n_max: lseries.CoeffTable("C", 3, values)

    monkeypatch.setattr(lseries, "c_table", table(big))
    monkeypatch.setattr(lseries, "c_table_from_expansion", table(list(big)))
    assert capture(capsys, ["verify", "--format", "json"])[0] == 0
    monkeypatch.setattr(lseries, "c_table_from_expansion",
                        table([0, 0, (1 << 63) - 1, 6]))
    code, out, _ = capture(capsys, ["verify", "--format", "json"])
    payload = json.loads(out)
    assert code == 1
    assert (payload["first_mismatch"], payload["identity_value"]) == (3, 5)
    monkeypatch.setattr(lseries, "c_table_from_expansion", table([0, 0, 7, 5]))
    payload = json.loads(capture(capsys, ["verify", "--format", "json"])[1])
    assert (payload["first_mismatch"], payload["identity_value"]) == (2, (1 << 63) - 1)


@pytest.mark.parametrize("command", ["coeffs", "positivity", "verify"])
def test_n_max_past_the_word_bound_is_usage_error(capsys, monkeypatch, command):
    # refused before any table is allocated: nothing is built at this size
    def refuse(*args):
        raise AssertionError("a table build started past the word bound")

    for name in ("sieve_multiplicative", "split_traces"):
        monkeypatch.setattr(lseries, name, refuse)
    monkeypatch.setattr(etaprod, "expand", refuse)
    n_max = lseries.WORD_N_MAX + 1
    with pytest.raises(SystemExit) as exc:
        run([command, "--n-max", str(n_max)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"cycloeta {command}: error: n-max {n_max} is past {lseries.WORD_N_MAX}, "
        "where the a, b and c tables outgrow 64-bit words"
    ]


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=8)
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=5), inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_PAYLOADS)
def test_render_json_matches_json_dumps(payload):
    assert cli._render_json(payload) == json.dumps(payload, indent=2) + "\n"


_ROW_INT = st.integers(-(2**70), 2**70)


@st.composite
def _row_payloads(draw):
    """A coeffs or expand payload of 1-7 rows: both sides of 3-row chunks."""
    width = draw(st.sampled_from([4, 2]))
    row = st.lists(_ROW_INT, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    if width == 4:
        return {"command": "coeffs", "n_max": len(rows), "rows": [tuple(r) for r in rows]}
    integral = draw(st.booleans())
    payload = {"command": "expand", "spec_terms": [[7, 7], [1, -1]], "h": 7, "n_max": 5,
               "order24": draw(_ROW_INT), "exponent_integral": integral, "weight": "3",
               "row_key": "n" if integral else "num24", "rows": rows}
    misprints = st.dictionaries(
        st.integers(2, 50), st.fixed_dictionaries({"tabulated": _ROW_INT, "computed": _ROW_INT}),
        max_size=2)
    if draw(st.booleans()):
        payload["known_discrepancies"] = draw(misprints)
    return payload


def _per_row_text(payload):
    """The text report as the per-row f-string loops wrote it."""
    if payload["command"] == "coeffs":
        lines = [f"n a b c (n <= {payload['n_max']})"]
        lines += [f"{n} {a} {b} {c}" for n, a, b, c in payload["rows"]]
        return "\n".join(lines + [""])
    spec = "*".join(f"eta({s}t)^{e}" for s, e in payload["spec_terms"])
    lines = [f"expansion of {spec} to n_max={payload['n_max']}"]
    if not payload["exponent_integral"]:
        lines.append(f"leading exponent {payload['order24']}/24 is fractional; "
                     "rows are exponents in units of 1/24")
    lines += [f"{payload['row_key']}={n}: {c}" for n, c in payload["rows"]]
    for n, d in payload.get("known_discrepancies", {}).items():
        lines.append(f"note: n={n} computed {d['computed']} but tabulated "
                     f"{d['tabulated']} in the published table (known misprint)")
    return "\n".join(lines + [""])


def _csv_writer_text(payload):
    """The CSV report as csv.writer.writerows wrote its rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    coeffs = payload["command"] == "coeffs"
    writer.writerow(["n", "a", "b", "c"] if coeffs else [payload["row_key"], "coefficient"])
    writer.writerows(payload["rows"])
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(_row_payloads())
def test_int_row_tables_match_the_general_renderers(payload):
    # three rows per template, so seven rows cross two chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ROW_CHUNK", 3)
        assert cli._render_json(payload) == json.dumps(payload, indent=2) + "\n"
        assert cli._render_text(payload) == _per_row_text(payload)
        assert cli._render_csv(payload) == _csv_writer_text(payload)


_TABLE_MODULES = ("cycloeta.lseries", "cycloeta.quadfield", "cycloeta.analysis")
# loaded only by the commands that run them, never at start-up
_OFF_START_UP = (
    "json", "csv", "array", "dataclasses", "inspect", "fractions", "decimal",
    *_TABLE_MODULES,
)


def test_cli_import_leaves_json_and_csv_unloaded():
    # json and csv load only in the renderers that need them, array only
    # where a table is built, dataclasses/inspect and fractions/decimal on
    # no start-up path, and the table modules only in the handlers that use
    # them; an `expand --spec` run never loads the table modules, and its
    # weight loads neither fractions nor decimal
    probe = (
        "import sys, cycloeta.cli; "
        f"print(sorted(set({_OFF_START_UP!r}) & set(sys.modules))); "
        "cycloeta.cli.run(['expand', '--spec', '4:3,1:-3,2:-3', '--n-max', '40']); "
        f"print(sorted(set({_TABLE_MODULES!r}) & set(sys.modules))); "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = _run([sys.executable, "-c", probe])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-2], lines[-1]) == ("[]", "[]", "[]")
    assert lines[1].startswith("expansion of eta(1t)^-3*eta(2t)^-3*eta(4t)^3")


def test_scan_loads_no_table_module():
    # a scan, uniqueness and nondecomp expand eta quotients and read no
    # table: lseries, quadfield and array stay unloaded
    for argv in (["scan", "--h-max", "4", "--n-max", "20"],
                 ["uniqueness", "--n-max", "100"], ["nondecomp", "--p", "13"]):
        probe = (
            "import sys, cycloeta.cli; "
            f"cycloeta.cli.run({argv!r}); "
            f"print(sorted(set({(*_TABLE_MODULES, 'array')!r}) & set(sys.modules)))"
        )
        proc = _run([sys.executable, "-c", probe])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['cycloeta.analysis']", argv


def test_perfbench_spans_install():
    # perfbench/spans.py patches names of every layer (_trace, spf_table,
    # coeff_table_from_series, ...); deleting or renaming one fails here
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
        "import spans\n"
        "spans.install(spans.Tracer())\n"
    )
    proc = _run([sys.executable, "-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr


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
        "names = ('etaprod.expand', 'qseries.dispatch', 'qseries.kronecker', 'qseries.solve')\n"
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


def test_perfbench_spans_wrap_the_family_side_analysis():
    # the family workload's scan, nondecomp and uniqueness spans wrap the
    # analysis checks by name; a rename must not silently drop them
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "from cycloeta import cli\n"
        "codes = [cli.run(argv) for argv in (['scan', '--h-max', '5', '--n-max', '100'],\n"
        "                                    ['nondecomp', '--p', '13'],\n"
        "                                    ['uniqueness', '--n-max', '100'])]\n"
        "assert codes == [0, 0, 0], codes\n"
        "names = ('analysis.scan', 'analysis.nondecomp', 'analysis.uniqueness')\n"
        "assert all(tracer.calls[name] for name in names), tracer.calls\n"
    )
    proc = _run([sys.executable, "-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
