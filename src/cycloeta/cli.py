"""Command line interface.

Commands: expand, coeffs, verify, positivity, nondecomp, uniqueness, scan.
Formats: text (default), json, csv.  Output for a fixed command line is
byte-identical across runs; reports carry no timestamps.

Exit codes: 0 success / check verified, 1 a mathematical check failed,
2 usage error.  CYCLOETA_N_MAX sets the default truncation when --n-max
is not given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import analysis, etaprod, lseries
from .reference import TABULATED_C50

ENV_N_MAX = "CYCLOETA_N_MAX"

_DEFAULT_N_MAX = {
    "expand": 50,
    "coeffs": 50,
    "verify": 2000,
    "positivity": 2000,
    "uniqueness": 300,
    "scan": 500,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    fmt: str
    out_path: str | None
    n_max: int | None
    h: int | None = None
    p: int | None = None
    h_max: int | None = None
    spec: etaprod.EtaQuotientSpec | None = None


def _parse_spec_string(text):
    terms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            scale, exp = part.split(":")
            terms.append((int(scale), int(exp)))
        except ValueError:
            raise ValueError(f"bad spec term {part!r}; expected scale:exponent")
    if not terms:
        raise ValueError("empty spec")
    return etaprod.EtaQuotientSpec(tuple(terms))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycloeta",
        description="Exact expansions and L-series checks for cyclotomic "
        "eta quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_n_max=True):
        sp.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        sp.add_argument("--output", metavar="PATH", default=None)
        if with_n_max:
            sp.add_argument(
                "--n-max",
                type=int,
                default=None,
                help=f"truncation degree (default from ${ENV_N_MAX} or "
                "per-command default)",
            )

    sp = sub.add_parser("expand", help="q-expansion of an eta quotient")
    sp.add_argument("--h", type=int, default=None, help="cyclotomic level")
    sp.add_argument("--spec", default=None, help="explicit scale:exp,... map")
    sp.add_argument("--corpus", default=None, choices=sorted(etaprod.CORPUS))
    add_common(sp)

    sp = sub.add_parser("coeffs", help="a(n), b(n), c(n) tables")
    add_common(sp)

    sp = sub.add_parser(
        "verify", help="c = (a-b)/8 against the direct q-expansion"
    )
    add_common(sp)

    sp = sub.add_parser("positivity", help="c(n) > 0 and case inequalities")
    add_common(sp)

    sp = sub.add_parser("nondecomp", help="non-decomposability witness")
    sp.add_argument("--p", type=int, required=True, help="prime level >= 11")
    add_common(sp, with_n_max=False)

    sp = sub.add_parser("uniqueness", help="decomposition uniqueness hypotheses")
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--spec", default=None)
    sp.add_argument("--corpus", default=None, choices=sorted(etaprod.CORPUS))
    add_common(sp)

    sp = sub.add_parser("scan", help="non-negativity scan over levels")
    sp.add_argument("--h-max", type=int, default=7)
    add_common(sp)

    return parser


def _resolve_n_max(args, parser):
    if getattr(args, "n_max", None) is not None:
        n_max = args.n_max
    else:
        env = os.environ.get(ENV_N_MAX)
        if env is not None:
            try:
                n_max = int(env)
            except ValueError:
                parser.error(f"${ENV_N_MAX}={env!r} is not an integer")
        else:
            n_max = _DEFAULT_N_MAX[args.command]
    if n_max < 1:
        parser.error("n-max must be >= 1")
    return n_max


def _resolve_spec(args, parser, default_h=None):
    given = [x for x in (args.h, args.spec, args.corpus) if x is not None]
    if len(given) > 1:
        parser.error("give at most one of --h, --spec, --corpus")
    if args.h is not None:
        if args.h < 2:
            parser.error("--h must be >= 2")
        return etaprod.cyclotomic_spec(args.h), args.h
    if args.corpus is not None:
        return etaprod.CORPUS[args.corpus], None
    if args.spec is not None:
        try:
            return _parse_spec_string(args.spec), None
        except ValueError as exc:
            parser.error(str(exc))
    if default_h is not None:
        return etaprod.cyclotomic_spec(default_h), default_h
    parser.error("one of --h, --spec, --corpus is required")


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)

def _cmd_expand(spec, h, n_max):
    series = etaprod.expand(spec, n_max)
    integral = series.order24 % 24 == 0
    rows = []
    for i, c in enumerate(series.coeffs):
        num24 = series.order24 + 24 * i
        rows.append([num24 // 24 if integral else num24, c])
    payload = {
        "command": "expand",
        "spec_terms": [list(t) for t in spec.terms],
        "h": h,
        "n_max": n_max,
        "order24": series.order24,
        "exponent_integral": integral,
        "weight": str(spec.weight()),
        "row_key": "n" if integral else "num24",
        "rows": rows,
    }
    if h == 7 and integral:
        computed = {r[0]: r[1] for r in rows}
        disc = {
            str(n): {"tabulated": t, "computed": computed[n]}
            for n, t in TABULATED_C50.items()
            if n in computed and computed[n] != t
        }
        payload["known_discrepancies"] = disc
    return payload, 0


def _cmd_coeffs(n_max):
    av, bv, cv = (t.values for t in lseries.identity_tables(n_max))
    rows = [[n, av[n], bv[n], cv[n]] for n in range(1, n_max + 1)]
    return {"command": "coeffs", "n_max": n_max, "rows": rows}, 0


def _cmd_verify(n_max):
    identity = lseries.c_table(n_max)
    expansion = lseries.c_table_from_expansion(n_max)
    first_mismatch = None
    for n in range(1, n_max + 1):
        if identity[n] != expansion[n]:
            first_mismatch = n
            break
    holds = first_mismatch is None
    payload = {
        "command": "verify",
        "n_max": n_max,
        "identity_holds": holds,
        "first_mismatch": first_mismatch,
    }
    if first_mismatch is not None:
        payload["identity_value"] = identity[first_mismatch]
        payload["expansion_value"] = expansion[first_mismatch]
    return payload, 0 if holds else 1


def _cmd_positivity(n_max):
    report = analysis.check_positivity(n_max)
    payload = {
        "command": "positivity",
        "n_max": report.n_max,
        "verified": report.verified,
        "failures": report.failures,
        "inequality_failures": [_margin_dict(m) for m in report.inequality_failures],
        "casewise": [_margin_dict(m) for m in report.casewise],
    }
    return payload, 0 if report.verified else 1


def _margin_dict(m):
    return {
        "p": m.p,
        "k": m.k,
        "case": m.case,
        "a": m.a,
        "abs_b": m.abs_b,
        "ok": m.ok,
    }


def _cmd_nondecomp(p):
    witness = analysis.nondecomp_witness(p)
    payload = {
        "command": "nondecomp",
        "p": witness.p,
        "bound": witness.bound,
        "m": witness.m,
        "zero_range_ok": witness.zero_range_ok,
        "nonzero_range_ok": witness.nonzero_range_ok,
        "valid": witness.valid,
    }
    return payload, 0 if witness.valid else 1


def _cmd_uniqueness(spec, h, n_max):
    series = etaprod.expand(spec, n_max)
    values = lseries.expansion_values(series, n_max)
    report = analysis.uniqueness_hypotheses(values)
    payload = {
        "command": "uniqueness",
        "spec_terms": [list(t) for t in spec.terms],
        "h": h,
        "n_max": n_max,
        "c1_zero": report.c1_zero,
        "witness_indices": list(report.witness.indices) if report.witness else None,
        "witness_coeffs": list(report.witness.coeffs) if report.witness else None,
        "searched_to": report.searched_to,
        "verified": report.verified,
    }
    return payload, 0 if report.verified else 1


def _cmd_scan(h_max, n_max):
    entries = analysis.conjecture_scan(h_max, n_max)
    payload = {
        "command": "scan",
        "h_max": h_max,
        "n_max": n_max,
        "entries": [
            {
                "h": e.h,
                "checked_to": e.checked_to,
                "order24": e.order24,
                "exponent_integral": e.exponent_integral,
                "first_negative_num24": e.first_negative_num24,
                "truncation_limited": e.truncation_limited,
            }
            for e in entries
        ],
    }
    return payload, 0


# ---------------------------------------------------------------------------
# payload readers: rebuild report objects from parsed JSON output, so the
# machine-readable format is checkable against the reports it came from

def margin_from_dict(d):
    return analysis.CaseMargin(d["p"], d["k"], d["case"], d["a"], d["abs_b"], d["ok"])


def spec_from_payload(payload):
    return etaprod.EtaQuotientSpec(tuple(tuple(t) for t in payload["spec_terms"]))


def positivity_from_payload(payload):
    return analysis.PositivityReport(
        payload["n_max"],
        list(payload["failures"]),
        [margin_from_dict(m) for m in payload["casewise"]],
        [margin_from_dict(m) for m in payload["inequality_failures"]],
    )


def nondecomp_from_payload(payload):
    return analysis.NondecompWitness(
        payload["p"],
        payload["bound"],
        payload["m"],
        payload["zero_range_ok"],
        payload["nonzero_range_ok"],
    )


def uniqueness_from_payload(payload):
    witness = None
    if payload["witness_indices"] is not None:
        witness = analysis.UniquenessWitness(
            tuple(payload["witness_indices"]), tuple(payload["witness_coeffs"])
        )
    return analysis.UniquenessReport(
        payload["c1_zero"], witness, payload["searched_to"]
    )


def scan_from_payload(payload):
    return [
        analysis.ScanEntry(
            h=e["h"],
            checked_to=e["checked_to"],
            order24=e["order24"],
            exponent_integral=e["exponent_integral"],
            first_negative_num24=e["first_negative_num24"],
            truncation_limited=e["truncation_limited"],
        )
        for e in payload["entries"]
    ]


# ---------------------------------------------------------------------------
# rendering

def _render_json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = payload["command"]
    if cmd == "expand":
        writer.writerow([payload["row_key"], "coefficient"])
        writer.writerows(payload["rows"])
    elif cmd == "coeffs":
        writer.writerow(["n", "a", "b", "c"])
        writer.writerows(payload["rows"])
    elif cmd == "verify":
        writer.writerow(["n_max", "identity_holds", "first_mismatch"])
        writer.writerow(
            [payload["n_max"], payload["identity_holds"], payload["first_mismatch"]]
        )
    elif cmd == "positivity":
        writer.writerow(["p", "k", "case", "a", "abs_b", "ok"])
        for m in payload["casewise"]:
            writer.writerow([m["p"], m["k"], m["case"], m["a"], m["abs_b"], m["ok"]])
    elif cmd == "nondecomp":
        writer.writerow(["p", "bound", "m", "zero_range_ok", "nonzero_range_ok", "valid"])
        writer.writerow(
            [
                payload["p"],
                payload["bound"],
                payload["m"],
                payload["zero_range_ok"],
                payload["nonzero_range_ok"],
                payload["valid"],
            ]
        )
    elif cmd == "uniqueness":
        writer.writerow(["c1_zero", "indices", "coeffs", "searched_to", "verified"])
        idx = payload["witness_indices"]
        cfs = payload["witness_coeffs"]
        writer.writerow(
            [
                payload["c1_zero"],
                " ".join(map(str, idx)) if idx else "",
                " ".join(map(str, cfs)) if cfs else "",
                payload["searched_to"],
                payload["verified"],
            ]
        )
    elif cmd == "scan":
        writer.writerow(
            ["h", "order24", "exponent_integral", "first_negative_num24", "checked_to"]
        )
        for e in payload["entries"]:
            writer.writerow(
                [
                    e["h"],
                    e["order24"],
                    e["exponent_integral"],
                    e["first_negative_num24"],
                    e["checked_to"],
                ]
            )
    return buf.getvalue()


def _render_text(payload):
    cmd = payload["command"]
    lines = []
    if cmd == "expand":
        key = payload["row_key"]
        spec = "*".join(
            f"eta({s}t)^{e}" for s, e in payload["spec_terms"]
        )
        lines.append(f"expansion of {spec} to n_max={payload['n_max']}")
        if not payload["exponent_integral"]:
            lines.append(
                f"leading exponent {payload['order24']}/24 is fractional; "
                f"rows are exponents in units of 1/24"
            )
        for n, c in payload["rows"]:
            lines.append(f"{key}={n}: {c}")
        for n, d in payload.get("known_discrepancies", {}).items():
            lines.append(
                f"note: n={n} computed {d['computed']} but tabulated "
                f"{d['tabulated']} in the published table (known misprint)"
            )
    elif cmd == "coeffs":
        lines.append(f"n a b c (n <= {payload['n_max']})")
        for n, a, b, c in payload["rows"]:
            lines.append(f"{n} {a} {b} {c}")
    elif cmd == "verify":
        if payload["identity_holds"]:
            lines.append(
                f"identity c=(a-b)/8 holds on [1,{payload['n_max']}]"
            )
        else:
            n = payload["first_mismatch"]
            lines.append(
                f"identity FAILS at n={n}: decomposition gives "
                f"{payload['identity_value']}, expansion gives "
                f"{payload['expansion_value']}"
            )
    elif cmd == "positivity":
        state = "verified" if payload["verified"] else "FAILED"
        lines.append(
            f"positivity {state} for 2 <= n <= {payload['n_max']} "
            f"({len(payload['casewise'])} prime-power margins checked)"
        )
        for n in payload["failures"]:
            lines.append(f"c({n}) <= 0")
        for m in payload["inequality_failures"]:
            lines.append(f"case inequality fails at {m['p']}^{m['k']}")
    elif cmd == "nondecomp":
        w = payload
        state = "valid" if w["valid"] else "INVALID"
        lines.append(
            f"p={w['p']}: witness {state} (bound={w['bound']}, m={w['m']}, "
            f"zero_range_ok={w['zero_range_ok']}, "
            f"nonzero_range_ok={w['nonzero_range_ok']})"
        )
    elif cmd == "uniqueness":
        if payload["verified"]:
            lines.append(
                "hypotheses verified: c(1)=0 and witness indices "
                + " ".join(map(str, payload["witness_indices"]))
                + " with coefficients "
                + " ".join(map(str, payload["witness_coeffs"]))
            )
        elif not payload["c1_zero"]:
            lines.append("hypotheses FAIL: c(1) != 0")
        else:
            lines.append(
                f"hypotheses unverified: no five pairwise-coprime nonzero "
                f"indices up to {payload['searched_to']}"
            )
    elif cmd == "scan":
        for e in payload["entries"]:
            if e["first_negative_num24"] is None:
                verdict = (
                    f"no negative coefficients through n_max={e['checked_to']} "
                    f"(truncation-limited evidence)"
                )
            else:
                verdict = (
                    f"first negative coefficient at exponent "
                    f"{e['first_negative_num24']}/24"
                )
            lines.append(f"h={e['h']}: {verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "expand":
            spec, h = _resolve_spec(args, parser, default_h=7)
            payload, code = _cmd_expand(spec, h, _resolve_n_max(args, parser))
        elif args.command == "coeffs":
            payload, code = _cmd_coeffs(_resolve_n_max(args, parser))
        elif args.command == "verify":
            payload, code = _cmd_verify(_resolve_n_max(args, parser))
        elif args.command == "positivity":
            payload, code = _cmd_positivity(_resolve_n_max(args, parser))
        elif args.command == "nondecomp":
            payload, code = _cmd_nondecomp(args.p)
        elif args.command == "uniqueness":
            spec, h = _resolve_spec(args, parser, default_h=7)
            payload, code = _cmd_uniqueness(spec, h, _resolve_n_max(args, parser))
        else:
            if args.h_max < 2:
                parser.error("--h-max must be >= 2")
            payload, code = _cmd_scan(args.h_max, _resolve_n_max(args, parser))
    except ValueError as exc:
        parser.error(str(exc))
    except ArithmeticError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        text = _render_json(payload)
    elif args.format == "csv":
        text = _render_csv(payload)
    else:
        text = _render_text(payload)

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(
                f"cycloeta: error: cannot write {args.output}: {exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
