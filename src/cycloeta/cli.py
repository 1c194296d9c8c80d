"""Command line interface.

Commands: expand, coeffs, verify, positivity, nondecomp, uniqueness, scan.
Formats: text (default), json, csv.  Output for a fixed command line is
byte-identical across runs; reports carry no timestamps.

Exit codes: 0 success / check verified, 1 a mathematical check failed,
2 usage error.  uniqueness exits 1 both when c(1) != 0 and when the search
ends without a witness ("hypotheses unverified"); the payload's c1_zero
and witness_indices tell the two apart.  CYCLOETA_N_MAX sets the default
truncation when --n-max is not given.
"""

import argparse
import os
import sys
from dataclasses import fields
from itertools import islice
from operator import itemgetter

from . import analysis, etaprod, lseries, reference
from .qseries import InexactDivisionError
from .quadfield import InconsistencyError, SplittingError

ENV_N_MAX = "CYCLOETA_N_MAX"

_DEFAULT_N_MAX = {"expand": 50, "coeffs": 50, "verify": 2000, "positivity": 2000,
                  "uniqueness": 300, "scan": 500}

# the package's own check failures (exit 1); any other exception is a bug
_CHECK_FAILURES = (
    lseries.IdentityViolation, InconsistencyError, SplittingError, InexactDivisionError
)


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
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
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

    sp = sub.add_parser("verify", help="c = (a-b)/8 against the direct q-expansion")
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


# ---------------------------------------------------------------------------
# option resolution: a ValueError here is a usage error (exit 2)

def _resolve_n_max(args):
    if getattr(args, "n_max", None) is not None:
        n_max = args.n_max
    else:
        env = os.environ.get(ENV_N_MAX)
        if env is not None:
            try:
                n_max = int(env)
            except ValueError:
                raise ValueError(f"${ENV_N_MAX}={env!r} is not an integer") from None
        else:
            n_max = _DEFAULT_N_MAX[args.command]
    if n_max < 1:
        raise ValueError("n-max must be >= 1")
    return n_max


def _resolve_spec(args):
    """(spec, h) from --h, --spec or --corpus; the h = 7 quotient by default."""
    given = [x for x in (args.h, args.spec, args.corpus) if x is not None]
    if len(given) > 1:
        raise ValueError("give at most one of --h, --spec, --corpus")
    if args.corpus is not None:
        return etaprod.CORPUS[args.corpus], None
    if args.spec is not None:
        return _parse_spec_string(args.spec), None
    h = 7 if args.h is None else args.h
    if h < 2:
        raise ValueError("--h must be >= 2")
    return etaprod.cyclotomic_spec(h), h


# ---------------------------------------------------------------------------
# command handlers: _cmd_<command>(args) returns (payload, exit_code).  A
# report dataclass becomes its JSON object through vars(): its fields are
# declared in the payload's key order.

def _expand_spec(args):
    """The series to n_max and the payload head shared by expand and uniqueness."""
    spec, h = _resolve_spec(args)
    n_max = _resolve_n_max(args)
    terms = [list(t) for t in spec.terms]
    head = {"command": args.command, "spec_terms": terms, "h": h, "n_max": n_max}
    return etaprod.expand(spec, n_max), spec, head


def _cmd_expand(args):
    series, spec, payload = _expand_spec(args)
    integral = series.order24 % 24 == 0
    first, step = (series.order24 // 24, 1) if integral else (series.order24, 24)
    rows = [[first + step * i, c] for i, c in enumerate(series.coeffs)]
    payload.update(
        order24=series.order24,
        exponent_integral=integral,
        weight=str(spec.weight()),
        row_key="n" if integral else "num24",
        rows=rows,
    )
    if payload["h"] == 7:
        # the table is merged under the rows, so an uncovered n is no discrepancy
        computed = {**reference.TABULATED_C50, **dict(rows)}
        payload["known_discrepancies"] = reference.tabulation_discrepancies(computed)
    return payload, 0


def _cmd_coeffs(args):
    n_max = _resolve_n_max(args)
    c, av, bv = lseries.c_table(n_max, at=range(1, n_max + 1))
    rows = list(map(list, zip(range(1, n_max + 1), av, bv, islice(c.values, 1, None))))
    return {"command": "coeffs", "n_max": n_max, "rows": rows}, 0


def _cmd_verify(args):
    n_max = _resolve_n_max(args)
    identity = lseries.c_table(n_max)
    expansion = lseries.c_table_from_expansion(n_max)
    first_mismatch = next(
        (n for n in range(1, n_max + 1) if identity[n] != expansion[n]), None
    )
    payload = {
        "command": "verify",
        "n_max": n_max,
        "identity_holds": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
    if first_mismatch is not None:
        payload["identity_value"] = identity[first_mismatch]
        payload["expansion_value"] = expansion[first_mismatch]
    return payload, 0 if first_mismatch is None else 1


def _cmd_positivity(args):
    report = analysis.check_positivity(_resolve_n_max(args))
    payload = {
        "command": "positivity",
        "n_max": report.n_max,
        "verified": report.verified,
        "failures": report.failures,
        "inequality_failures": list(map(vars, report.inequality_failures)),
        "casewise": list(map(vars, report.casewise)),
    }
    return payload, 0 if report.verified else 1


def _cmd_nondecomp(args):
    witness = analysis.nondecomp_witness(args.p)
    payload = {"command": "nondecomp", **vars(witness), "valid": witness.valid}
    return payload, 0 if witness.valid else 1


def _cmd_uniqueness(args):
    series, _, payload = _expand_spec(args)
    report = analysis.uniqueness_hypotheses(
        lseries.expansion_values(series, payload["n_max"])
    )
    witness = report.witness
    payload.update(
        c1_zero=report.c1_zero,
        witness_indices=list(witness.indices) if witness else None,
        witness_coeffs=list(witness.coeffs) if witness else None,
        searched_to=report.searched_to,
        verified=report.verified,
    )
    return payload, 0 if report.verified else 1


def _cmd_scan(args):
    if args.h_max < 2:
        raise ValueError("--h-max must be >= 2")
    n_max = _resolve_n_max(args)
    entries = list(map(vars, analysis.conjecture_scan(args.h_max, n_max)))
    return {"command": "scan", "h_max": args.h_max, "n_max": n_max, "entries": entries}, 0


# ---------------------------------------------------------------------------
# payload readers: rebuild report objects from parsed JSON output, so the
# machine-readable format is checkable against the reports it came from

def _from_dict(cls, d):
    """The report dataclass `cls` whose fields are the same-named keys of d."""
    return cls(**{f.name: d[f.name] for f in fields(cls)})


def margin_from_dict(d):
    return _from_dict(analysis.CaseMargin, d)


def spec_from_payload(payload):
    return etaprod.EtaQuotientSpec(tuple(tuple(t) for t in payload["spec_terms"]))


def positivity_from_payload(payload):
    margins = {
        key: [margin_from_dict(m) for m in payload[key]]
        for key in ("casewise", "inequality_failures")
    }
    return _from_dict(analysis.PositivityReport, {**payload, **margins})


def nondecomp_from_payload(payload):
    return _from_dict(analysis.NondecompWitness, payload)


def uniqueness_from_payload(payload):
    witness = None
    if payload["witness_indices"] is not None:
        witness = analysis.UniquenessWitness(
            tuple(payload["witness_indices"]), tuple(payload["witness_coeffs"])
        )
    return _from_dict(analysis.UniquenessReport, {**payload, "witness": witness})


def scan_from_payload(payload):
    return [_from_dict(analysis.ScanEntry, e) for e in payload["entries"]]


# ---------------------------------------------------------------------------
# rendering: _render_<format>(payload) returns the report text

# record-style commands: the payload key holding the records (None: the
# payload itself is the one record), and the CSV columns
_CSV_RECORDS = {
    "verify": (None, ("n_max", "identity_holds", "first_mismatch")),
    "positivity": ("casewise", ("p", "k", "case", "a", "abs_b", "ok")),
    "nondecomp": (None, ("p", "bound", "m", "zero_range_ok", "nonzero_range_ok",
                         "valid")),
    "scan": ("entries", ("h", "order24", "exponent_integral", "first_negative_num24",
                         "checked_to")),
}


def _render_json(payload):
    import json

    return json.dumps(payload, indent=2) + "\n"


def _render_csv(payload):
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cmd = payload["command"]
    if cmd in _CSV_RECORDS:
        key, columns = _CSV_RECORDS[cmd]
        writer.writerow(columns)
        writer.writerows(map(itemgetter(*columns), payload[key] if key else [payload]))
    elif cmd == "uniqueness":
        writer.writerow(["c1_zero", "indices", "coeffs", "searched_to", "verified"])
        idx, cfs = (payload[k] or () for k in ("witness_indices", "witness_coeffs"))
        row = [payload["c1_zero"], " ".join(map(str, idx)), " ".join(map(str, cfs))]
        writer.writerow(row + [payload["searched_to"], payload["verified"]])
    elif cmd == "coeffs":
        writer.writerow(["n", "a", "b", "c"])
        writer.writerows(payload["rows"])
    else:
        writer.writerow([payload["row_key"], "coefficient"])
        writer.writerows(payload["rows"])
    return buf.getvalue()


def _render_text(payload):
    cmd = payload["command"]
    lines = []
    if cmd == "expand":
        key = payload["row_key"]
        spec = "*".join(f"eta({s}t)^{e}" for s, e in payload["spec_terms"])
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
            lines.append(f"identity c=(a-b)/8 holds on [1,{payload['n_max']}]")
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

    # handlers and renderers are looked up at call time, so a wrapper bound
    # over the module global after import is the one that runs
    try:
        payload, code = globals()["_cmd_" + args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
    except _CHECK_FAILURES as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    text = globals()["_render_" + args.format](payload)

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
