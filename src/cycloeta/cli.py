"""Command line interface.

Commands: expand, coeffs, verify, positivity, nondecomp, uniqueness, scan.
Formats: text (default), json, csv.  Output for a fixed command line is
byte-identical across runs; reports carry no timestamps.

Exit codes: 0 success / check verified, 1 a mathematical check failed,
2 usage error or an unwritable --output or stdout (one stderr line), 3 out
of memory (one stderr line naming the n-max, or p for nondecomp).
uniqueness exits 1 both when c(1) != 0 and when the search ends without a
witness ("hypotheses unverified"); the payload's c1_zero and
witness_indices tell the two apart.  Without --n-max, CYCLOETA_N_MAX
sets the truncation, else the command's _COMMANDS default.
"""

import argparse
import os
import sys
from itertools import chain, islice
from operator import itemgetter

# the parser needs etaprod.CORPUS; every other cycloeta module is imported
# by the handler that runs it, so a launch loads only what its command runs
from . import etaprod
from .arith import CheckFailure

ENV_N_MAX = "CYCLOETA_N_MAX"

# each command's help line, its default --n-max (None: it takes no --n-max)
# and the payload key whose falsity makes its exit code 1 (None: it checks
# nothing)
_COMMANDS = {
    "expand": ("q-expansion of an eta quotient", 50, None),
    "coeffs": ("a(n), b(n), c(n) tables", 50, None),
    "verify": ("c = (a-b)/8 against the direct q-expansion", 2000, "identity_holds"),
    "positivity": ("c(n) > 0 and case inequalities", 2000, "verified"),
    "nondecomp": ("non-decomposability witness", None, "valid"),
    "uniqueness": ("decomposition uniqueness hypotheses", 300, "verified"),
    "scan": ("non-negativity scan over levels", 500, None),
}


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
    for name, (summary, n_max, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if name in ("expand", "uniqueness"):
            sp.add_argument("--h", type=int, default=None, help="cyclotomic level")
            sp.add_argument("--spec", default=None, help="explicit scale:exp,... map")
            sp.add_argument("--corpus", default=None, choices=sorted(etaprod.CORPUS))
        elif name == "nondecomp":
            sp.add_argument("--p", type=int, required=True, help="prime level >= 11")
        elif name == "scan":
            sp.add_argument("--h-max", type=int, default=7)
        # a handler's usage error is reported by its own command's parser
        sp.set_defaults(command_parser=sp)
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--output", metavar="PATH", default=None)
        if n_max is not None:
            sp.add_argument("--n-max", type=int, default=None,
                            help=f"truncation degree (default ${ENV_N_MAX}, else {n_max})")
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
            n_max = _COMMANDS[args.command][1]
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
# command handlers: _cmd_<command>(args) returns the payload; an analysis
# check's report dict is the payload's tail, keys in payload order

def _spec_head(args):
    """The spec and the payload head shared by expand and uniqueness."""
    spec, h = _resolve_spec(args)
    n_max = _resolve_n_max(args)
    terms = [list(t) for t in spec.terms]
    return spec, {"command": args.command, "spec_terms": terms, "h": h, "n_max": n_max}


def _cmd_expand(args):
    spec, payload = _spec_head(args)
    n_max, o24 = payload["n_max"], spec.order24()
    # expand would return the leading term alone, past n_max; this command
    # refuses such a window instead
    if 24 * n_max < o24:
        raise ValueError(f"n_max={n_max} is below the leading exponent {o24}/24")
    series = etaprod.expand(spec, n_max)
    integral = series.order24 % 24 == 0
    first, step = (series.order24 // 24, 1) if integral else (series.order24, 24)
    rows = [[first + step * i, c] for i, c in enumerate(series.coeffs)]
    payload.update(
        order24=series.order24,
        exponent_integral=integral,
        weight=spec.weight(),
        row_key="n" if integral else "num24",
        rows=rows,
    )
    if payload["h"] == 7:
        from . import reference

        # the table is merged under the rows, so an uncovered n is no discrepancy
        computed = {**reference.TABULATED_C50, **dict(rows)}
        payload["known_discrepancies"] = reference.tabulation_discrepancies(computed)
    return payload


def _cmd_coeffs(args):
    from . import lseries

    n_max = _resolve_n_max(args)
    # a and b are one slice copy each, not a gather per index (about 30 ms
    # at 1e5); the renderer makes the row tuples a chunk at a time, as a
    # list of all 10^5 of them held about 20 MB
    c, av, bv = lseries.c_table(n_max, at=slice(1, None))
    rows = zip(range(1, n_max + 1), av, bv, islice(c.values, 1, None))
    return {"command": "coeffs", "n_max": n_max, "rows": rows}


def _cmd_verify(args):
    from . import lseries

    n_max = _resolve_n_max(args)
    # both tables hold 64-bit words, which compare in one C-level pass; the
    # expansion is built first, so the identity table is not held through
    # the expansion's peak (1.2 MB less at 1e5)
    expansion = lseries.c_table_from_expansion(n_max)
    identity = lseries.c_table(n_max)
    first_mismatch = None
    if identity != expansion:
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
    return payload


def _cmd_positivity(args):
    from . import analysis

    return {"command": "positivity", **analysis.check_positivity(_resolve_n_max(args))}


def _cmd_nondecomp(args):
    from . import analysis

    return {"command": "nondecomp", **analysis.nondecomp_witness(args.p)}


def _cmd_uniqueness(args):
    from . import analysis

    spec, payload = _spec_head(args)
    n_max = payload["n_max"]
    values = etaprod.expansion_values(etaprod.expand(spec, n_max), n_max)
    payload.update(analysis.uniqueness_hypotheses(values))
    return payload


def _cmd_scan(args):
    from . import analysis

    if args.h_max < 2:
        raise ValueError("--h-max must be >= 2")
    n_max = _resolve_n_max(args)
    entries = analysis.conjecture_scan(args.h_max, n_max)
    return {"command": "scan", "h_max": args.h_max, "n_max": n_max, "entries": entries}


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


# the commands whose rows are ints by construction, and their row widths
_ROW_WIDTH = {"coeffs": 4, "expand": 2}
# rows per % template: one template for all 10^5 coeffs rows read 0.8 MB
# more peak RSS on the JSON launch
_ROW_CHUNK = 2048


def _int_rows(rows, row, sep):
    """Per chunk of `rows`, one string: the `row` template of each, joined by `sep`."""
    rows = iter(rows)
    while part := list(islice(rows, _ROW_CHUNK)):
        # the values stay bound until the next chunk's exist: freed at once,
        # they left the chunks a JSON join holds among about 3.5 MB of free
        # heap at 10^5 coeffs rows (0.6 MB bound), whenever glibc's mmap
        # threshold put those chunks on the heap
        values = tuple(chain.from_iterable(part))
        yield sep.join([row] * len(part)) % values


def _render_json(payload):
    import io
    import json

    if isinstance(payload, dict) and payload.get("command") in _ROW_WIDTH:
        # json.dump makes an encoder chunk per number, key and indent; the
        # rows (never empty) are %-formatted instead, a chunk at a time, and
        # the head up to its marker, the chunks and the rest of the head are
        # joined once, so no string of the rows alone is ever made
        width = _ROW_WIDTH[payload["command"]]
        row = "    [\n" + ",\n".join(["      %d"] * width) + "\n    ]"
        head = json.dumps({**payload, "rows": "\0rows"}, indent=2)
        pre, _, post = head.partition('"\\u0000rows"')
        chunks = _int_rows(payload["rows"], row, ",\n")
        pieces = [pre, "[\n", next(chunks)]
        for chunk in chunks:
            pieces += (",\n", chunk)
        pieces += ("\n  ]", post, "\n")
        return "".join(pieces)
    buf = io.StringIO()
    # positivity's lazy margins are written as the list they stand for
    json.dump(payload, buf, indent=2, default=list)
    buf.write("\n")
    return buf.getvalue()


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
    else:
        writer.writerow(["n", "a", "b", "c"] if cmd == "coeffs"
                        else [payload["row_key"], "coefficient"])
        row = ",".join(["%d"] * _ROW_WIDTH[cmd]) + "\n"
        buf.writelines(_int_rows(payload["rows"], row, ""))
    return buf.getvalue()


def _render_text(payload):
    cmd = payload["command"]
    lines = []
    if cmd == "expand":
        spec = "*".join(f"eta({s}t)^{e}" for s, e in payload["spec_terms"])
        lines.append(f"expansion of {spec} to n_max={payload['n_max']}")
        if not payload["exponent_integral"]:
            lines.append(f"leading exponent {payload['order24']}/24 is fractional; "
                         "rows are exponents in units of 1/24")
        lines.extend(_int_rows(payload["rows"], payload["row_key"] + "=%d: %d", "\n"))
        for n, d in payload.get("known_discrepancies", {}).items():
            lines.append(f"note: n={n} computed {d['computed']} but tabulated "
                         f"{d['tabulated']} in the published table (known misprint)")
    elif cmd == "coeffs":
        lines.append(f"n a b c (n <= {payload['n_max']})")
        lines.extend(_int_rows(payload["rows"], "%d %d %d %d", "\n"))
    elif cmd == "verify":
        if payload["identity_holds"]:
            lines.append(f"identity c=(a-b)/8 holds on [1,{payload['n_max']}]")
        else:
            lines.append(f"identity FAILS at n={payload['first_mismatch']}: decomposition "
                         f"gives {payload['identity_value']}, expansion gives "
                         f"{payload['expansion_value']}")
    elif cmd == "positivity":
        state = "verified" if payload["verified"] else "FAILED"
        lines.append(f"positivity {state} for 2 <= n <= {payload['n_max']} "
                     f"({len(payload['casewise'])} prime-power margins checked)")
        lines.extend(f"c({n}) <= 0" for n in payload["failures"])
        lines.extend(f"case inequality fails at {m['p']}^{m['k']}"
                     for m in payload["inequality_failures"])
    elif cmd == "nondecomp":
        w = payload
        state = "valid" if w["valid"] else "INVALID"
        lines.append(f"p={w['p']}: witness {state} (bound={w['bound']}, m={w['m']}, "
                     f"zero_range_ok={w['zero_range_ok']}, "
                     f"nonzero_range_ok={w['nonzero_range_ok']})")
    elif cmd == "uniqueness":
        if payload["verified"]:
            lines.append("hypotheses verified: c(1)=0 and witness indices "
                         + " ".join(map(str, payload["witness_indices"]))
                         + " with coefficients "
                         + " ".join(map(str, payload["witness_coeffs"])))
        elif not payload["c1_zero"]:
            lines.append("hypotheses FAIL: c(1) != 0")
        else:
            lines.append("hypotheses unverified: no five pairwise-coprime nonzero "
                         f"indices up to {payload['searched_to']}")
    elif cmd == "scan":
        for e in payload["entries"]:
            neg = e["first_negative_num24"]
            verdict = (f"no negative coefficients through n_max={e['checked_to']} "
                       "(truncation-limited evidence)" if neg is None
                       else f"first negative coefficient at exponent {neg}/24")
            lines.append(f"h={e['h']}: {verdict}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------

# characters per write: a stream encodes what it is given, so a report
# written whole would exist a second time, encoded (6.9 MB for coeffs 1e5
# JSON); a slice and its encoded copy each stay below glibc's default
# 128 KiB mmap threshold, so every write reuses freed heap blocks
_WRITE_SLICE = 1 << 16


def _write(stream, text):
    for i in range(0, len(text), _WRITE_SLICE):
        stream.write(text[i:i + _WRITE_SLICE])


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    # handlers and renderers are looked up at call time, so a wrapper bound
    # over the module global after import is the one that runs
    try:
        try:
            payload = globals()["_cmd_" + args.command](args)
        except ValueError as exc:
            args.command_parser.error(str(exc))
        except CheckFailure as exc:  # any other exception is a bug
            print(f"mathematical check failed: {exc}", file=sys.stderr)
            return 1
        text = globals()["_render_" + args.format](payload)
        try:
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    _write(fh, text)
            elif sys.stdout is None:  # descriptor 1 was closed at start-up
                import errno

                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            else:
                _write(sys.stdout, text)
                sys.stdout.flush()
        except OSError as exc:
            print(f"cycloeta: error: cannot write {args.output or 'stdout'}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    except MemoryError:
        size = f"p {args.p}" if args.command == "nondecomp" else f"n-max {_resolve_n_max(args)}"
        print(f"cycloeta {args.command}: error: out of memory ({size})", file=sys.stderr)
        return 3

    verdict = _COMMANDS[args.command][2]
    return 1 if verdict and not payload[verdict] else 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
