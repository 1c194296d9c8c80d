"""Run one cycloeta CLI command the way a user does, in this fresh process.

    python3 perfbench/launch.py REPORT [--trace] [--setup-only] -- ARGV...

Puts the repository's `src` first on the import path, imports
`cycloeta.cli`, and calls `cycloeta.cli.run(ARGV)`; the console script need
not be installed.  Stdout and stderr are the command's own.  The exit code
is the command's exit code.

At exit, REPORT receives one JSON object: `import_s` (import of
`cycloeta.cli`), `parse_s` (from `run` being called until argument parsing
returns), `exit`, `peak_rss_mb`, and with --trace the per-layer aggregates
of `spans`.  With --setup-only the process stops right after argument
parsing, so it measures set-up alone.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _ParsedOnly(Exception):
    pass


def peak_rss_mb():
    """This process's peak resident set size since exec (VmHWM).

    getrusage's ru_maxrss is not used: it carries over the parent's peak
    from before exec, which here would be the harness's own size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return None


def main(argv):
    report_path = argv[0]
    sep = argv.index("--")
    flags, cli_argv = argv[1:sep], argv[sep + 1:]
    trace = "--trace" in flags
    setup_only = "--setup-only" in flags
    report = {}

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    from cycloeta import cli
    report["import_s"] = time.perf_counter() - t0

    import argparse

    if trace:
        import spans

        tracer = spans.Tracer()
        finish = spans.install(tracer)

    parse = argparse.ArgumentParser.parse_args
    marks = []

    def timed_parse(self, *args, **kwargs):
        ns = parse(self, *args, **kwargs)
        marks.append(time.perf_counter())
        if setup_only:
            raise _ParsedOnly
        return ns

    argparse.ArgumentParser.parse_args = timed_parse
    code = 1
    t_run = time.perf_counter()
    try:
        code = cli.run(cli_argv)
    except _ParsedOnly:
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        report["parse_s"] = marks[0] - t_run if marks else None
        report["exit"] = code
        report["peak_rss_mb"] = peak_rss_mb()
        if trace:
            finish()
            report["trace"] = tracer.report()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
