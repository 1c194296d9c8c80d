"""Per-layer spans for one cycloeta CLI process, patched in from outside the
package.

`install(tracer)` replaces the layer functions of the imported cycloeta
modules with timing wrappers.  A name bound in more than one place (a module
global and an imported copy) is patched everywhere it is looked up, so every
call path reaches the same wrapper.

Each span adds its duration minus its child spans to a per-name self time as
it closes.  The aggregates stay in memory and are written out once, by the
launcher, when the process exits.  Counters marked "computed" are derived
from the operands (sizes, nonzero counts, loop trip counts), never from the
clock, so they repeat exactly; the work of computing them is excluded from
every span's self time.
"""

import argparse
import functools
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # one [name, child_seconds] per open span

    def current(self):
        return self._stack[-1][0] if self._stack else None

    def add(self, counter, value):
        self.counts[counter] += value

    def _close(self, name, frame, t0):
        dt = perf_counter() - t0
        self._stack.pop()
        self.self_s[name] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt

    def untimed(self, hook, *args):
        """Run `hook` (a computed counter) outside every span's self time."""
        t0 = perf_counter()
        try:
            hook(self, *args)
        finally:
            dt = perf_counter() - t0
            if self._stack:
                self._stack[-1][1] += dt

    def wrap(self, name, fn, before=None, after=None, count_call=True):
        """`fn` timed as span `name`.  `before(tracer, *args)` and
        `after(tracer, result, *args)` feed computed counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self.untimed(before, *args)
            if count_call:
                self.calls[name] += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0)
            if after is not None:
                self.untimed(after, result, *args)
            return result

        return wrapper

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# computed counters

def _kronecker_bytes(tr, a, b, n):
    """Bytes of the four packed operands, with the digit width the kernel
    derives from the same operands."""
    amax = max((abs(x) for x in a), default=0)
    bmax = max((abs(x) for x in b), default=0)
    if amax and bmax:
        w = (amax * bmax * min(len(a), len(b))).bit_length() // 8 + 1
        tr.add("qseries.kronecker_bytes", 2 * w * (len(a) + len(b)))


def _schoolbook_ops(tr, a, b, n):
    """Inner-loop trip count: sum over nonzero a[i], i < n, of the span
    min(n - i, len(b)), after the kernel's swap to the shorter operand."""
    if len(b) < len(a):
        a, b = b, a
    lb = len(b)
    tr.add(
        "qseries.schoolbook_ops",
        sum(min(n - i, lb) for i, x in enumerate(a[:n]) if x),
    )


def _solve_steps(tr, num, den_terms, den_lead, n):
    """sum_k #{g in den_terms : g <= k} over k < n."""
    tr.add("qseries.solve_steps", sum(n - g for g, _ in den_terms if g < n))


def _expand_coeffs(tr, spec, n_max):
    tr.add("etaprod.expand_coeffs", (24 * n_max - spec.order24()) // 24 + 1)


def _out_bytes(tr, text, payload):
    tr.add("cli.out_bytes", len(text.encode("utf-8")))


def _count_rule(tr, *args):
    tr.add("lseries.prime_power_evals", 1)


# ---------------------------------------------------------------------------

def install(tracer):
    """Patch the cycloeta layers; returns a function that records the
    split-trace cache misses into the tracer (call it before reporting)."""
    from cycloeta import analysis, arith, cli, etaprod, lseries, qseries

    t = tracer.wrap
    kron = t("qseries.kronecker", qseries._kronecker_mul, before=_kronecker_bytes)
    school = t("qseries.schoolbook", qseries._schoolbook_mul, before=_schoolbook_ops)
    solve = t("qseries.solve", qseries._solve_quotient, before=_solve_steps)
    qseries._kronecker_mul = kron
    qseries._schoolbook_mul = school
    qseries._mul_lists = t("qseries.dispatch", qseries._mul_lists)
    qseries._solve_quotient = solve
    etaprod._solve_quotient = solve
    etaprod.expand = t("etaprod.expand", etaprod.expand, before=_expand_coeffs)

    # The prime-power rule is charged to whoever called the sieve (a_table,
    # b_table, ...), so a table's self time includes evaluating its rule.
    sieve_span = t("arith.sieve", arith.sieve_multiplicative)

    def sieve(rule, n_max):
        owner = tracer.current() or "arith.sieve"
        rule = t(owner, rule, before=_count_rule, count_call=False)
        return sieve_span(rule, n_max)

    arith.sieve_multiplicative = sieve
    lseries.sieve_multiplicative = sieve
    arith.spf_table = t("arith.spf", arith.spf_table)

    for name in ("a_table", "b_table", "c_table"):
        setattr(lseries, name, t("lseries." + name, getattr(lseries, name)))
    for name in ("coeff_table_from_series", "expansion_values"):
        setattr(lseries, name, t("lseries.readout", getattr(lseries, name)))
    cached = lseries._trace
    misses0 = cached.cache_info().misses
    lseries._trace = t("quadfield.split_trace", cached)

    for name, span in (
        ("check_positivity", "positivity"),
        ("conjecture_scan", "scan"),
        ("nondecomp_witness", "nondecomp"),
        ("uniqueness_hypotheses", "uniqueness"),
    ):
        setattr(analysis, name, t("analysis." + span, getattr(analysis, name)))

    for name in dir(cli):
        if name.startswith("_cmd_"):
            setattr(cli, name, t("cli.command", getattr(cli, name)))
        elif name.startswith("_render_"):
            setattr(cli, name, t("cli.render", getattr(cli, name), after=_out_bytes))
    argparse.ArgumentParser.parse_args = t(
        "cli.parse", argparse.ArgumentParser.parse_args
    )

    def finish():
        tracer.add("quadfield.split_trace_misses", cached.cache_info().misses - misses0)

    return finish
