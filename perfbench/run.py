"""cycloeta benchmark.

    python3 perfbench/run.py --workload {verify,tables,family} --seed N
                             --seconds S --trace {0,1}

Closed loop, one client: each of the workload's CLI invocations runs in a
fresh process (perfbench/launch.py), one at a time, the way a user runs the
program.  A run starts with PROBES set-up-only invocations; then a cycle is
one pass over the workload's invocations.  Cycles repeat while the next one
is expected to end within S seconds of the run's start (at least one
runs), and every output is checked after its process ends, outside the
timed region.

Speed normalisation.  On a shared host the speed of a CPU drifts by 15-40%
over seconds and minutes with the load of other tenants, independently on
each CPU.  The harness therefore pins itself and every invocation to one
CPU, and a probe thread times a small fixed kernel (probe_kernel) on that
CPU every PROBE_PERIOD_S while an invocation runs.  Every time reported
below is the measured time multiplied by PROBE_NOMINAL_S / (median probe
time during that invocation): seconds at a fixed machine speed.  The probe
takes about 2% of the CPU from the program; it shifts every commit alike.

--trace 0 prints the end-to-end metrics:
  norm_wall_s  median over cycles of the cycle's summed, normalised wall time
  peak_rss_mb  highest resident set size of any invocation
  setup_s      median over all invocations of the normalised import of
               cycloeta.cli plus argument parsing, including set-up-only
               probe processes
--trace 1 runs untraced/traced cycle pairs and prints the per-layer
metrics of the traced cycles (medians over the pairs; see PER_LAYER), plus
trace.overhead_s, the traced minus the untraced normalised cycle time.
Span self times are raw, as measured inside the program.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An invocation fails when its exit code or
its output check fails; each failure is also reported on stderr.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch.py")
PROBES = 12
TIMEOUT_S = 120  # per invocation; a killed invocation fails its check
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 0.0007  # about probe_kernel's median on a quiet 2.0 GHz Xeon
PROBE_MIN_SAMPLES = 5

# (metric, unit, aggregate, key): aggregate is "calls" (span entries),
# "self_s" (span self time) or "counts" (computed counters).
PER_LAYER = (
    ("qseries.kronecker_calls", "count", "calls", "qseries.kronecker"),
    ("qseries.kronecker_s", "s", "self_s", "qseries.kronecker"),
    ("qseries.kronecker_bytes", "bytes", "counts", "qseries.kronecker_bytes"),
    ("qseries.solve_calls", "count", "calls", "qseries.solve"),
    ("qseries.solve_s", "s", "self_s", "qseries.solve"),
    ("qseries.solve_steps", "count", "counts", "qseries.solve_steps"),
    ("qseries.schoolbook_calls", "count", "calls", "qseries.schoolbook"),
    ("qseries.schoolbook_s", "s", "self_s", "qseries.schoolbook"),
    ("qseries.schoolbook_ops", "count", "counts", "qseries.schoolbook_ops"),
    ("qseries.dispatch_s", "s", "self_s", "qseries.dispatch"),
    ("etaprod.expand_calls", "count", "calls", "etaprod.expand"),
    ("etaprod.expand_coeffs", "count", "counts", "etaprod.expand_coeffs"),
    ("etaprod.expand_s", "s", "self_s", "etaprod.expand"),
    ("lseries.a_table_calls", "count", "calls", "lseries.a_table"),
    ("lseries.a_table_s", "s", "self_s", "lseries.a_table"),
    ("lseries.b_table_calls", "count", "calls", "lseries.b_table"),
    ("lseries.b_table_s", "s", "self_s", "lseries.b_table"),
    ("lseries.c_table_s", "s", "self_s", "lseries.c_table"),
    ("lseries.readout_s", "s", "self_s", "lseries.readout"),
    ("lseries.prime_power_evals", "count", "counts", "lseries.prime_power_evals"),
    ("arith.sieve_s", "s", "self_s", "arith.sieve"),
    ("arith.spf_s", "s", "self_s", "arith.spf"),
    ("quadfield.split_trace_calls", "count", "calls", "quadfield.split_trace"),
    ("quadfield.split_trace_misses", "count", "counts", "quadfield.split_trace_misses"),
    ("quadfield.split_trace_s", "s", "self_s", "quadfield.split_trace"),
    ("analysis.positivity_s", "s", "self_s", "analysis.positivity"),
    ("analysis.scan_s", "s", "self_s", "analysis.scan"),
    ("analysis.nondecomp_s", "s", "self_s", "analysis.nondecomp"),
    ("analysis.uniqueness_s", "s", "self_s", "analysis.uniqueness"),
    ("cli.parse_s", "s", "self_s", "cli.parse"),
    ("cli.command_s", "s", "self_s", "cli.command"),
    ("cli.render_s", "s", "self_s", "cli.render"),
    ("cli.out_bytes", "bytes", "counts", "cli.out_bytes"),
)


def probe_kernel():
    s = 0
    for i in range(8000):
        s += i * i & 1023
    return s


class SpeedProbe:
    """Times probe_kernel every PROBE_PERIOD_S while an invocation runs.

    Start it from a thread pinned to the CPU the invocations run on; the
    probe thread inherits the pinning, so it shares that CPU's contention
    with the program.  The harness's main thread waits on the child
    without the interpreter lock, so the probe does not contend for it.
    """

    def __init__(self):
        self.samples = []  # (start, duration)
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            self._active.wait()
            if self._stop.is_set():
                return
            t0 = time.perf_counter()
            probe_kernel()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(PROBE_PERIOD_S)

    @contextlib.contextmanager
    def running(self):
        """Sample while the body (one invocation) runs."""
        self._active.set()
        try:
            yield
        finally:
            self._active.clear()

    def close(self):
        self._stop.set()
        self._active.set()
        self._thread.join()

    def scale(self, t0, t1):
        """PROBE_NOMINAL_S over the median probe time in [t0, t1], or over
        the PROBE_MIN_SAMPLES samples nearest to it when it holds fewer."""
        inside = [d for s, d in self.samples if t0 <= s <= t1]
        if len(inside) < PROBE_MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [d for _, d in near[:PROBE_MIN_SAMPLES]]
        return PROBE_NOMINAL_S / statistics.median(inside)


@dataclass
class Cycle:
    wall_s: float = 0.0  # normalised
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


class Runner:
    def __init__(self, workdir, speed=None):
        self.workdir = workdir
        self.speed = speed  # a SpeedProbe; without one, times are raw
        self.attempted = 0
        self.failures = []

    def launch(self, argv, flags=()):
        """Run one invocation; returns (wall_s, scale, exit, stdout, report),
        where wall_s is raw and scale normalises it (see SpeedProbe)."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        report_path = os.path.join(self.workdir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        cmd = [sys.executable, LAUNCHER, report_path, *flags, "--", *argv]
        env = {k: v for k, v in os.environ.items() if k != "CYCLOETA_N_MAX"}
        env["PYTHONHASHSEED"] = "0"  # same memory layout of str-keyed tables in every run
        sampling = self.speed.running() if self.speed else contextlib.nullcontext()
        with open(out_path, "wb") as out, open(err_path, "wb") as err, sampling:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
            try:
                proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            t1 = time.perf_counter()
        wall = t1 - t0
        scale = self.speed.scale(t0, t1) if self.speed else 1.0
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        report = None
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        return wall, scale, proc.returncode, stdout, report

    def fail(self, argv, problem):
        self.failures.append(problem)
        with open(os.path.join(self.workdir, "stderr"), "rb") as fh:
            tail = fh.read()[-400:].decode(errors="replace").strip()
        print(f"FAILED: {' '.join(argv)}: {problem}" + (f"\n  {tail}" if tail else ""),
              file=sys.stderr)

    def probe(self, argv):
        """Set-up only: import and parse, then stop; returns its set-up time."""
        self.attempted += 1
        _, scale, code, _, report = self.launch(argv, ("--setup-only",))
        if code != 0 or report is None or report["parse_s"] is None:
            self.fail(argv, f"set-up probe exit code {code}")
            return None
        return (report["import_s"] + report["parse_s"]) * scale

    def cycle(self, ops, trace=False, keep_outputs=False):
        c = Cycle()
        for op in ops:
            self.attempted += 1
            wall, scale, code, stdout, report = self.launch(
                op.argv, ("--trace",) if trace else ()
            )
            c.wall_s += wall * scale
            c.raw_wall_s += wall
            if keep_outputs:
                c.outputs.append(stdout)
            problem = op.check(stdout, code)
            if problem is None and (report is None or report["exit"] != code):
                problem = "launcher report missing or inconsistent"
            if problem:
                self.fail(op.argv, problem)
            if report is None or report["parse_s"] is None:
                continue
            c.setups.append((report["import_s"] + report["parse_s"]) * scale)
            c.peak_rss_mb = max(c.peak_rss_mb, report["peak_rss_mb"])
            if trace:
                c.traces.append(report["trace"])
        print(f"cycle{' traced' if trace else ''}: {c.wall_s:.3f} s normalised, "
              f"{c.raw_wall_s:.3f} s raw, peak {c.peak_rss_mb:.1f} MB", file=sys.stderr)
        return c


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced cycle; `untraced` is its twin."""
    agg = {"calls": Counter(), "self_s": Counter(), "counts": Counter()}
    for report in traced.traces:
        for kind, counter in agg.items():
            counter.update(report[kind])
    out = {name: agg[kind][key] for name, _, kind, key in PER_LAYER}
    muls = out["qseries.kronecker_calls"] + out["qseries.schoolbook_calls"]
    out["qseries.kronecker_share"] = out["qseries.kronecker_calls"] / muls if muls else 0.0
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return out


LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
LAYER_UNITS.update({"qseries.kronecker_share": "ratio", "trace.overhead_s": "s"})


def measure(runner, ops, seconds, trace):
    t0 = time.perf_counter()
    setups = [runner.probe(ops[i % len(ops)].argv) for i in range(PROBES)]
    cycles, layers = [], []
    while True:
        t_cycle = time.perf_counter()
        plain = runner.cycle(ops, keep_outputs=trace)
        cycles.append(plain)
        if trace:
            traced = runner.cycle(ops, trace=True, keep_outputs=True)
            for op, a, b in zip(ops, plain.outputs, traced.outputs):
                if a != b:
                    runner.fail(op.argv, "traced stdout differs from untraced")
            layers.append(layer_metrics(traced, plain))
        # Start another cycle only if it should end within `seconds`.
        last = time.perf_counter() - t_cycle
        if time.perf_counter() - t0 + last > seconds:
            break
    if trace:
        return {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    setups = [s for s in setups if s is not None]
    setups += [s for c in cycles for s in c.setups]
    return {
        "norm_wall_s": {"value": statistics.median(c.wall_s for c in cycles), "unit": "s"},
        "peak_rss_mb": {"value": max(c.peak_rss_mb for c in cycles), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="cycloeta benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cycloeta", "cli.py")):
        print(f"no cycloeta sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    ops = workloads.ops_for(args.workload, args.seed)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    # Pin before the probe thread and the invocations inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = SpeedProbe()
    try:
        runner = Runner(workdir, speed)
        metrics = measure(runner, ops, args.seconds, bool(args.trace))
    finally:
        speed.close()
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
