import os
import re

# the suite states every truncation it means: a CYCLOETA_N_MAX exported by
# the calling shell would move the CLI's defaults, in process and in the
# child processes that inherit os.environ
os.environ.pop("CYCLOETA_N_MAX", None)

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_(criterion_\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of every run."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            m = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if not m:
                continue
            label = "PASS" if outcome == "passed" else "FAIL"
            name = m.group(1).replace("_", " ") + " (" + m.group(2) + ")"
            lines[name] = label
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")
