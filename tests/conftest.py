"""Shared test configuration.

Property tests run under one hypothesis profile: a fixed number of
examples drawn from a derandomized generator, with no example database and
no per-example deadline, so that every run of the suite tries the same
inputs and a verdict never depends on timing or on an earlier run.
``pytester`` runs small pytest sessions for the suite's own meta-tests.
The terminal summary ends with the setup and call time summed per test
file, slowest first, so that a slower suite shows which file grew.  Below
that it prints the total, raw and calibrated: a fixed interpreter kernel is
timed (best of three) at session start and end, and the calibrated total is
the raw total divided by the kernel's mean slowdown against its time on the
reference machine, so that totals from slow and fast hosts compare.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=200, deadline=None)
settings.load_profile("deterministic")

# The best-of-three time of ``interpreter_kernel`` on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11) at full speed, as in perfbench/harness.py.
REFERENCE_S = 0.00084
SLOWDOWN_AT_START = pytest.StashKey[float]()


def interpreter_kernel():
    """Fixed exact arithmetic in the interpreter, a copy of the benchmark's
    calibration kernel; touches no library code."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def machine_slowdown():
    """The kernel's best-of-three time over its reference time."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        interpreter_kernel()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S


def pytest_sessionstart(session):
    session.config.stash[SLOWDOWN_AT_START] = machine_slowdown()


def pytest_terminal_summary(terminalreporter, config):
    per_file = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) in ("setup", "call"):
                path = report.nodeid.split("::")[0]
                per_file[path] = per_file.get(path, 0.0) + report.duration
    if per_file:
        terminalreporter.write_sep("-", "setup + call time per test file")
        for path, seconds in sorted(per_file.items(), key=lambda kv: -kv[1]):
            terminalreporter.write_line(f"{seconds:8.2f}s {path}")
        start, end = config.stash[SLOWDOWN_AT_START], machine_slowdown()
        total, slowdown = sum(per_file.values()), (start + end) / 2
        terminalreporter.write_line(f"{total:8.2f}s total")
        terminalreporter.write_line(
            f"{total / slowdown:8.2f}s calibrated total (host {slowdown:.2f}x the reference: "
            f"{start:.2f}x at start, {end:.2f}x at end)")
