"""Shared test configuration.

Property tests run under one hypothesis profile: a fixed number of
examples drawn from a derandomized generator, with no example database and
no per-example deadline, so that every run of the suite tries the same
inputs and a verdict never depends on timing or on an earlier run.
``pytester`` runs small pytest sessions for the suite's own meta-tests.
The terminal summary ends with the setup and call time summed per test
file, slowest first, so that a slower suite shows which file grew.
"""

from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=200, deadline=None)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter):
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
