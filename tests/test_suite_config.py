"""The pytest configuration keeps a failing property an ordinary failure.

``pyproject.toml`` turns RuntimeWarning and DeprecationWarning into errors.
When a hypothesis property fails, the hypothesis plugin imports ``libcst``
to suggest a patch, and that import emits a DeprecationWarning; unfiltered,
it would stop the whole session with an INTERNALERROR.  The meta-test runs
one failing property and one passing test under the repository's own
``filterwarnings`` list, in a fresh pytest process; every other
DeprecationWarning and RuntimeWarning is still an error (it needs its own
process: libcst is imported, and warns, only once per interpreter).  A
second meta-test runs the suite's ``conftest.py`` on two files, in-process,
and reads the per-file times it prints, slowest first, and the raw and
calibrated totals after them; a third counts the calibration kernel's
readings, one at each end of the session and one after each test file.
The kernel and its reference time are copies of the benchmark's; a fourth
test reads both files with ``ast`` (the benchmark is never imported) and
holds the copies to their originals.
"""

import ast
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFTEST = ROOT / "tests" / "conftest.py"
HARNESS = ROOT / "perfbench" / "harness.py"


def test_a_failing_property_does_not_stop_the_session(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_property_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_after_the_failure():\n"
        "    pass\n")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_other_deprecation_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("an unrelated deprecation", DeprecationWarning)
    with pytest.raises(RuntimeWarning):
        warnings.warn("an unrelated runtime warning", RuntimeWarning)


def test_summary_lists_time_per_file_slowest_first(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(
        test_fast="def test_quick():\n    pass\n",
        test_slow="import time\n\n"
                  "def test_sleeps():\n    time.sleep(0.2)\n\n"
                  "def test_sleeps_again():\n    time.sleep(0.2)\n")
    result = pytester.runpytest_inprocess("-q", "-p", "no:cacheprovider")
    result.assert_outcomes(passed=3)
    result.stdout.re_match_lines([r".*setup \+ call time per test file.*",
                                  r" +\d+\.\d\ds test_slow\.py$",
                                  r" +\d+\.\d\ds test_fast\.py$",
                                  r" +\d+\.\d\ds total$",
                                  r" +\d+\.\d\ds calibrated total \(host \d+\.\d\dx the "
                                  r"reference: \d+\.\d\dx at start, \d+\.\d\dx at end\)$"],
                                 consecutive=True)


def test_summary_counts_a_kernel_reading_after_each_file(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_one="def test_a():\n    pass\n\ndef test_b():\n    pass\n",
                        test_two="def test_c():\n    pass\n")
    result = pytester.runpytest_inprocess("-q", "-p", "no:cacheprovider")
    result.assert_outcomes(passed=3)
    result.stdout.re_match_lines([r" +4 kernel readings, median taken: session start, end of "
                                  r"each test file, session end$"])


def top_level(path, name):
    """The top-level def of that name in a file, or the value assigned to it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return node.value
    raise AssertionError(f"{name} not found in {path}")


def test_the_calibration_kernel_is_the_benchmarks():
    bodies = [[ast.dump(stmt) for stmt in kernel.body[ast.get_docstring(kernel) is not None:]]
              for kernel in (top_level(path, "interpreter_kernel") for path in (CONFTEST, HARNESS))]
    assert bodies[0] == bodies[1]
    calibration = top_level(HARNESS, "CALIBRATION")
    _, reference_s = next(entry.elts for key, entry in zip(calibration.keys, calibration.values)
                          if ast.literal_eval(key) == "interpreter")
    assert ast.literal_eval(top_level(CONFTEST, "REFERENCE_S")) == ast.literal_eval(reference_s)
