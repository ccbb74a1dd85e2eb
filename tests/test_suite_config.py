"""The pytest configuration keeps a failing property an ordinary failure.

``pyproject.toml`` turns RuntimeWarning and DeprecationWarning into errors.
When a hypothesis property fails, the hypothesis plugin imports ``libcst``
to suggest a patch, and that import emits a DeprecationWarning; unfiltered,
it would stop the whole session with an INTERNALERROR.  The meta-test runs
one failing property and one passing test under the repository's own
``filterwarnings`` list, in a fresh pytest process; every other
DeprecationWarning and RuntimeWarning is still an error.  A second
meta-test runs the suite's ``conftest.py`` on two files and reads the
per-file times it prints, slowest first, and the raw and calibrated totals
after them; a third counts the calibration kernel's readings, one at each
end of the session and one after each test file.
"""

import tomllib
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_does_not_stop_the_session(pytester):
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"][
        "filterwarnings"]
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
    result = pytester.runpytest_subprocess("-q", "-p", "no:cacheprovider")
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
    result = pytester.runpytest_subprocess("-q", "-p", "no:cacheprovider")
    result.assert_outcomes(passed=3)
    result.stdout.re_match_lines([r" +4 kernel readings, median taken: session start, end of "
                                  r"each test file, session end$"])
