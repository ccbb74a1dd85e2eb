"""The pytest configuration keeps a failing property an ordinary failure.

``pyproject.toml`` turns RuntimeWarning and DeprecationWarning into errors.
When a hypothesis property fails, the hypothesis plugin imports ``libcst``
to suggest a patch, and that import emits a DeprecationWarning; unfiltered,
it would stop the whole session with an INTERNALERROR.  The meta-test runs
one failing property and one passing test under the repository's own
``filterwarnings`` list, in a fresh pytest process; every other
DeprecationWarning and RuntimeWarning is still an error.
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
