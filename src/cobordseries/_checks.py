"""The scalar input rules, each stated once: an int in a range, integer box spans,
an exact time, a finite real >= 0 and a real in an open interval.

Each validator returns what it accepts (spans as tuples, an exact time as a
Fraction, a finite real >= 0 as a float) and raises a ``ValueError`` naming the
parameter otherwise.  Nothing is coerced: a bool (Python's or numpy's) is never 0
or 1, and None, a str or an array (but a 0-d real one) never stands for a number.
"""

import math
from fractions import Fraction
from numbers import Real

import numpy as np


def _int_in(name, x, lo=0, hi=None) -> int:
    """x, if it is an int (not a bool) with lo <= x, and x <= hi when hi is given."""
    if type(x) is not int or x < lo or hi is not None and x > hi:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an int {bounds}, not {x!r}")
    return x


def _int_spans(name, spans, degenerate=False) -> tuple:
    """spans as a tuple of int pairs (lo, hi), lo < hi, or lo <= hi if ``degenerate``."""
    spans = tuple(spans)
    if not all(isinstance(span, (tuple, list)) and len(span) == 2
               and type(span[0]) is type(span[1]) is int
               and (span[0] <= span[1] if degenerate else span[0] < span[1]) for span in spans):
        raise ValueError(f"{name} must be int pairs (pairs of ints lo {'<=' if degenerate else '<'}"
                         f" hi), not {spans!r}")
    return tuple(map(tuple, spans))


def _exact_time(name, t) -> Fraction:
    """t as a Fraction, if it is given exactly: an int (not a bool) or a Fraction."""
    if type(t) is int or isinstance(t, Fraction):
        return Fraction(t)
    raise ValueError(f"{name} must be an int or a Fraction, not {t!r}")


def _not_bool(name, value):
    """value, unless it is a bool (Python, numpy or an array of them)."""
    if np.asarray(value).dtype == bool:
        raise ValueError(f"{name} must be a number, not the bool {value!r}")
    return value


def _is_real(x) -> bool:
    """Whether x is one real number: a non-bool ``Real`` (float and int tested first, as
    the ABC check is slow) or a 0-d int or float array."""
    return (type(x) is float or type(x) is int or isinstance(x, Real) and type(x) is not bool
            or isinstance(x, np.ndarray) and x.shape == () and x.dtype.kind in "iuf")


def _finite_nonnegative(name, x) -> float:
    """x as a float, if it is a real number, finite and >= 0."""
    if not (_is_real(x) and math.isfinite(x) and x >= 0):
        raise ValueError(f"{name} must be a finite real number >= 0, got {x!r}")
    return float(x)


def _real_in(name, x, lo, hi):
    """x, if it is a real number with lo < x < hi (nan is not); a bool raises first."""
    if not (_is_real(_not_bool(name, x)) and lo < x < hi):
        raise ValueError(f"{name} must lie in ({lo}, {hi}), got {x!r}")
    return x
