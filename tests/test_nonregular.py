import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from nonregular_reference import whole_c, whole_dc_dx, whole_grid_membership, whole_phi

from cobordseries import nonregular as nr

PAPER_TS = (0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9)


def assert_same_report(t, grid_size, **kw):
    blocked = nr.check_membership(t, grid_size, **kw)
    whole = whole_grid_membership(t, grid_size, **kw)
    assert blocked.keys() == whole.keys()
    for key, value in whole.items():
        assert blocked[key] == value, (key, blocked[key], value)


def test_p_poly_value():
    assert nr.p_poly(0.5) == 1 / 8


def test_phi_vanishes_at_time_zero():
    x = np.linspace(0.05, 0.95, 19)
    assert np.all(nr.phi(0.0, x) == 0.0)
    assert np.all(nr.c(0.0, x) == x)


def test_phi_one_half():
    # phi(1, 1/2) = (1/8) / ((7/8) + 1/8) = 1/8, so c_1(1/2) = 5/8
    assert math.isclose(float(nr.phi(1.0, np.array([0.5]))[0]), 1 / 8,
                        rel_tol=0, abs_tol=1e-15)


def test_domain_validation():
    with pytest.raises(ValueError):
        nr.c(0.5, np.array([0.0]))
    with pytest.raises(ValueError):
        nr.c(1.5, np.array([0.5]))
    with pytest.raises(ValueError):
        nr.phi(-0.1, np.array([0.5]))


@pytest.mark.parametrize("t", [0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9])
def test_membership_bounds(t):
    report = nr.check_membership(t, grid_size=20_000)
    assert report["pass"], report
    assert report["derivative_min"] > 0


def test_membership_slack_at_zero_is_p():
    report = nr.check_membership(0.0, grid_size=1000)
    # c_0 = id sits in the middle of the strip, slack P(x) > 0 on the grid
    assert report["lower_slack"] > 0
    assert abs(report["lower_slack"] - report["upper_slack"]) < 1e-15


def test_strictly_increasing_and_boundary_limits():
    for t in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
        x = np.linspace(1e-6, 1 - 1e-6, 50_001)
        values = nr.c(t, x)
        assert np.all(np.diff(values) > 0)
        assert np.all((values > 0) & (values < 1))
        near0, near1 = nr.boundary_limits(t)
        assert abs(near0) < 1e-6
        assert abs(near1 - 1.0) < 1e-6


def test_derivative_at_zero_closed_form_is_one():
    x = np.linspace(0.001, 0.999, 999)
    closed, _ = nr.derivative_at_zero(x, fd_step=1e-4)
    assert np.all(closed == 1.0)
    # finite differences carry an O(h) constant of (1 - P)/P, small only
    # away from the boundary; at x = 1/2 the error stays within 1e-3
    _, fd = nr.derivative_at_zero(np.array([0.5]), fd_step=1e-4)
    assert abs(float(fd[0]) - 1.0) < 1e-3
    _, fd_band = nr.derivative_at_zero(np.linspace(0.3, 0.7, 401), fd_step=1e-4)
    assert np.max(np.abs(fd_band - 1.0)) < 1e-3


def test_derivative_at_zero_fd_rate_is_first_order():
    x = np.array([0.5])
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        _, fd = nr.derivative_at_zero(x, fd_step=h)
        errors.append(abs(float(fd[0]) - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert 5 < errors[0] / errors[1] < 20  # O(h) halves per decade


def test_ode_escape():
    assert not nr.ode_escape_check(0.0)
    assert nr.ode_escape_check(0.1)
    assert nr.ode_escape_check(1.0)
    with pytest.raises(ValueError):
        nr.ode_escape_check(-0.5)


def test_seminorm_bounded_by_sup_p():
    for t in (0.1, 0.5, 0.9, -0.9):
        for n in range(1, 11):
            assert nr.seminorm_drift(t, n) < 0.125


def test_full_report_passes():
    rows = nr.full_report(ts=(0.5, -0.5), grid_size=50_000)
    assert all(row["pass"] for row in rows)
    assert all(row["escape_for_positive_t"] for row in rows)


def test_formulas_match_the_whole_grid_copies():
    x = np.linspace(1e-6, 1 - 1e-6, 10_001)
    for t in PAPER_TS:
        assert np.array_equal(nr.c(t, x), whole_c(t, x))
        assert np.array_equal(nr._dc_dx(t, nr.p_prime(x), nr.p_poly(x)), whole_dc_dx(t, x))
        assert np.array_equal(nr.phi(abs(t), x), whole_phi(abs(t), x))


UNIT_FLOATS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=2.0**-1022, exclude_min=True),   # the subnormal end
    st.integers(-64, 64).map(lambda k: 0.5 + k * 2.0**-54))   # the floats next to 1/2


@given(UNIT_FLOATS)
def test_p_kernels_equal_the_halving_formulas(x):
    p, dp, out = (x - x * x) / 2.0, (1.0 - 2.0 * x) / 2.0, np.empty(1)
    assert nr.p_poly(x) == p and nr._p_poly(np.array([x]), out)[0] == p
    assert nr.p_prime(x) == dp and nr._p_prime(np.array([x]), out)[0] == dp


@pytest.mark.parametrize("t", PAPER_TS)
def test_membership_equals_whole_grid_on_paper_times(t):
    assert_same_report(t, 100_003)


SLICE_GRIDS = (1, 2, nr.BLOCK - 1, nr.BLOCK, nr.BLOCK + 1, 3 * nr.BLOCK + 7)


@pytest.mark.parametrize("grid_size", SLICE_GRIDS)
@pytest.mark.parametrize("t", (0.0, 0.5, -0.9))
def test_membership_equals_whole_grid_on_slice_boundaries(t, grid_size):
    assert_same_report(t, grid_size)


@pytest.mark.parametrize("grid_size", SLICE_GRIDS + (1_000_000,))
def test_membership_slices_are_the_linspace_grid(monkeypatch, grid_size):
    # P' is taken once per slice, on that slice of the grid
    slices, real_p_prime = [], nr._p_prime

    def recorded_p_prime(x, out):
        slices.append(x.copy())
        return real_p_prime(x, out)

    monkeypatch.setattr(nr, "_p_prime", recorded_p_prime)
    nr.check_membership(0.5, grid_size)
    assert [x.size for x in slices[:-1]] == [nr.BLOCK] * (len(slices) - 1)
    grid = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    assert np.concatenate(slices).tobytes() == grid.tobytes()


@pytest.mark.parametrize("t", (0.5, -0.5))
def test_membership_equals_whole_grid_on_the_million_point_grid(t):
    assert_same_report(t, 1_000_000)


@given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.sampled_from(SLICE_GRIDS))
def test_membership_equals_whole_grid_on_generated_times(t, grid_size):
    assert_same_report(t, grid_size)


def slice_edge_steps(grid_size):
    """fd_step values whose inner range h < x < 1 - h starts (x[k] < 1/2) or
    ends (x[k] > 1/2, end exclusive) at a grid index k next to a slice
    boundary: k = m BLOCK - 1, m BLOCK, m BLOCK + 1.  A start uses the grid
    point x[k - 1] and the float just below x[k]; an end uses 1 - x[k] and
    the float just below it, which rounding may move by one index."""
    x = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    steps = []
    for m in range(1, grid_size // nr.BLOCK + 1):
        for k in (m * nr.BLOCK - 1, m * nr.BLOCK, m * nr.BLOCK + 1):
            if k >= grid_size:
                continue
            kind, h = ("start", x[k - 1]) if x[k] < 0.5 else ("end", 1.0 - x[k])
            below = np.nextafter(x[k] if kind == "start" else h, 0)
            steps += [(kind, k, float(h)), (kind, k, float(below))]
    return steps


EDGE_GRIDS = (3 * nr.BLOCK + 7, 4 * nr.BLOCK - 3)
EDGE_CASES = [(grid_size, kind, k, h) for grid_size in EDGE_GRIDS
              for kind, k, h in slice_edge_steps(grid_size)]


def inner_range(grid_size, fd_step):
    x = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    inner = np.flatnonzero((x > fd_step) & (x < 1.0 - fd_step))
    return int(inner[0]), int(inner[-1]) + 1


def test_edge_steps_start_and_end_the_inner_range_at_every_slice_edge():
    reached = {(grid_size, kind, k) for grid_size, kind, k, h in EDGE_CASES
               if inner_range(grid_size, h)[kind == "end"] == k}
    wanted = {(grid_size, kind, k) for grid_size, kind, k, _ in EDGE_CASES}
    assert reached == wanted
    assert {k % nr.BLOCK for _, kind, k in wanted if kind == "start"} == {nr.BLOCK - 1, 0, 1}
    assert {k % nr.BLOCK for _, kind, k in wanted if kind == "end"} == {nr.BLOCK - 1, 0, 1}


@pytest.mark.parametrize("grid_size, kind, k, fd_step", EDGE_CASES)
@pytest.mark.parametrize("t", (0.0, 0.5, -0.9))
def test_membership_equals_whole_grid_when_the_inner_range_meets_a_slice_edge(
        t, grid_size, kind, k, fd_step):
    try:
        whole_grid_membership(t, grid_size, fd_step=fd_step)
    except ValueError as error:   # x + h rounds to 1.0 for the last inner point
        with pytest.raises(ValueError, match=str(error)):
            nr.check_membership(t, grid_size, fd_step=fd_step)
    else:
        assert_same_report(t, grid_size, fd_step=fd_step)


def test_an_end_step_takes_x_plus_h_to_one():
    # so the raising branch of the test above is reached
    def raises(grid_size, fd_step):
        try:
            whole_grid_membership(0.5, grid_size, fd_step=fd_step)
        except ValueError:
            return True
        return False

    assert any(raises(g, h) for g, kind, _, h in EDGE_CASES if kind == "end")


def test_membership_reads_an_exact_time_and_step_as_floats():
    exact = nr.check_membership(Fraction(1, 2), 1000, fd_step=Fraction(1, 1000))
    assert exact["t"] == Fraction(1, 2)
    assert {**exact, "t": 0.5} == nr.check_membership(0.5, 1000, fd_step=0.001)


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(-1, 3), 0])
@pytest.mark.parametrize("f", [nr.c, nr.dc_dt], ids=["c", "dc_dt"])
def test_path_reads_an_exact_time_as_a_float(f, t):
    x = np.array([1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9])
    exact = f(t, x)
    assert exact.dtype == np.float64
    assert np.array_equal(exact, f(float(t), x))


def test_membership_evaluates_p_once_per_point(monkeypatch):
    # P is computed once per grid point and once per shifted point x +/- h;
    # slices that overlap or miss part of the grid change the count.
    sizes = []
    real_p = nr._p_poly

    def counted_p(x, out=None):
        sizes.append(np.size(x))
        return real_p(x, out)

    monkeypatch.setattr(nr, "_p_poly", counted_p)
    grid_size, fd_step = 3 * nr.BLOCK + 7, 1e-3
    nr.check_membership(0.5, grid_size, fd_step=fd_step)
    x = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    inner = np.count_nonzero((x > fd_step) & (x < 1.0 - fd_step))
    assert sum(sizes) == grid_size + 2 * inner


def test_membership_checks_the_shifted_points_against_the_domain():
    # On the grid {1/3, 2/3} with h = 0.333...: 2/3 < 1 - h, but 2/3 + h
    # rounds to 1.0, so the finite difference would leave the interval.
    h = 0.3333333333333333
    for check in (whole_grid_membership, nr.check_membership):
        with pytest.raises(ValueError, match="open unit interval"):
            check(0.5, 2, fd_step=h)


def test_membership_peak_memory_stays_near_the_grid():
    # The whole-grid pass peaked at about 76 MiB; the pass builds no grid now
    # (a 1M-point one would be 7.6 MiB), which the 2 MiB test below bounds.
    tracemalloc.start()
    try:
        nr.check_membership(0.5, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_membership_builds_no_grid_length_array():
    # the grid alone would be 7.6 MiB; the buffer block and the slice index take 1 MiB
    tracemalloc.start()
    try:
        nr.check_membership(0.5, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


@pytest.mark.parametrize("t", [1.0, -1.0, math.nan])
def test_membership_rejects_a_time_outside_the_open_interval(t):
    with pytest.raises(ValueError, match="t must lie"):
        nr.check_membership(t, 1000)
    # also when no grid point is far enough inside for the finite difference
    with pytest.raises(ValueError, match="t must lie"):
        nr.check_membership(t, 2, fd_step=0.4)


@pytest.mark.parametrize("grid_size", [0, -3, 2.5, True, "10", None])
def test_membership_rejects_a_bad_grid_size(grid_size):
    with pytest.raises(ValueError, match="grid_size"):
        nr.check_membership(0.5, grid_size)


@pytest.mark.parametrize("fd_step", [0.0, -1e-5, 0.5, 0.6, math.nan, math.inf, None, "1e-5"])
def test_membership_rejects_a_bad_fd_step(fd_step):
    with pytest.raises(ValueError, match="fd_step"):
        nr.check_membership(0.5, 1000, fd_step=fd_step)


def test_membership_rejects_a_grid_with_no_interior_point_for_the_step():
    # grid {1/3, 2/3}: no point lies more than 0.4 inside (0, 1)
    with pytest.raises(ValueError, match="fd_step"):
        nr.check_membership(0.5, 2, fd_step=0.4)


@pytest.mark.parametrize("fd_step", [None, "1e-4"], ids=["None", "str"])
def test_derivative_at_zero_rejects_a_step_that_is_not_a_number(fd_step):
    with pytest.raises(ValueError, match="fd_step"):
        nr.derivative_at_zero(np.array([0.5]), fd_step)


@pytest.mark.parametrize("fd_step", [0.0, -1e-4])
def test_derivative_at_zero_rejects_a_non_positive_step(fd_step):
    with pytest.raises(ValueError, match="fd_step"):
        nr.derivative_at_zero(np.array([0.5]), fd_step=fd_step)


def test_ode_escape_for_a_tiny_positive_time():
    # 1.0 + 1e-17 rounds to 1.0, but the boundary limit 1 + t exceeds 1
    assert nr.ode_escape_check(1e-17)
    row, = nr.full_report(ts=(1e-17,), grid_size=1000)
    assert row["escape_for_positive_t"] is True


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_ode_escape_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        nr.ode_escape_check(t)


@pytest.mark.parametrize("t", [None, "1", 1j], ids=["None", "str", "complex"])
def test_ode_escape_rejects_a_time_that_is_not_a_real_number(t):
    with pytest.raises(ValueError, match="t must be a finite real number >= 0"):
        nr.ode_escape_check(t)


@pytest.mark.parametrize("t, x", [(5.0, 2.0), (0.5, 0.0), (1.0, 0.5), (math.nan, 0.5)])
def test_dc_dt_checks_the_domain_like_c(t, x):
    with pytest.raises(ValueError, match="must lie"):
        nr.dc_dt(t, x)


@pytest.mark.parametrize("n", [-1, 0, 0.5, True, 10.0])
def test_seminorm_drift_rejects_a_bad_n(n):
    with pytest.raises(ValueError, match="n must be"):
        nr.seminorm_drift(0.5, n)


BOOL_TIME_ENTRY_POINTS = {
    "check_membership": lambda t: nr.check_membership(t, 10),
    "c": lambda t: nr.c(t, np.array([0.5])),
    "dc_dt": lambda t: nr.dc_dt(t, np.array([0.5])),
    "phi": lambda t: nr.phi(t, np.array([0.5])),
    "seminorm_drift": lambda t: nr.seminorm_drift(t, 3),
    "boundary_limits": nr.boundary_limits,
    "ode_escape_check": nr.ode_escape_check,
}


@pytest.mark.parametrize("t", [False, True, np.True_], ids=["False", "True", "np.True_"])
@pytest.mark.parametrize("entry", sorted(BOOL_TIME_ENTRY_POINTS))
def test_a_bool_time_is_rejected(entry, t):
    with pytest.raises(ValueError, match="t must be a number, not the bool"):
        BOOL_TIME_ENTRY_POINTS[entry](t)


@pytest.mark.parametrize("t", [None, "0.1"])
@pytest.mark.parametrize("entry", ["c", "dc_dt", "check_membership"])
def test_a_time_that_is_not_a_number_is_rejected(entry, t):
    with pytest.raises(ValueError, match="t must lie"):
        BOOL_TIME_ENTRY_POINTS[entry](t)


@pytest.mark.parametrize("t", [np.array([0.5]), np.array([0.5, 0.2])], ids=["1", "2"])
@pytest.mark.parametrize("entry", ["boundary_limits", "c", "check_membership", "dc_dt",
                                   "seminorm_drift"])
def test_an_array_time_is_rejected(entry, t):
    with pytest.raises(ValueError, match="t must lie"):
        BOOL_TIME_ENTRY_POINTS[entry](t)


@pytest.mark.parametrize("t", [np.array([0.5]), np.array([0.5, 0.2])], ids=["1", "2"])
def test_ode_escape_rejects_an_array_time(t):
    with pytest.raises(ValueError, match="t must be a finite real number >= 0"):
        nr.ode_escape_check(t)


def test_a_zero_dimensional_time_array_is_accepted():
    x = np.array([0.25, 0.5])
    assert (nr.c(np.array(0.5), x) == nr.c(0.5, x)).all()
    assert (nr.dc_dt(np.array(-0.5), x) == nr.dc_dt(-0.5, x)).all()
    assert nr.ode_escape_check(np.array(0.5)) is True


def test_full_report_rejects_a_single_time():
    with pytest.raises(ValueError, match="ts must be an iterable of times, not 0.5"):
        nr.full_report(ts=0.5, grid_size=1000)


@pytest.mark.parametrize("f, x", [(nr.c, math.nan), (nr.c, None), (nr.dc_dt, math.nan),
                                  (nr.c, [0.5, math.nan])], ids=["c", "c-None", "dc_dt", "c-array"])
def test_a_nan_point_is_outside_the_open_interval(f, x):
    with pytest.raises(ValueError, match="open unit interval"):
        f(0.5, x)


def test_phi_rejects_a_bool_time_array():
    with pytest.raises(ValueError, match="t must be a number, not the bool"):
        nr.phi(np.array([True, False]), np.array([0.5]))


@pytest.mark.parametrize("t", ["0.1", None, math.nan, -0.1, 1j, [0.5, None], [0.5, "0.1"],
                               np.array([0.5, math.nan]), np.array([0.5, -0.1])],
                         ids=["str", "None", "nan", "negative", "complex", "list-None",
                              "list-str", "array-nan", "array-negative"])
def test_phi_rejects_a_time_that_is_not_a_real_number_at_least_zero(t):
    with pytest.raises(ValueError, match=r"^t must be real and >= 0"):
        nr.phi(t, np.array([0.5]))


@pytest.mark.parametrize("t", [np.array([0.1, 0.5]), np.array([0, 1]), [Fraction(1, 10), 0.5]],
                         ids=["float", "int", "Fraction"])
def test_phi_takes_real_arrays_of_times(t):
    x = np.array([0.5, 0.25])
    assert np.array_equal(nr.phi(t, x), whole_phi(np.asarray(t, dtype=float), x))


@pytest.mark.parametrize("fd_step", [False, True, np.True_], ids=["False", "True", "np.True_"])
def test_derivative_at_zero_rejects_a_bool_step(fd_step):
    with pytest.raises(ValueError, match="fd_step must be a number, not the bool"):
        nr.derivative_at_zero(np.array([0.5]), fd_step=fd_step)


def test_full_report_takes_the_time_zero_derivative_once(monkeypatch):
    """The rows on the default times equal the rows of one-time reports (each
    takes the time-zero derivative for its own t, as every row used to)."""
    times = inspect.signature(nr.full_report).parameters["ts"].default
    one_by_one = [row for t in times for row in nr.full_report(ts=(t,), grid_size=1000)]
    calls, derivative_at_zero = [], nr.derivative_at_zero
    monkeypatch.setattr(nr, "derivative_at_zero",
                        lambda *args: calls.append(args) or derivative_at_zero(*args))
    assert nr.full_report(grid_size=1000) == one_by_one
    assert len(calls) == 1
