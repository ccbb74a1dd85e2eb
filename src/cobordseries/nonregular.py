"""Diffeomorphisms of (0,1) witnessing failure of the exponential map.

The family c_t(x) = x + phi(t, x) (t >= 0, mirrored for t < 0) with
phi(t, x) = P(x) t / ((1 - P(x)) t + P(x)) and P(x) = (x - x^2)/2 is a C^1
path of increasing diffeomorphisms of the open unit interval fixing the
boundary limits, with d/dt c_t = 1 at t = 0.  Yet the left ODE
dg/dt o g^{-1} = 1 admits only the translations g_t(x) = x + t, which leave
the group for every t > 0 because the boundary limit at 1 becomes 1 + t.
All claims are checked numerically on dense grids; ``check_membership`` never
builds its grid: it writes each cache-sized slice into one reused buffer block,
takes P, P' and dc/dx once per point, and checks x +/- h at its ends (rounding is
monotone).  Every reported float is bitwise the value of one whole-grid pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ._checks import _finite_nonnegative, _int_in, _is_real, _not_bool, _real_in

BLOCK = 1 << 14   # grid points per slice of check_membership (128 KiB per array)


def p_poly(x):
    return _p_poly(x)


def p_prime(x):
    return _p_prime(x)


# In _p_poly, _bump, _c and _dc_dx, out and work (never x) take the result and the temporaries.
def _p_poly(x, out=None):   # * 0.5 halves exactly, as / 2.0 does
    return np.multiply(np.subtract(x, np.multiply(x, x, out=out), out=out), 0.5, out=out)


def _p_prime(x, out=None):   # (1 - 2x)/2 rounded once, as 2x and the halving are exact
    return np.subtract(0.5, x, out=out)


def _bump(u, p, out=None, work=None):
    den = np.add(np.multiply(np.subtract(1.0, p, out=work), u, out=work), p, out=work)
    return np.divide(np.multiply(p, u, out=out), den, out=out)


def _c(t, x, p, out=None, work=None):
    return (np.add if t >= 0 else np.subtract)(x, _bump(abs(t), p, out, work), out=out)


def _dc_dx(t, dp, p, out=None, work=None):
    """Exact dc/dx = 1 +/- t^2 P'(x) / (t + P(x)(1 - t))^2 from dp = P'(x), p = P(x)."""
    u = abs(t)
    den = np.square(np.add(u, np.multiply(p, 1.0 - u, out=work), out=work), out=work)
    dphi = np.divide(np.multiply(u * u, dp, out=out), den, out=out)
    return (np.add if t >= 0 else np.subtract)(1.0, dphi, out=out)


def _domain(t, x):
    """x as a float array, once it lies in (0, 1) and t, a scalar, in (-1, 1); nan
    lies in neither."""
    x = np.asarray(x, dtype=float)
    if np.any(~((x > 0) & (x < 1))):
        raise ValueError("x must lie in the open unit interval")
    _real_in("t", t, -1, 1)
    return x


def phi(t, x):
    """Homographic bump, defined for t >= 0 and x in (0, 1)."""
    times = np.asarray(_not_bool("t", t))
    if not all(map(_is_real, times.flat)) or np.any(~(times >= 0)):   # nan is not >= 0
        raise ValueError(f"t must be real and >= 0, got {t!r}")
    return _bump(times.astype(float), p_poly(np.asarray(x, dtype=float)))


def c(t, x):
    """The path value c_t(x); t in (-1, 1), x in (0, 1)."""
    x = _domain(t, x)
    return _c(float(t), x, p_poly(x))


def dc_dt(t, x):
    """Exact time derivative (P(x) / ((1 - P(x)) t + P(x)))^2 for t >= 0,
    mirrored for t < 0; equal to 1 everywhere at t = 0."""
    p = p_poly(_domain(t, x))
    u = abs(float(t))
    return (p / ((1.0 - p) * u + p)) ** 2


def check_membership(t, grid_size=1_000_000, fd_step=1e-5):
    """Verify the diffeomorphism bounds on a uniform grid.

    Checks x - P(x) < c_t(x) < x + P(x) and |d/dx c_t - 1| <= |P'(x)| (the
    latter with sup |P'| = 1/2 < 1, so c_t is strictly increasing), and
    cross-checks the exact space derivative against central finite
    differences to 1e-8.  Returns a report dict with the worst slacks.
    """
    _int_in("grid_size", grid_size, 1)
    _real_in("fd_step", fd_step, 0, 0.5)
    _real_in("t", t, -1, 1)
    ft, h = float(t), float(fd_step)   # ufuncs writing float64 buffers take float scalars
    # The grid, never built: np.linspace(0, 1, grid_size + 2)[1:-1] is i * step, i in ids.
    step, ids = 1.0 / (grid_size + 1), range(1, grid_size + 1)
    lo, hi = bisect_right(ids, h, key=step.__mul__), bisect_left(ids, 1.0 - h, key=step.__mul__)
    if lo >= hi:   # the sorted grid's inner points h < x < 1 - h are those of index lo:hi
        raise ValueError(f"no grid point lies more than fd_step={fd_step!r} inside (0, 1)")
    _domain(t, (ids[lo] * step - h, ids[hi - 1] * step + h))   # rounded x -/+ h is monotone
    buffers, index, mins, fd_errs = np.empty((7, BLOCK)), np.arange(1.0, BLOCK + 1), [], []
    for start in range(0, grid_size, BLOCK):
        x, deriv, p, dp, ct, work, dev = buffers[:, :min(BLOCK, grid_size - start)]
        np.multiply(np.add(index[:x.size], start, out=x), step, out=x)
        _c(ft, x, _p_poly(x, p), ct, work)
        np.abs(np.subtract(_dc_dx(ft, _p_prime(x, dp), p, deriv, work), 1.0, out=dev), out=dev)
        mins.append([np.min(np.subtract(ct, np.subtract(x, p, out=work), out=work)),
                     np.min(np.subtract(np.add(x, p, out=work), ct, out=work)),
                     np.min(np.subtract(np.abs(dp, out=dp), dev, out=dp)), np.min(deriv)])
        a, b = max(lo - start, 0), min(hi - start, x.size)
        if a < b:   # c_t at the shifted points xs, then the finite difference's error
            ps, plus, minus, work, xs = buffers[2:, :b - a]
            _c(ft, np.add(x[a:b], h, out=xs), _p_poly(xs, ps), plus, work)
            _c(ft, np.subtract(x[a:b], h, out=xs), _p_poly(xs, ps), minus, work)
            fd = np.divide(np.subtract(plus, minus, out=plus), 2.0 * h, out=plus)
            fd_errs.append(np.max(np.abs(np.subtract(fd, deriv[a:b], out=fd), out=fd)))
    lower_slack, upper_slack, deriv_bound_slack, deriv_min = map(float, np.min(mins, axis=0))
    fd_err = float(np.max(fd_errs))
    return {
        "t": t,
        "grid_size": grid_size,
        "lower_slack": lower_slack,
        "upper_slack": upper_slack,
        "derivative_bound_slack": deriv_bound_slack,
        "derivative_min": deriv_min,
        "fd_cross_check": fd_err,
        "sup_p_prime": 0.5,
        "pass": (lower_slack > 0 and upper_slack > 0
                 and deriv_bound_slack >= -1e-15
                 and deriv_min > 0 and fd_err <= 1e-8),
    }


def derivative_at_zero(x, fd_step=1e-4):
    """Closed-form d/dt c_t at t = 0 (identically 1) and its forward
    finite-difference approximation (c_h - c_0)/h with O(h) error."""
    _real_in("fd_step", fd_step, 0, 1)   # a time of c
    x = np.asarray(x, dtype=float)
    closed = dc_dt(0.0, x)
    fd = (c(fd_step, x) - c(0.0, x)) / fd_step
    return closed, fd


def ode_escape_check(t) -> bool:
    """The candidate solution of dg/dt o g^{-1} = 1 is g_t(x) = x + t; it
    escapes the group exactly when t > 0 (boundary limit 1 + t > 1)."""
    _finite_nonnegative("t", _not_bool("t", t))
    return bool(t > 0)


def seminorm_drift(t, n) -> float:
    """sup over [1/(n+1), n/(n+1)] of |c_t(x) - x| for an int n >= 1;
    bounded by sup P < 1/8."""
    _int_in("n", n, 1)
    x = np.linspace(1.0 / (n + 1), n / (n + 1), 10_001)
    return float(np.max(np.abs(c(t, x) - x)))


def boundary_limits(t):
    """c_t values at 1e-9 from 0 and from 1 (the path fixes both boundary limits)."""
    return float(c(t, np.array([1e-9]))[0]), float(c(t, np.array([1.0 - 1e-9]))[0])


def full_report(ts=(0.1, -0.1, 0.5, -0.5, 0.9, -0.9), grid_size=1_000_000):
    """Membership, derivative, seminorm, and escape checks for several t."""
    if not hasattr(ts, "__iter__"):
        raise ValueError(f"ts must be an iterable of times, not {ts!r}")
    rows, (closed, fd) = [], derivative_at_zero(np.array([0.25, 0.5, 0.75]))
    for t in ts:
        row = check_membership(t, grid_size=grid_size)
        row["dt_closed_residual"] = float(np.max(np.abs(closed - 1.0)))
        row["dt_fd_residual"] = float(np.max(np.abs(fd - 1.0)))
        near0, near1 = boundary_limits(t)
        row["limit_at_0"] = near0
        row["limit_at_1"] = near1
        row["seminorm_n10"] = seminorm_drift(t, 10)
        row["escape_for_positive_t"] = ode_escape_check(abs(t))
        row["pass"] = bool(row["pass"]
                           and row["dt_closed_residual"] == 0.0
                           and row["dt_fd_residual"] <= 1e-3
                           and abs(near0) <= 1e-6 and abs(near1 - 1.0) <= 1e-6
                           and row["seminorm_n10"] < 0.125)
        rows.append(row)
    return rows
