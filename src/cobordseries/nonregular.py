"""Diffeomorphisms of (0,1) witnessing failure of the exponential map.

The family c_t(x) = x + phi(t, x) (t >= 0, mirrored for t < 0) with
phi(t, x) = P(x) t / ((1 - P(x)) t + P(x)) and P(x) = (x - x^2)/2 is a C^1
path of increasing diffeomorphisms of the open unit interval fixing the
boundary limits, with d/dt c_t = 1 at t = 0.  Yet the left ODE
dg/dt o g^{-1} = 1 admits only the translations g_t(x) = x + t, which leave
the group for every t > 0 because the boundary limit at 1 becomes 1 + t.
All claims are checked numerically on dense grids; ``check_membership``
walks its grid in cache-sized slices through one reused buffer block, takes
P, P' and dc/dx once per point, and checks x +/- h at its ends (rounding is
monotone).  Every reported float is bitwise the value of one whole-grid pass.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 14   # grid points per slice of check_membership (128 KiB per array)


def p_poly(x):
    return (x - x * x) / 2.0


def p_prime(x):
    return (1.0 - 2.0 * x) / 2.0


# In _bump, _c and _dc_dx, out and work (never x) take the result and the temporaries.
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


def _not_bool(name, value):
    """value, unless it is a bool (Python, numpy or an array): never read as 0 or 1."""
    if np.asarray(value).dtype == bool:
        raise ValueError(f"{name} must be a number, not the bool {value!r}")
    return value


def _domain(t, x):
    """x as a float array, once it lies in (0, 1) and t, a scalar, in (-1, 1); nan
    lies in neither."""
    x = np.asarray(x, dtype=float)
    if np.any(~((x > 0) & (x < 1))):
        raise ValueError("x must lie in the open unit interval")
    try:
        inside = np.ndim(_not_bool("t", t)) == 0 and -1 < t < 1
    except TypeError:
        inside = False
    if not inside:
        raise ValueError("t must lie in (-1, 1)")
    return x


def phi(t, x):
    """Homographic bump, defined for t >= 0 and x in (0, 1)."""
    t = np.asarray(_not_bool("t", t), dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined for t >= 0")
    return _bump(t, p_poly(np.asarray(x, dtype=float)))


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
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 1:
        raise ValueError(f"grid_size must be a positive int, got {grid_size!r}")
    if not 0 < fd_step < 0.5:   # also rejects nan and inf
        raise ValueError(f"fd_step must lie in (0, 1/2), got {fd_step!r}")
    _domain(t, ())   # checks t; the grid itself lies in (0, 1)
    ft, h = float(t), float(fd_step)   # ufuncs writing float64 buffers take float scalars
    grid = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    lo, hi = np.searchsorted(grid, h, "right"), np.searchsorted(grid, 1.0 - h)
    if lo >= hi:   # the sorted grid's inner points h < x < 1 - h are grid[lo:hi]
        raise ValueError(f"no grid point lies more than fd_step={fd_step!r} inside (0, 1)")
    _domain(t, (grid[lo] - h, grid[hi - 1] + h))   # rounded x -/+ h is monotone in x
    buffers, mins, fd_errs = np.empty((5, BLOCK)), [], []
    for start in range(0, grid_size, BLOCK):
        x = grid[start:start + BLOCK]
        ct, work, _, deriv, dev = buffers[:, :x.size]
        p, dp = p_poly(x), p_prime(x)
        _c(ft, x, p, ct, work)
        np.abs(np.subtract(_dc_dx(ft, dp, p, deriv, work), 1.0, out=dev), out=dev)
        mins.append([np.min(np.subtract(ct, np.subtract(x, p, out=work), out=work)),
                     np.min(np.subtract(np.add(x, p, out=work), ct, out=work)),
                     np.min(np.subtract(np.abs(dp, out=dp), dev, out=dp)), np.min(deriv)])
        a, b = max(lo - start, 0), min(hi - start, x.size)
        if a < b:   # c_t at the shifted points xs, then the finite difference's error
            plus, work, minus, _, xs = buffers[:, :b - a]
            _c(ft, np.add(x[a:b], h, out=xs), p_poly(xs), plus, work)
            _c(ft, np.subtract(x[a:b], h, out=xs), p_poly(xs), minus, work)
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
    if not _not_bool("fd_step", fd_step) > 0:   # c rejects fd_step >= 1, nan and inf
        raise ValueError(f"fd_step must be positive, got {fd_step!r}")
    x = np.asarray(x, dtype=float)
    closed = dc_dt(0.0, x)
    fd = (c(fd_step, x) - c(0.0, x)) / fd_step
    return closed, fd


def ode_escape_check(t) -> bool:
    """The candidate solution of dg/dt o g^{-1} = 1 is g_t(x) = x + t; it
    escapes the group exactly when t > 0 (boundary limit 1 + t > 1)."""
    try:
        valid = np.ndim(_not_bool("t", t)) == 0 and np.isfinite(t) and t >= 0
    except TypeError:  # a t numpy cannot test, or one without an order (None, "1", 1j)
        valid = False
    if not valid:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    return bool(t > 0)


def seminorm_drift(t, n) -> float:
    """sup over [1/(n+1), n/(n+1)] of |c_t(x) - x| for an int n >= 1;
    bounded by sup P < 1/8."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
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
