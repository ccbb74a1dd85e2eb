"""The whole-grid membership check, the oracle for ``nonregular.check_membership``.

It is the check as it stood before the blocked rewrite: the grid built whole by
np.linspace, every formula applied to whole arrays, with its own copies of the
formulas (P and P' halved by division).  Test modules import it by module name
(``from nonregular_reference import ...``).
"""

import numpy as np


def whole_p(x):
    return (x - x * x) / 2.0


def whole_p_prime(x):
    return (1.0 - 2.0 * x) / 2.0


def whole_phi(t, x):
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined for t >= 0")
    p = whole_p(x)
    return p * t / ((1.0 - p) * t + p)


def whole_c(t, x):
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0) | (x >= 1)):
        raise ValueError("x must lie in the open unit interval")
    if not -1 < t < 1:
        raise ValueError("t must lie in (-1, 1)")
    if t >= 0:
        return x + whole_phi(t, x)
    return x - whole_phi(-t, x)


def whole_dc_dx(t, x):
    x = np.asarray(x, dtype=float)
    u = abs(t)
    p = whole_p(x)
    dphi = (u * u * whole_p_prime(x)) / (u + p * (1.0 - u)) ** 2 if u > 0 \
        else np.zeros_like(x)
    return 1.0 + dphi if t >= 0 else 1.0 - dphi


def whole_grid_membership(t, grid_size=1_000_000, fd_step=1e-5, fd_tol=1e-8):
    x = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    ct = whole_c(t, x)
    p = whole_p(x)
    lower_slack = float(np.min(ct - (x - p)))
    upper_slack = float(np.min((x + p) - ct))
    deriv = whole_dc_dx(t, x)
    deriv_bound_slack = float(np.min(np.abs(whole_p_prime(x)) - np.abs(deriv - 1.0)))
    inner = x[(x > fd_step) & (x < 1.0 - fd_step)]
    fd = (whole_c(t, inner + fd_step) - whole_c(t, inner - fd_step)) / (2.0 * fd_step)
    fd_err = float(np.max(np.abs(fd - whole_dc_dx(t, inner))))
    return {
        "t": t,
        "grid_size": grid_size,
        "lower_slack": lower_slack,
        "upper_slack": upper_slack,
        "derivative_bound_slack": deriv_bound_slack,
        "derivative_min": float(np.min(deriv)),
        "fd_cross_check": fd_err,
        "sup_p_prime": 0.5,
        "pass": (lower_slack > 0 and upper_slack > 0
                 and deriv_bound_slack >= -1e-15
                 and np.min(deriv) > 0 and fd_err <= fd_tol),
    }
