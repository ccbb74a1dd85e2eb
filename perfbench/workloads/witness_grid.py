"""witness-grid: the non-regularity witness on the paper's million-point
grid; vectorised float numpy in ``nonregular`` only."""

from __future__ import annotations

from harness import Case, Outcome

WHY = ("vectorised float numpy on 1M-point grids in nonregular, "
       "the only workload that measures that module")
CALIBRATION = "arrays"

TS = (0.1, -0.1, 0.5, -0.5, 0.9, -0.9)
GRID = 1_000_000
TOL = 1e-12
# float64 temporaries of grid length that one check_membership evaluates,
# counted from its formulas: the grid 1, c_t 9, P 3, the two slacks 4,
# dc/dx 12, the |P'| bound 7, the inner grid 1, the finite difference 22
# (two more c_t) and its error against dc/dx 14.
ARRAYS_PER_MEMBERSHIP = 73
BYTES = 8


def generate(lib, rng):
    """The paper's six times, in seeded order."""
    order = list(TS)
    rng.shuffle(order)
    return {"lib": lib, "ts": order}


MEMBERSHIP_FLOATS = ("lower_slack", "upper_slack", "derivative_bound_slack",
                     "derivative_min", "fd_cross_check")
REPORT_FLOATS = MEMBERSHIP_FLOATS + ("dt_closed_residual", "dt_fd_residual",
                                     "limit_at_0", "limit_at_1", "seminorm_n10")


def membership_counts():
    return {"nonregular.grid_points": GRID,
            "nonregular.bytes_computed": BYTES * GRID * ARRAYS_PER_MEMBERSHIP}


def report_case(t):
    """full_report for one t: bounds, unit derivative at 0, fixed boundary
    limits, seminorm drift and escape of the translation flow."""

    def run(api):
        return api.nonregular.full_report(ts=(t,), grid_size=GRID)

    def check(rows):
        row = rows[0]
        floats = {k: (row[k], TOL) for k in REPORT_FLOATS}
        ok = row["pass"] and row["escape_for_positive_t"] == (t != 0)
        return Outcome(ok, repr((row["t"], row["grid_size"], row["escape_for_positive_t"])),
                       floats, note=repr(row))

    counts = membership_counts()
    counts["nonregular.grid_points"] += 3 + 2 + 10_001   # derivative, limits, seminorm
    return Case(f"report/t={t}", run, check, counts)


def membership_case(t):
    """check_membership alone: the diffeomorphism bounds on the grid."""

    def run(api):
        return api.nonregular.check_membership(t, grid_size=GRID)

    def check(row):
        floats = {k: (row[k], TOL) for k in MEMBERSHIP_FLOATS}
        return Outcome(bool(row["pass"]), repr((row["t"], row["grid_size"])), floats,
                       note=repr(row))

    return Case(f"membership/t={t}", run, check, membership_counts())


def pass_cases(inputs):
    cases = []
    for t in inputs["ts"]:
        cases += [report_case(t), membership_case(t)]
    return cases


def warmup_cases(inputs):
    return [report_case(inputs["ts"][0]), membership_case(inputs["ts"][0])]
