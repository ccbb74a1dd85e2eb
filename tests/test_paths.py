import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobordseries import paths
from cobordseries.groupoids import from_spec, make_interval_groupoid, make_nat_monoid
from cobordseries.matrices import RationalMatrix
from cobordseries.paths import (
    AlgebraPath, CoeffPoly, _bernoulli, coeff_norm, convergence_suite_paths,
    convergence_table, error_ratios, euler_product, grade_component,
    iterated_integrals, left_log_derivative, solve_left_ode,
)
from cobordseries.series import FormalSeries

ONE = Fraction(1)
NAT = make_nat_monoid()


def const_q_path(order=3):
    return AlgebraPath(NAT, order, {1: CoeffPoly.constant(ONE)})


def linear_q_path(order=3):
    return AlgebraPath(NAT, order, {1: CoeffPoly((0, ONE))})


def random_paths(rng, count, order=4, max_degree=3):
    """Seeded polynomial paths over the naturals and an interval window."""
    out = []
    interval = make_interval_groupoid(0, order)
    for i in range(count):
        gpd = NAT if i % 2 == 0 else interval
        polys = {}
        for elem in gpd.elements_up_to(order):
            if gpd.ord(elem) == 0 or rng.random() < 0.4:
                continue
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, max_degree + 1))]
            polys[elem] = CoeffPoly(coeffs)
        if not polys:
            polys = {next(e for e in gpd.elements_up_to(order)
                          if gpd.ord(e) == 1): CoeffPoly.constant(ONE)}
        out.append(AlgebraPath(gpd, order, polys))
    return out


# -- CoeffPoly ----------------------------------------------------------------

def test_poly_arithmetic_and_calculus():
    p = CoeffPoly((ONE, Fraction(2)))           # 1 + 2s
    q = CoeffPoly((0, 0, Fraction(1, 2)))       # s^2/2
    assert (p * q).coeffs == (0, 0, Fraction(1, 2), ONE)
    assert p._left_sum(0).coeffs == (0, ONE, ONE)
    assert q.derivative().coeffs == (0, ONE)
    assert p(Fraction(1, 2)) == Fraction(2)


@pytest.mark.parametrize("flag", [True, False])
def test_poly_rejects_bool_scalar_on_the_right(flag):
    with pytest.raises(ValueError, match="bool"):
        CoeffPoly((1, 2)) * flag


@pytest.mark.parametrize("flag", [True, False])
def test_poly_rejects_bool_scalar_on_the_left(flag):
    with pytest.raises(ValueError, match="bool"):
        flag * CoeffPoly((1, 2))


def test_poly_matrix_coefficients_keep_order():
    a = RationalMatrix.unit(2, 0, 1)
    b = RationalMatrix.unit(2, 1, 0)
    unit = RationalMatrix.identity(2)
    p = CoeffPoly((a,), unit)
    q = CoeffPoly((b,), unit)
    assert (p * q).coeffs != (q * p).coeffs


# -- euler product ------------------------------------------------------------

def test_euler_product_constant_n2():
    u2 = euler_product(const_q_path(), 2, 1)
    assert u2 == FormalSeries(NAT, 3, {0: ONE, 1: ONE, 2: Fraction(1, 4)})


def test_euler_product_constant_n4():
    u4 = euler_product(const_q_path(), 4, 1)
    assert u4 == FormalSeries(NAT, 3, {0: ONE, 1: ONE, 2: Fraction(3, 8),
                                       3: Fraction(1, 16)})


def test_euler_product_at_time_zero():
    for v in (const_q_path(), linear_q_path()):
        assert euler_product(v, 5, 0) == FormalSeries.one(NAT, 3)


def test_euler_product_fractional_time_partial_factor():
    # j = floor(ns); the leading factor carries the remainder s - j/n
    v = const_q_path()
    u = euler_product(v, 2, Fraction(3, 4))
    # (1 + (3/4 - 1/2) q) (1 + q/2) = 1 + 3q/4 + q^2/8
    assert u == FormalSeries(NAT, 3, {0: ONE, 1: Fraction(3, 4), 2: Fraction(1, 8)})


def test_euler_product_rejects_bad_time():
    with pytest.raises(ValueError):
        euler_product(const_q_path(), 4, Fraction(3, 2))
    with pytest.raises(ValueError):
        euler_product(const_q_path(), 0, Fraction(1, 2))



@pytest.mark.parametrize("n", [2.5, True, "4"])
def test_euler_product_rejects_non_int_step_count(n):
    with pytest.raises(ValueError, match="n must be"):
        euler_product(const_q_path(), n, 1)


def test_euler_product_rejects_float_time():
    with pytest.raises(ValueError, match="time must be"):
        euler_product(const_q_path(), 4, 0.3)


def test_coeff_poly_rejects_float_time():
    p = CoeffPoly((ONE, ONE))
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="time must be"):
            p(bad)


@pytest.mark.parametrize("order", [6.7, "6", True, -1])
def test_path_order_must_be_a_non_negative_int(order):
    with pytest.raises(ValueError, match="truncation order"):
        AlgebraPath(NAT, order, {1: CoeffPoly.constant(ONE)})


MATRIX_UNIT = RationalMatrix.identity(2)


@pytest.mark.parametrize("poly, unit", [
    (CoeffPoly((0.1,)), ONE),
    (CoeffPoly((True,)), ONE),
    (CoeffPoly(("1/2",)), ONE),
    (CoeffPoly((ONE,)), MATRIX_UNIT),
    (CoeffPoly((ONE,), MATRIX_UNIT), MATRIX_UNIT),
    ((ONE,), ONE),
], ids=["float", "bool", "string", "scalar-poly-in-matrix-path",
        "scalar-coefficient-in-matrix-path", "not-a-poly"])
def test_path_rejects_a_coefficient_outside_the_value_algebra(poly, unit):
    with pytest.raises(ValueError, match="not a time polynomial"):
        AlgebraPath(NAT, 3, {1: poly}, unit)


@pytest.mark.parametrize("spec", ["nat", "interval:0..4", "box:2:0..2,0..2"])
@pytest.mark.parametrize("unit", [ONE, MATRIX_UNIT], ids=["fraction", "matrix"])
def test_path_one_is_the_constant_unit_path(spec, unit):
    gpd = from_spec(spec)
    one = AlgebraPath.one(gpd, 3, unit)
    assert isinstance(one, AlgebraPath)
    assert one(Fraction(1, 3)) == FormalSeries.one(gpd, 3, unit)


def with_neutral_part():
    return AlgebraPath(NAT, 3, {0: CoeffPoly.constant(ONE), 1: CoeffPoly.constant(ONE)})


@pytest.mark.parametrize("route", [
    solve_left_ode, lambda v: euler_product(v, 4, 1), lambda v: iterated_integrals(v, 2),
], ids=["solve_left_ode", "euler_product", "iterated_integrals"])
def test_ode_routes_reject_a_neutral_coefficient(route):
    with pytest.raises(ValueError, match="neutral"):
        route(with_neutral_part())


def test_left_log_derivative_rejects_a_direction():
    with pytest.raises(ValueError, match="unital path"):
        left_log_derivative(const_q_path())


@pytest.mark.parametrize("grade", [True, 1.0, 7, -1])
def test_grade_component_rejects_invalid_grades(grade):
    series = FormalSeries(NAT, 3, {1: ONE, 2: Fraction(1, 2)})
    with pytest.raises(ValueError, match="grade must be an int"):
        grade_component(series, grade)


# -- exact ODE solution ---------------------------------------------------------

def test_solve_constant_direction_is_exponential_path():
    u = solve_left_ode(const_q_path())
    assert u.polys[0].coeffs == (ONE,)
    assert u.polys[1].coeffs == (0, ONE)
    assert u.polys[2].coeffs == (0, 0, Fraction(1, 2))
    assert u.polys[3].coeffs == (0, 0, 0, Fraction(1, 6))


def test_solve_linear_direction():
    u = solve_left_ode(linear_q_path())
    assert u(1) == FormalSeries(NAT, 3, {0: ONE, 1: Fraction(1, 2),
                                         2: Fraction(1, 8), 3: Fraction(1, 48)})


def test_solve_zero_direction():
    v = AlgebraPath(NAT, 3, {})
    u = solve_left_ode(v)
    assert u(0) == FormalSeries.one(NAT, 3)
    assert u(1) == FormalSeries.one(NAT, 3)


def test_solution_starts_at_one():
    rng = random.Random(37)
    for v in random_paths(rng, 6):
        u = solve_left_ode(v)
        assert u(0) == FormalSeries.one(v.groupoid, v.order, v.unit.unit)


def test_left_log_derivative_recovers_direction_exactly():
    rng = random.Random(41)
    for v in random_paths(rng, 12):
        u = solve_left_ode(v)
        assert left_log_derivative(u) == v


def test_path_arithmetic_keeps_evaluable_paths():
    """Sums, differences, negations, scalings, products and inverses of paths
    are paths, and evaluating them commutes with the arithmetic."""
    rng = random.Random(43)
    for v in random_paths(rng, 4):
        u = solve_left_ode(v)
        assert (u + u)(1) == u(1) + u(1)
        assert (u * u)(1) == u(1) * u(1)
        assert (u - v)(1) == u(1) - v(1)
        for path in (-u, u.scale(2), 2 * u, u.inverse()):
            assert type(path) is AlgebraPath
        assert (u * u.inverse())(Fraction(1, 3)) == FormalSeries.one(v.groupoid, v.order)


@pytest.mark.parametrize("matrix", [False, True], ids=["fraction", "matrix"])
@pytest.mark.parametrize("spec", ["nat", "interval:0..4", "box:2:0..2,0..2"])
def test_path_exp_log_and_powers_are_evaluable_paths(spec, matrix):
    """exp, log and powers of a path are paths of its type, and evaluating
    them at a time commutes with the series operation."""
    gpd = from_spec(spec)
    unit = MATRIX_UNIT if matrix else ONE
    elems = [e for e in gpd.elements_up_to(4) if gpd.ord(e) >= 1]
    polys = {}
    for n, e in enumerate(elems):
        a, b = Fraction(n % 3 - 1, 2), Fraction(n % 5 - 2, 3)
        if matrix:
            a, b = RationalMatrix([[a, ONE], [b, 0]]), RationalMatrix([[0, a], [ONE, b]])
        polys[e] = CoeffPoly((a, b), unit)
    v = AlgebraPath(gpd, 4, polys, unit)
    u = solve_left_ode(v)
    log_u, exp_v, cube = u.log(), v.exp(), u ** 3
    for path in (log_u, exp_v, cube, u ** 0):
        assert type(path) is AlgebraPath
    for t in (0, Fraction(1, 3), 1):
        assert log_u(t) == u(t).log()
        assert exp_v(t) == v(t).exp()
        assert cube(t) == u(t) ** 3


@pytest.mark.parametrize("spec", ["nat", "interval:0..4", "box:2:0..2,0..2"])
def test_ode_solvers_never_enumerate_the_window(spec, monkeypatch):
    """Both solvers read only the supports: they run with the groupoid's
    window enumeration patched to raise."""
    gpd = from_spec(spec)
    elems = [e for e in gpd.elements_up_to(4) if gpd.ord(e) >= 1]
    v = AlgebraPath(gpd, 4, {e: CoeffPoly((ONE, Fraction(n, 2))) for n, e in enumerate(elems)})

    def refuse(*args):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(type(gpd), "elements_up_to", refuse)
    u = solve_left_ode(v)
    assert left_log_derivative(u) == v
    for m in range(v.order + 1):
        assert iterated_integrals(v, m) == grade_component(u(1), m)


# -- iterated integrals -----------------------------------------------------------

def test_simplex_volume_grade_two():
    assert iterated_integrals(const_q_path(), 2) == Fraction(1, 2)


def test_simplex_linear_grade_two():
    assert iterated_integrals(linear_q_path(), 2) == Fraction(1, 8)


def test_unreachable_grade_gives_zero():
    v = AlgebraPath(NAT, 3, {2: CoeffPoly.constant(ONE)})
    assert iterated_integrals(v, 3) == 0


def full_order_iterated_integrals(v):
    """Oracle: every layer built at the path's order and summed once, then each
    grade read off that one total (a layer past grade g adds only grades above g)."""
    gpd = v.groupoid
    total = FormalSeries.one(gpd, v.order, v.unit)
    layer = total
    for _ in range(v.order):
        layer = v * layer
        layer = FormalSeries._trusted(gpd, v.order,
                                      {e: p._left_sum(0) for e, p in layer.coeffs.items()},
                                      v.unit)
        total = total + layer
    return [grade_component(total, grade)(1) for grade in range(v.order + 1)]


@st.composite
def polynomial_paths(draw, groupoids=(NAT, make_interval_groupoid(0, 4)), max_length=3):
    """Direction paths over the naturals or an interval window (or the given
    groupoids), with rational or 2x2 rational-matrix polynomial coefficients
    of up to ``max_length`` time coefficients."""
    order = draw(st.integers(0, 4))
    gpd = draw(st.sampled_from(groupoids))
    matrix = draw(st.booleans())
    unit = RationalMatrix.identity(2) if matrix else ONE
    scalars = st.fractions(-3, 3, max_denominator=3)

    def coeff():
        if matrix:
            return RationalMatrix([[draw(scalars) for _ in range(2)] for _ in range(2)])
        return draw(scalars)

    polys = {}
    for elem in gpd.elements_up_to(order):
        if gpd.ord(elem) >= 1 and draw(st.booleans()):
            polys[elem] = CoeffPoly([coeff() for _ in range(draw(st.integers(1, max_length)))],
                                    unit)
    return AlgebraPath(gpd, order, polys, unit)


@given(polynomial_paths())
def test_iterated_integrals_match_full_order_layers(v):
    got = [iterated_integrals(v, grade) for grade in range(v.order + 1)]
    expected = full_order_iterated_integrals(v)
    assert got == expected
    assert repr(got) == repr(expected)


def edge_path(spec, matrix, support):
    """A direction at order 4 over ``spec`` on ``support``, two time coefficients each."""
    unit = MATRIX_UNIT if matrix else ONE
    values = [Fraction(3, 2), Fraction(-1, 3), 2, Fraction(5, 7)]
    coeff = (lambda x: RationalMatrix([[x, 1], [-x, Fraction(1, 2)]])) if matrix else Fraction
    return AlgebraPath(from_spec(spec), 4, {
        e: CoeffPoly([coeff(values[n % 4]), coeff(values[(n + 1) % 4])], unit)
        for n, e in enumerate(support)}, unit)


# per groupoid: a support reaching every grade; one of grade 2 only, so grade 3 is
# unreachable; one whose layers empty out before the grade asked (nat: grade 3 only,
# so J_2 falls past the order; interval: 1..3 after 0..1 is 0..3, and nothing follows it)
EDGE_SUPPORTS = {
    "nat": {"dense": [1, 2, 4], "grade-2": [2], "early-empty": [3]},
    "interval:0..4": {"dense": [(0, 1), (1, 2), (0, 2), (2, 4)],
                      "grade-2": [(0, 2), (1, 3), (2, 4)], "early-empty": [(0, 1), (1, 3)]},
}


@pytest.mark.parametrize("matrix", [False, True], ids=["fraction", "matrix"])
@pytest.mark.parametrize("spec", sorted(EDGE_SUPPORTS))
def test_iterated_integrals_stay_independent_and_exact_at_their_edges(spec, matrix, monkeypatch):
    """With the level solve and the ODE solver made to fail, the simplex integrals
    reproduce the full-order oracle's values and reprs at grade 0 (the unit), at an
    unreachable grade (the value algebra's zero, a Fraction for scalar paths) and on
    a support whose layers empty out before the grade asked."""
    paths_ = {name: edge_path(spec, matrix, support)
              for name, support in EDGE_SUPPORTS[spec].items()}
    expected = {name: full_order_iterated_integrals(v) for name, v in paths_.items()}

    def fail(*args):
        raise AssertionError("the simplex integrals reached an ODE solver")

    monkeypatch.setattr(FormalSeries, "_level_solve", fail)
    monkeypatch.setattr(paths, "solve_left_ode", fail)
    got = {name: [iterated_integrals(v, g) for g in range(5)] for name, v in paths_.items()}
    assert repr(got) == repr(expected)
    unit, zero = paths_["dense"].unit.unit, paths_["dense"].unit.zero_coeff
    assert got["dense"][0] == unit and all(got["dense"])
    assert type(got["grade-2"][3]) is type(zero) and got["grade-2"][3] == zero
    assert got["early-empty"][3] and not got["early-empty"][4]


def inverse_product_log_derivative(u):
    """Oracle: du/ds times the series inverse of u, as one full product."""
    du = FormalSeries._trusted(u.groupoid, u.order,
                               {e: p.derivative() for e, p in u.coeffs.items()}, u.unit)
    return AlgebraPath._trusted(u.groupoid, u.order, (du * u.inverse()).coeffs, u.unit)


@given(polynomial_paths(groupoids=(NAT, make_interval_groupoid(0, 4),
                                   from_spec("box:2:0..2,0..2"))))
def test_left_log_derivative_matches_the_inverse_product(w):
    """On unital paths drawn directly: the unit plus a drawn direction w."""
    gpd, unit = w.groupoid, w.unit.unit
    u = AlgebraPath(gpd, w.order, {**w.coeffs, gpd.neutral: CoeffPoly.one(unit)}, unit)
    v = left_log_derivative(u)
    assert v == inverse_product_log_derivative(u)
    assert v == AlgebraPath(gpd, v.order, v.coeffs, unit)


@pytest.mark.parametrize("grade", [-1, 4, 1.0, True],
                         ids=["negative", "above-order", "float", "bool"])
def test_iterated_integrals_reject_invalid_grades(grade):
    with pytest.raises(ValueError, match="grade must be an int"):
        iterated_integrals(const_q_path(), grade)


def test_iterated_integrals_match_ode_solution():
    rng = random.Random(43)
    for v in random_paths(rng, 8):
        u1 = solve_left_ode(v)(1)
        for m in range(v.order + 1):
            assert iterated_integrals(v, m) == grade_component(u1, m)


# -- constant-path exponential -------------------------------------------------

def test_exp_const_equals_series_exp_and_ode():
    rng = random.Random(47)
    unit = RationalMatrix.identity(2)
    a = FormalSeries(NAT, 3, {1: RationalMatrix(
        [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]),
        2: RationalMatrix.unit(2, 0, 1)}, unit)
    one = FormalSeries.one(NAT, 3, unit)
    term, partial = one, one
    for k in range(1, 4):  # grades above 3 are truncated, so a^4 = 0
        term = (term * a).scale(Fraction(1, k))
        partial = partial + term
    assert partial == a.exp()
    constant = AlgebraPath(a.groupoid, a.order,
                           {e: CoeffPoly.constant(v, a.unit) for e, v in a.coeffs.items()},
                           a.unit)
    assert solve_left_ode(constant)(1) == a.exp()


def test_exp_const_zero():
    z = FormalSeries.zero(NAT, 3)
    assert z.exp() == FormalSeries.one(NAT, 3)


# -- convergence ------------------------------------------------------------------

def test_convergence_ratio_band():
    from cobordseries.paths import convergence_suite_paths

    for name, v in convergence_suite_paths(4).items():
        rows = convergence_table(v, [8, 16, 32, 64])
        ratios = error_ratios(rows)
        assert ratios, f"expected a nonzero error sequence for {name}"
        for row in ratios:
            assert 1.7 <= row["ratio"] <= 2.3, (name, row)


def test_convergence_error_is_first_order():
    # the grade-2 error of the constant direction is exactly 1/(2n)
    rows = convergence_table(const_q_path(2), [8, 16, 32, 64])
    by_n = {r["n"]: r["error"] for r in rows if r["grade"] == 2}
    for n, err in by_n.items():
        assert err == pytest.approx(1 / (2 * n), abs=0, rel=1e-12)
    n = 2 ** 20
    error = solve_left_ode(const_q_path(2))(1) - euler_product(const_q_path(2), n, 1)
    assert grade_component(error, 2) == Fraction(1, 2 * n)


@pytest.mark.parametrize("ns", [8, None, 2.5], ids=["int", "none", "float"])
def test_convergence_table_rejects_a_step_count_for_the_list(ns):
    with pytest.raises(ValueError, match="ns must be an iterable of step counts"):
        convergence_table(const_q_path(), ns)


@pytest.mark.parametrize("bad", [0, True, 2.5, "8"])
def test_convergence_table_checks_each_step_count_as_euler_product_does(bad):
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        convergence_table(const_q_path(), [8, bad])


@pytest.mark.parametrize("flag", [True, False])
def test_coeff_norm_rejects_a_bool(flag):
    with pytest.raises(ValueError, match="no norm for coefficient type bool"):
        coeff_norm(flag)


# -- the Euler product as the level solve with the left Riemann sum ---------------

def sequential_euler(v, n, s):
    """Oracle: the ordered product of the j = floor(ns) step factors and the
    leading remainder factor, multiplied one series product at a time."""
    gpd = v.groupoid
    j = int(n * s)
    one = FormalSeries.one(gpd, v.order, v.unit.unit)
    out = one + v(Fraction(j, n)).scale(s - Fraction(j, n))
    step = Fraction(1, n)
    for i in range(1, j + 1):
        out = out * (one + v(Fraction(j - i, n)).scale(step))
    return out


@st.composite
def step_counts_and_times(draw):
    """n in 1..40 and a time in [0, 1]: 0, 1, a grid point j/n or a point off it."""
    n = draw(st.integers(1, 40))
    s = draw(st.one_of(st.sampled_from([0, 1, Fraction(1)]),
                       st.integers(0, n).map(lambda j: Fraction(j, n)),
                       st.fractions(0, 1, max_denominator=97)))
    return n, s


EULER_GROUPOIDS = (NAT, from_spec("interval:0..4"), from_spec("box:2:0..2,0..2"))


def assert_matches_sequential(v, n, s):
    fast, slow = euler_product(v, n, s), sequential_euler(v, n, Fraction(s))
    assert fast == slow
    assert repr(fast) == repr(slow)


@given(polynomial_paths(groupoids=EULER_GROUPOIDS, max_length=4), step_counts_and_times())
def test_euler_product_matches_the_sequential_product(v, n_and_s):
    """Over the naturals, an interval and a box window, with rational and 2x2
    matrix coefficients of degree 0..3, on and off the step grid."""
    assert_matches_sequential(v, *n_and_s)


SUITE_PATHS = convergence_suite_paths(4)
EULER_CASES = [(name, n, s) for name in SUITE_PATHS for n in (1, 2, 3, 7)
               for s in (0, Fraction(1, 3), Fraction(5, 7), 1)]


@pytest.mark.parametrize("name, n, s", EULER_CASES)
def test_euler_product_matches_the_sequential_product_on_the_suite_paths(name, n, s):
    assert_matches_sequential(SUITE_PATHS[name], n, s)


@pytest.mark.parametrize("name", list(SUITE_PATHS))
def test_convergence_table_matches_the_sequential_table(name, monkeypatch):
    ns = [8, 16, 32, 64, 128]
    table = convergence_table(SUITE_PATHS[name], ns)
    monkeypatch.setattr(paths, "euler_product", sequential_euler)
    assert table == convergence_table(SUITE_PATHS[name], ns)


def test_flipping_b1_breaks_the_euler_product(monkeypatch):
    """With B_1 = +1/2 the left sum becomes the sum over 1..k, and the Euler
    product stops matching the sequential oracle."""
    row = paths._faulhaber_row
    row(40)  # every row the cases reach, built unflipped before the patch
    monkeypatch.setattr(paths, "_faulhaber_row",
                        lambda d: tuple(-r if j == 1 else r for j, r in enumerate(row(d))))
    try:
        for name, n, s in EULER_CASES:
            if n > 1 and s == 1:
                with pytest.raises(AssertionError):
                    assert_matches_sequential(SUITE_PATHS[name], n, s)
    finally:
        monkeypatch.undo()
        row.cache_clear()  # rows built under the flip must not outlive it


def test_bernoulli_numbers():
    expected = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42),
                0, Fraction(-1, 30), 0, Fraction(5, 66), 0, Fraction(-691, 2730)]
    assert [_bernoulli(m) for m in range(13)] == expected


def left_sum_polys(matrix):
    """One polynomial of each degree 0..12, every coefficient nonzero."""
    rng = random.Random(53 + matrix)
    unit = MATRIX_UNIT if matrix else ONE

    def coeff():
        value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
        if matrix:
            return RationalMatrix([[value, rng.randint(-2, 2)], [Fraction(1, 3), -value]])
        return value

    return [CoeffPoly([coeff() for _ in range(d + 1)], unit) for d in range(13)]


@pytest.mark.parametrize("h", [1, Fraction(1, 2), Fraction(1, 7), Fraction(1, 128)])
@pytest.mark.parametrize("matrix", [False, True], ids=["fraction", "matrix"])
def test_left_sum_is_the_exact_left_riemann_sum(h, matrix):
    for p in left_sum_polys(matrix):
        left = p._left_sum(h)
        for k in range(7):
            direct = p.zero_coeff
            for i in range(k):
                direct = direct + p(i * h) * h
            assert left(k * h) == direct


@pytest.mark.parametrize("matrix", [False, True], ids=["fraction", "matrix"])
def test_left_sum_at_step_zero_is_the_integral(matrix):
    for p in left_sum_polys(matrix):
        antiderivative = CoeffPoly([p.zero_coeff] + [c * Fraction(1, d + 1)
                                                     for d, c in enumerate(p.coeffs)], p.unit)
        assert p._left_sum(0) == antiderivative
        assert CoeffPoly._dot([(p, CoeffPoly.one(p.unit))], shift=1) == antiderivative


def test_euler_product_of_a_million_steps_is_the_binomial_expansion():
    """(1 + q/n)^n at n = 10**6: grade m is C(n, m)/n^m exactly, which the
    sequential product would reach only after a million series products."""
    n = 10 ** 6
    u = euler_product(SUITE_PATHS["constant"], n, 1)
    for m in range(5):
        assert u.coefficient(m) == Fraction(comb(n, m), n ** m)


def test_euler_product_checks_its_inputs_in_order():
    v = with_neutral_part()
    for n, s, message in [(0, 2, "n must be"), (4, 0.5, "time must be an int"),
                          (4, 2, "time must lie"), (4, 1, "neutral")]:
        with pytest.raises(ValueError, match=message):
            euler_product(v, n, s)
