import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobordseries.groupoids import make_interval_groupoid, make_nat_monoid
from cobordseries.matrices import RationalMatrix
from cobordseries.paths import (
    AlgebraPath, CoeffPoly, convergence_table, error_ratios,
    euler_product, grade_component, iterated_integrals,
    left_log_derivative, solve_left_ode,
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
    assert p.integral().coeffs == (0, ONE, ONE)
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
        assert u(0) == FormalSeries.one(v.groupoid, v.order, v.unit)


def test_left_log_derivative_recovers_direction_exactly():
    rng = random.Random(41)
    for v in random_paths(rng, 12):
        u = solve_left_ode(v)
        assert left_log_derivative(u) == v


def test_solution_unique_under_decomposition_reorder(monkeypatch):
    v = AlgebraPath(NAT, 4, {1: CoeffPoly((ONE, Fraction(1, 2))),
                             2: CoeffPoly.constant(Fraction(1, 3))})
    u_first = solve_left_ode(v)
    original = NAT.__class__.decompositions

    def reversed_decs(self, k):
        return list(reversed(original(self, k)))

    monkeypatch.setattr(NAT.__class__, "decompositions", reversed_decs)
    u_second = solve_left_ode(v)
    monkeypatch.undo()
    assert u_first == u_second


# -- iterated integrals -----------------------------------------------------------

def test_simplex_volume_grade_two():
    assert iterated_integrals(const_q_path(), 2) == Fraction(1, 2)


def test_simplex_linear_grade_two():
    assert iterated_integrals(linear_q_path(), 2) == Fraction(1, 8)


def test_unreachable_grade_gives_zero():
    v = AlgebraPath(NAT, 3, {2: CoeffPoly.constant(ONE)})
    assert iterated_integrals(v, 3) == 0


def full_order_iterated_integrals(v, grade):
    """Oracle: every layer built at the path's order, then one grade kept."""
    gpd = v.groupoid
    v_series = v.as_poly_series()
    poly_unit = CoeffPoly.one(v.unit)
    total = FormalSeries.one(gpd, v.order, poly_unit)
    layer = total
    for _ in range(1, grade + 1):
        layer = v_series * layer
        layer = FormalSeries._trusted(gpd, v.order,
                                      {e: p.integral() for e, p in layer.coeffs.items()},
                                      poly_unit)
        total = total + layer
    return grade_component(total, grade)(1)


@st.composite
def polynomial_paths(draw):
    """Direction paths over the naturals or an interval window, with
    rational or 2x2 rational-matrix polynomial coefficients."""
    order = draw(st.integers(0, 4))
    gpd = draw(st.sampled_from((NAT, make_interval_groupoid(0, 4))))
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
            polys[elem] = CoeffPoly([coeff() for _ in range(draw(st.integers(1, 3)))],
                                    unit)
    return AlgebraPath(gpd, order, polys, unit)


@given(polynomial_paths())
def test_iterated_integrals_match_full_order_layers(v):
    for grade in range(v.order + 1):
        assert iterated_integrals(v, grade) == full_order_iterated_integrals(v, grade)


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
