"""Grade-by-grade series kernels against the all-pairs and Horner oracles.

``all_pairs_product`` and ``horner_inverse`` are the earlier kernels, kept
here as oracles: the product composes every coefficient pair through the
public, validating ``compose`` and grades each composite with ``ord``; the
inverse runs the Horner form of 1 - a + a^2 - ... with N such products.
The library's kernels group coefficients by grade and compose validated
supports with ``_compose``; they must give the same coefficient dicts, with
no zero coefficient, over every groupoid and coefficient algebra below.  The
left-ODE solvers of ``paths`` run on the same kernel, and each composes every
support pair it needs once.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobordseries.groupoids import BoxGroupoid, from_spec
from cobordseries.matrices import RationalMatrix
from cobordseries.paths import AlgebraPath, CoeffPoly, left_log_derivative, solve_left_ode
from cobordseries.series import FormalSeries


def all_pairs_product(a, b):
    """Oracle: every pair composed by the public ``compose``, graded by ``ord``."""
    gpd = a.groupoid
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            k = gpd.compose(i, j)
            if k is None or gpd.ord(k) > a.order:
                continue
            term = x * y
            out[k] = out[k] + term if k in out else term
    return FormalSeries(gpd, a.order, out, a.unit)


def horner_inverse(u):
    """Oracle: the Horner loop out = 1 - a·out, run N times."""
    one = FormalSeries.one(u.groupoid, u.order, u.unit)
    a = u - one
    out = one
    for _ in range(u.order):
        out = one - all_pairs_product(a, out)
    return out


# -- generated series ----------------------------------------------------------

GROUPOIDS = {
    "nat": lambda order: from_spec("nat"),
    "interval": lambda order: from_spec(f"interval:0..{order}"),
    "box-axis0": lambda order: BoxGroupoid(((0, 2), (0, 2)), axis=0),
    "box-axis1": lambda order: BoxGroupoid(((0, 3), (0, 2)), axis=1),
}

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
matrices = st.lists(small, min_size=4, max_size=4).map(
    lambda v: RationalMatrix([v[:2], v[2:]]))
polys = st.lists(small, max_size=3).map(CoeffPoly)

# coefficient strategy and unit of each coefficient algebra
ALGEBRAS = {
    "fraction": (small, Fraction(1)),
    "matrix": (matrices, RationalMatrix.identity(2)),
    "poly": (polys, CoeffPoly.one()),
}


@st.composite
def structures(draw):
    """(groupoid, order, coefficient strategy, unit)."""
    order = draw(st.integers(0, 4))
    gpd = GROUPOIDS[draw(st.sampled_from(sorted(GROUPOIDS)))](max(order, 1))
    values, unit = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return gpd, order, values, unit


@st.composite
def series_over(draw, structure, neutral=True):
    """A series on up to six elements, with a neutral part when ``neutral``."""
    gpd, order, values, unit = structure
    elems = [e for e in gpd.elements_up_to(order) if gpd.ord(e) >= 1]
    picked = draw(st.lists(st.sampled_from(elems), max_size=6, unique=True)) if elems else []
    coeffs = {e: draw(values) for e in picked}
    if neutral:
        coeffs[gpd.neutral] = draw(st.one_of(st.just(unit), values))
    return FormalSeries(gpd, order, coeffs, unit)


def assert_same(out, oracle):
    assert out == oracle
    assert out.coeffs == oracle.coeffs
    assert all(out.coeffs.values())


@given(st.data())
def test_product_matches_all_pairs_oracle(data):
    structure = data.draw(structures())
    a = data.draw(series_over(structure, neutral=data.draw(st.booleans())))
    b = data.draw(series_over(structure, neutral=data.draw(st.booleans())))
    assert_same(a * b, all_pairs_product(a, b))
    assert_same(b * a, all_pairs_product(b, a))


@given(st.data())
def test_inverse_matches_horner_oracle(data):
    structure = data.draw(structures())
    gpd, order, _, unit = structure
    a = data.draw(series_over(structure, neutral=False))
    one = FormalSeries.one(gpd, order, unit)
    u = one + a
    ui = u.inverse()
    assert_same(ui, horner_inverse(u))
    assert u * ui == one and ui * u == one


@given(st.data())
def test_exp_log_round_trips_stay_exact(data):
    structure = data.draw(structures())
    a = data.draw(series_over(structure, neutral=False))
    one = FormalSeries.one(a.groupoid, a.order, a.unit)
    assert a.exp().log() == a
    assert (one + a).log().exp() == one + a
    assert a.exp() * (-a).exp() == one


def test_dense_inverse_matches_horner_oracle():
    """Every positive-grade element carries a coefficient, up to grade 6."""
    for spec in ("nat", "interval:0..6", "box:2:0..2,0..3"):
        gpd = from_spec(spec)
        elems = [e for e in gpd.elements_up_to(6) if gpd.ord(e) >= 1]
        coeffs = {e: RationalMatrix([[n % 3 - 1, Fraction(1, n + 1)], [n, 1]])
                  for n, e in enumerate(elems)}
        u = FormalSeries(gpd, 6, coeffs, RationalMatrix.identity(2)).exp()
        assert_same(u.inverse(), horner_inverse(u))


def count_compose_calls(gpd, monkeypatch):
    """Record every ``_compose`` call on this groupoid instance."""
    calls = []
    compose = gpd._compose

    def counted(i, j):
        calls.append((i, j))
        return compose(i, j)

    monkeypatch.setattr(gpd, "_compose", counted)
    return calls


@pytest.mark.parametrize("spec,values", [
    ("nat", None),
    ("interval:0..5", None),
    ("box:2:0..2,0..3", None),
    # 1/(1 + q + q^2) = 1 - q + q^3 - q^4: zero at grades 2 and 5
    ("nat", {1: Fraction(1), 2: Fraction(1)}),
], ids=["nat", "interval", "box", "nat-cancelling"])
def test_inverse_composes_each_pair_at_most_once(spec, values, monkeypatch):
    """The solve composes exactly the pairs (i, j) with i in supp(a), j in
    supp(u^-1) and grades summing to at most the order, each once, so
    never more than |supp(a)|·|supp(u^-1)| pairs."""
    gpd = from_spec(spec)
    if values is None:
        elems = [e for e in gpd.elements_up_to(5) if gpd.ord(e) >= 1]
        values = {e: Fraction(n + 1, 2) for n, e in enumerate(elems)}
    a = FormalSeries(gpd, 5, values)
    u = FormalSeries.one(gpd, 5) + a
    calls = count_compose_calls(gpd, monkeypatch)
    ui = u.inverse()
    expected = {(i, j) for i in a.coeffs for j in ui.coeffs
                if gpd.ord(i) + gpd.ord(j) <= 5}
    assert len(calls) == len(set(calls))
    assert set(calls) == expected
    assert len(calls) <= len(a.coeffs) * len(ui.coeffs)


@pytest.mark.parametrize("spec,values", [
    ("nat", None),
    ("interval:0..5", None),
    ("box:2:0..2,0..3", None),
    # v = 1 - s·q^2 solves to u with zero grade-2 part: u_2 = integral(s - s)
    ("nat", {1: CoeffPoly((Fraction(1),)), 2: CoeffPoly((0, Fraction(-1)))}),
], ids=["nat", "interval", "box", "nat-cancelling"])
def test_ode_solvers_compose_each_pair_at_most_once(spec, values, monkeypatch):
    """``solve_left_ode`` composes exactly the pairs (i, j) with i in supp(v),
    j in supp(u) and grades summing to at most the order, each once, and
    ``left_log_derivative`` those among them with ord(j) > 0."""
    gpd = from_spec(spec)
    if values is None:
        elems = [e for e in gpd.elements_up_to(5) if gpd.ord(e) >= 1]
        values = {e: CoeffPoly((Fraction(n + 1, 2), Fraction(-1, n + 2)))
                  for n, e in enumerate(elems)}
    v = AlgebraPath(gpd, 5, values)
    u = solve_left_ode(v)
    calls = count_compose_calls(gpd, monkeypatch)
    assert solve_left_ode(v) == u
    solve_calls = list(calls)
    calls.clear()
    assert left_log_derivative(u) == v
    expected = {(i, j) for i in v.coeffs for j in u.coeffs
                if gpd.ord(i) + gpd.ord(j) <= 5}
    for got, pairs in ((solve_calls, expected),
                       (calls, {(i, j) for i, j in expected if gpd.ord(j) > 0})):
        assert len(got) == len(set(got))
        assert set(got) == pairs
