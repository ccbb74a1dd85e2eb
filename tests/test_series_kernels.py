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

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobordseries import paths, series
from cobordseries.groupoids import BoxGroupoid, from_spec
from cobordseries.groups import GroupFunction, cyclic
from cobordseries.matrices import RationalMatrix
from cobordseries.paths import (
    AlgebraPath, CoeffPoly, euler_product, iterated_integrals, left_log_derivative,
    solve_left_ode,
)
from cobordseries.series import FormalSeries, _dot, coeff_to_payload


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


# -- fused sums of products -------------------------------------------------------
#
# ``series._dot`` finishes every output coefficient of the kernels above with one
# normalization.  ``pairwise_dot`` is the earlier per-pair accumulate, kept here as
# its oracle: each a·b formed and added left to right, a time-polynomial pair by
# the earlier double loop over coefficient pairs.

def pairwise_mul(a, b):
    """Oracle product: a time-polynomial pair by the double loop, else ``*``."""
    if not isinstance(a, CoeffPoly):
        return a * b
    if not a.coeffs or not b.coeffs:
        return CoeffPoly((), a.unit)
    out = [a.zero_coeff] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if not y:
                continue
            out[i + j] = out[i + j] + x * y
    return CoeffPoly(out, a.unit)


def pairwise_dot(pairs, start=None, ratio=1):
    """Oracle: start + a·b + ... added left to right, one product at a time, then
    times ``ratio`` as one separate scalar product."""
    for a, b in pairs:
        term = pairwise_mul(a, b)
        start = term if start is None else start + term
    return start if ratio == 1 else start * ratio


def payload(value):
    if isinstance(value, CoeffPoly):
        return [coeff_to_payload(c) for c in value.coeffs]
    return coeff_to_payload(value)


I2, I3 = RationalMatrix.identity(2), RationalMatrix.identity(3)
scalars = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
# the ratios of exp/log terms and others: nonzero ints and Fractions of either sign
RATIOS = st.one_of(st.integers(-3, 3).filter(bool),
                   st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)))


def square(n):
    return st.lists(scalars, min_size=n * n, max_size=n * n).map(
        lambda v: RationalMatrix([v[i * n:(i + 1) * n] for i in range(n)]))


# each entry draws the strategy of one coefficient algebra
DOT_ALGEBRAS = {
    "scalar": st.just(scalars),
    "matrix": st.sampled_from([square(n) for n in range(1, 6)]),
    "scalar-poly": st.just(st.lists(scalars, max_size=3).map(CoeffPoly)),
    "matrix-poly": st.just(st.lists(square(2), max_size=3).map(lambda c: CoeffPoly(c, I2))),
}


@given(st.data())
def test_dot_matches_the_pairwise_accumulate(data):
    values = data.draw(st.sampled_from(sorted(DOT_ALGEBRAS)).flatmap(DOT_ALGEBRAS.get))
    pairs = data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=4))
    cancel = data.draw(st.booleans())
    if cancel:  # every product met by its negative: the result is exactly ratio·start
        pairs += [(-a, b) for a, b in pairs]
    start = data.draw(st.one_of(st.none(), values))
    ratio = data.draw(st.one_of(st.just(1), RATIOS))
    out, oracle = _dot(pairs, start, ratio), pairwise_dot(pairs, start, ratio)
    assert out == oracle
    assert payload(out) == payload(oracle)
    if cancel:
        assert out == (pairs[0][0] * 0 if start is None else start * ratio)


@given(st.data())
def test_integrating_dot_matches_the_pairwise_integral(data):
    """With shift=1 the time-polynomial ``_dot`` is the pairwise accumulate's
    antiderivative, start and ratio included, with the same coefficient types (an int
    unit's zeros are ints, but a zero coefficient of an integral is a Fraction)."""
    unit = data.draw(st.sampled_from([Fraction(1), 1, I2]))
    values = st.lists(square(2) if unit is I2 else scalars, max_size=3).map(
        lambda c: CoeffPoly(c, unit))
    pairs = data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=4))
    start = data.draw(st.one_of(st.none(), values))
    ratio = data.draw(st.one_of(st.just(1), RATIOS))
    out = CoeffPoly._dot(pairs, start, ratio, shift=1)
    oracle = pairwise_dot(pairs, start, ratio)._left_sum(0)
    assert out == oracle
    assert repr(out) == repr(oracle)


def test_dot_sums_float_group_functions_left_to_right():
    """Floats keep the earlier order of additions, then one product by a ratio,
    bit for bit."""
    rng = random.Random(3)
    group = cyclic(3)
    fs = [GroupFunction(group, tuple(rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                                     for _ in range(3))) for _ in range(8)]
    for start, ratio in ((None, 1), (fs[0], 1), (None, Fraction(1, 3)), (fs[0], -2)):
        out = _dot(list(zip(fs[:4], fs[4:])), start, ratio)
        oracle = pairwise_dot(list(zip(fs[:4], fs[4:])), start, ratio)
        assert [x.hex() for x in out.values] == [x.hex() for x in oracle.values]


@pytest.mark.parametrize("pairs,start", [
    ([(I2, I3)], None),
    ([(I2, I2), (I3, I2)], None),
    ([(I2, I2), (I3, I3)], None),
    ([(I2, I2)], I3),
], ids=["pair", "mixed-pair", "two-sizes", "start"])
def test_dot_rejects_matrices_of_two_sizes(pairs, start):
    with pytest.raises(ValueError, match="matrix size mismatch"):
        _dot(pairs, start)


def forbid(monkeypatch, cls, names, operands=object):
    """Make the named operators of ``cls`` fail on an operand of type ``operands``."""
    for name in names:
        def guarded(self, other, method=getattr(cls, name), name=name):
            if isinstance(other, operands):
                raise AssertionError(f"per-pair {cls.__name__}.{name}")
            return method(self, other)
        monkeypatch.setattr(cls, name, guarded)


def test_dot_forms_no_per_pair_product_or_sum(monkeypatch):
    """Over several pairs no a·b or running sum is normalized on its own."""
    m = [RationalMatrix([[Fraction(k, 3), 1], [k, Fraction(-1, k + 1)]]) for k in range(4)]
    p = [CoeffPoly((m[k], m[3 - k]), I2) for k in range(4)]
    cases = [
        ([(Fraction(1, 2), Fraction(2, 3)), (Fraction(-3, 4), Fraction(5, 7))], Fraction(1, 5)),
        (list(zip(m[:2], m[2:])), m[0]),
        (list(zip(p[:2], p[2:])), p[0]),
    ]
    expected = [pairwise_dot(pairs, start) for pairs, start in cases]
    ops = ("__add__", "__radd__", "__mul__", "__rmul__")
    forbid(monkeypatch, Fraction, ops)
    forbid(monkeypatch, CoeffPoly, ("__add__", "__mul__"))
    forbid(monkeypatch, RationalMatrix, ("__add__",))
    forbid(monkeypatch, RationalMatrix, ("__mul__",), RationalMatrix)
    assert [_dot(pairs, start) for pairs, start in cases] == expected


# -- exp and log: one power sum, each term's coefficients normalized once ------------
#
# ``power_series_exp`` and ``power_series_log`` are the earlier exp and log, kept
# here as oracles: each term a product of series, then scaled by 1/k or ±1/k.

def power_series_exp(a):
    """Oracle: Σ a^k / k!, each term (term * a).scale(1/k)."""
    result = term = a._unit_series()
    for k in range(1, a.order + 1):
        term = (term * a).scale(Fraction(1, k))
        result = result + term
    return result


def power_series_log(u):
    """Oracle: Σ (-1)^(k+1) a^k / k for a = u - 1, each term power.scale(±1/k)."""
    power = u._unit_series()
    a, result = u - power, type(u)._trusted(u.groupoid, u.order, {}, u.unit)
    for k in range(1, u.order + 1):
        power = power * a
        result = result + power.scale(Fraction((-1) ** (k + 1), k))
    return result


matrices3 = st.lists(small, min_size=9, max_size=9).map(
    lambda v: RationalMatrix([v[:3], v[3:6], v[6:]]))


def path_polys(values, unit):
    return st.lists(values, max_size=3).map(lambda c: CoeffPoly(c, unit))


# coefficient strategy, unit and series class of each algebra exp and log run over
EXP_ALGEBRAS = {
    "fraction": (small, Fraction(1), FormalSeries),
    "matrix2": (matrices, I2, FormalSeries),
    "matrix3": (matrices3, I3, FormalSeries),
    "path": (path_polys(small, Fraction(1)), Fraction(1), AlgebraPath),
    "matrix-path": (path_polys(matrices, I2), I2, AlgebraPath),
}


@st.composite
def exp_inputs(draw):
    """A zero-neutral series over nat, an interval or a box, in one algebra."""
    order = draw(st.integers(0, 4))
    gpd = GROUPOIDS[draw(st.sampled_from(sorted(GROUPOIDS)))](max(order, 1))
    values, unit, cls = EXP_ALGEBRAS[draw(st.sampled_from(sorted(EXP_ALGEBRAS)))]
    elems = [e for e in gpd.elements_up_to(order) if gpd.ord(e) >= 1]
    picked = draw(st.lists(st.sampled_from(elems), max_size=6, unique=True)) if elems else []
    return cls(gpd, order, {e: draw(values) for e in picked}, unit)


@given(exp_inputs())
def test_exp_and_log_match_the_scaled_power_sums(a):
    one = a._unit_series()
    assert_same(a.exp(), power_series_exp(a))
    assert_same((one + a).log(), power_series_log(one + a))
    assert type(a.exp()) is type((one + a).log()) is type(a)


@pytest.mark.parametrize("algebra", sorted(EXP_ALGEBRAS))
@pytest.mark.parametrize("spec", ["nat", "interval:0..4", "box:2:0..2,0..2"])
def test_exp_and_log_scale_no_term(spec, algebra, monkeypatch):
    """No term is a series product or ``scale``d, and no coefficient is
    multiplied on its own: every product and ratio sits in a ``_dot``."""
    gpd = from_spec(spec)
    rng = random.Random(len(spec) + len(algebra))
    _, unit, cls = EXP_ALGEBRAS[algebra]

    def value():
        if isinstance(unit, Fraction):
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4)) or unit
        return RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(unit.n)] for _ in range(unit.n)])

    def coeff():
        return CoeffPoly([value() for _ in range(3)], unit) if cls is AlgebraPath else value()

    elems = [e for e in gpd.elements_up_to(4) if gpd.ord(e) >= 1]
    a = cls(gpd, 4, {e: coeff() for e in rng.sample(elems, min(6, len(elems)))}, unit)
    u = a._unit_series() + a
    expected = power_series_exp(a), power_series_log(u)
    forbid(monkeypatch, FormalSeries, ("scale", "__mul__"))
    for cls_ in (Fraction, RationalMatrix, CoeffPoly):
        forbid(monkeypatch, cls_, ("__mul__", "__rmul__"))
    assert (a.exp(), u.log()) == expected


# -- the kernels on the fused sum against the pairwise reference --------------------

def kernel_inputs(spec, matrix_valued, seed):
    """Two zero-neutral series and a path direction over ``spec`` at order 4."""
    rng = random.Random(seed)
    gpd = from_spec(spec)
    elems = [e for e in gpd.elements_up_to(4) if gpd.ord(e) >= 1]
    unit = I2 if matrix_valued else Fraction(1)

    def coeff():
        if matrix_valued:
            return RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(2)] for _ in range(2)])
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4)) or unit

    def support(k):
        return rng.sample(elems, min(k, len(elems)))

    def draw_series():
        return FormalSeries(gpd, 4, {e: coeff() for e in support(8)}, unit)

    v = AlgebraPath(gpd, 4, {e: CoeffPoly([coeff() for _ in range(rng.randint(1, 3))], unit)
                             for e in support(6)}, unit)
    return draw_series(), draw_series(), v


def kernel_outputs(a, b, v):
    one = FormalSeries.one(a.groupoid, a.order, a.unit)
    u = solve_left_ode(v)
    return [a * b, b * a, (one + a).inverse(), a.exp(), (one + b).log(), u,
            left_log_derivative(u), [iterated_integrals(v, m) for m in range(5)],
            euler_product(v, 4, Fraction(3, 4)), v.exp(), u.log()]


def counted(calls, name, fn):
    """``fn``, counting its calls on more than one pair or with a start (a kernel
    that fell back to one product at a time would make none) and, apart, its
    calls with a ratio other than 1 and those that integrate (``shift``)."""
    def wrapper(pairs, start=None, ratio=1, **shift):
        calls[name] += len(pairs) > 1 or start is not None
        calls[name, "ratio"] += ratio != 1
        calls[name, "shift"] += bool(shift.get("shift"))
        return fn(pairs, start, ratio, **shift)
    return wrapper


def pairwise_integral(pairs, start=None, ratio=1, shift=0):
    """Oracle for the integrating ``CoeffPoly._dot``: ``pairwise_dot``, then the
    antiderivative ``_left_sum(0)``; any other call is a fused kernel reached."""
    if not shift:
        raise AssertionError("the reference reached a fused kernel")
    return pairwise_dot(pairs, start, ratio)._left_sum(0)


@pytest.mark.parametrize("matrix_valued", [False, True], ids=["fraction", "matrix"])
@pytest.mark.parametrize("spec", ["nat", "interval:0..4", "box:2:0..2,0..2"])
def test_kernels_match_the_pairwise_reference(spec, matrix_valued, monkeypatch):
    """Products, inverse, exp/log of series and of paths, both ODE directions, the
    simplex integrals and the Euler product give the same exact values on the fused
    sum as with every coefficient built pair by pair, each time integral the pairwise
    sum's ``_left_sum(0)``; the fused kernels, the integrating one too, must be reached."""
    a, b, v = kernel_inputs(spec, matrix_valued, seed=len(spec) + matrix_valued)
    calls = Counter()
    with monkeypatch.context() as patch:
        for module in (series, paths):
            patch.setattr(module, "_dot", counted(calls, "dot", series._dot))
        patch.setattr(RationalMatrix, "_dot", staticmethod(
            counted(calls, "matrix", RationalMatrix._dot)))
        patch.setattr(CoeffPoly, "_dot", staticmethod(counted(calls, "poly", CoeffPoly._dot)))
        fused = kernel_outputs(a, b, v)
    assert calls["dot"] and calls["poly"] and bool(calls["matrix"]) == matrix_valued
    assert calls["dot", "ratio"] and calls["poly", "ratio"] and calls["poly", "shift"]
    assert bool(calls["matrix", "ratio"]) == matrix_valued

    def unreachable(*args):
        raise AssertionError("the reference reached a fused kernel")

    poly_mul = CoeffPoly.__mul__
    with monkeypatch.context() as patch:
        for module in (series, paths):
            patch.setattr(module, "_dot", pairwise_dot)
        patch.setattr(RationalMatrix, "_dot", unreachable)
        patch.setattr(CoeffPoly, "_dot", staticmethod(
            counted(calls, "reference", pairwise_integral)))
        patch.setattr(CoeffPoly, "__mul__", lambda p, q: pairwise_mul(p, q)
                      if isinstance(q, CoeffPoly) else poly_mul(p, q))
        reference = kernel_outputs(a, b, v)
    assert calls["reference", "shift"]
    assert fused == reference
    assert repr(fused) == repr(reference)
