"""Fraction-free RationalMatrix against a Fraction-rows oracle.

``FractionRowsMatrix`` is the earlier implementation, kept here as the
oracle: every entry a ``Fraction``, arithmetic entrywise over rows.  The
integer-numerator class must agree with it on every operation and public
view, and its storage must stay canonical (``den > 0``,
``gcd(den, *num) == 1``).  The second half checks the series laws on
generated exact matrix series, where products go through the trusted
series constructor.
"""

import doctest
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobordseries.matrices
from cobordseries.groupoids import from_spec
from cobordseries.matrices import RationalMatrix, _kernels
from cobordseries.series import FormalSeries


class FractionRowsMatrix:
    """Oracle: immutable n x n matrix stored as rows of Fractions."""

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.n = len(self.rows)

    def __eq__(self, other):
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __bool__(self):
        return any(any(x for x in row) for row in self.rows)

    def __add__(self, other):
        return FractionRowsMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                                        for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return FractionRowsMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                                        for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return FractionRowsMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, FractionRowsMatrix):
            cols = tuple(zip(*other.rows))
            return FractionRowsMatrix(tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows))
        return FractionRowsMatrix(tuple(tuple(a * other for a in row) for row in self.rows))

    def __pow__(self, k):
        out = FractionRowsMatrix(tuple(tuple(int(i == j) for j in range(self.n))
                                       for i in range(self.n)))
        for _ in range(k):
            out = out * self
        return out

    def inverse(self):
        n = self.n
        m = [list(row) for row in self.rows]
        b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for k in range(i, n):
                if m[k][i] != 0:
                    break
            else:
                raise ValueError("matrix is singular")
            m[i], m[k] = m[k], m[i]
            b[i], b[k] = b[k], b[i]
            inv = 1 / m[i][i]
            m[i] = [x * inv for x in m[i]]
            b[i] = [x * inv for x in b[i]]
            for j in range(n):
                if j != i and m[j][i] != 0:
                    d = m[j][i]
                    m[j] = [x - d * y for x, y in zip(m[j], m[i])]
                    b[j] = [x - d * y for x, y in zip(b[j], b[i])]
        return FractionRowsMatrix(b)

    def max_abs(self):
        return max(abs(x) for row in self.rows for x in row)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"RationalMatrix([{body}])"


# zero, small integers, negative and large-denominator fractions
entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)
scalars = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=10**9))


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(square(n)), draw(square(n))


def assert_canonical(m):
    assert m.den > 0
    assert math.gcd(m.den, *m.num) == 1
    assert len(m.num) == m.n * m.n


def assert_same(m, oracle):
    """Every public view of ``m`` equals the oracle's."""
    assert_canonical(m)
    assert m.rows == oracle.rows
    assert tuple(m) == oracle.rows
    assert hash(m) == hash(oracle)
    assert bool(m) == bool(oracle)
    assert repr(m) == repr(oracle)
    assert m.max_abs() == oracle.max_abs()
    assert all(m[i, j] == oracle.rows[i][j] for i in range(m.n) for j in range(m.n))
    assert m == RationalMatrix(oracle.rows)


@given(matrix_pairs(), scalars, st.integers(0, 4))
def test_matches_fraction_rows_oracle(pair, k, power):
    rows_a, rows_b = pair
    a, b = RationalMatrix(rows_a), RationalMatrix(rows_b)
    oa, ob = FractionRowsMatrix(rows_a), FractionRowsMatrix(rows_b)
    assert_same(a, oa)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(-a, -oa)
    assert_same(a * b, oa * ob)
    assert_same(a * k, oa * k)
    assert_same(k * a, oa * k)
    assert_same(a ** power, oa ** power)
    assert (a == b) == (oa == ob)
    assert a - a == a * 0
    try:
        expected = oa.inverse()
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        assert_same(a.inverse(), expected)


@st.composite
def sized_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(square(n)), draw(square(n))


@given(sized_pairs(), st.integers(-5, 5), st.fractions(max_denominator=10**9),
       st.integers(0, 3))
def test_kernels_match_fraction_rows_oracle_up_to_size_five(pair, k, q, power):
    rows_a, rows_b = pair
    a, b = RationalMatrix(rows_a), RationalMatrix(rows_b)
    oa, ob = FractionRowsMatrix(rows_a), FractionRowsMatrix(rows_b)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(-a, -oa)
    assert_same(a * b, oa * ob)
    assert_same(a * k, oa * k)
    assert_same(a * q, oa * q)
    assert_same(q * a, oa * q)
    assert_same(a ** power, oa ** power)


def test_kernels_are_compiled_once_per_size():
    assert _kernels(2) is _kernels(2)
    assert _kernels(3) is not _kernels(2)


def test_equal_matrices_have_equal_storage():
    a = RationalMatrix([[Fraction(2, 4), 1], [0, "3/6"]])
    b = RationalMatrix([[1, 2], [0, 1]]) * Fraction(1, 2)
    assert (a.num, a.den) == (b.num, b.den) == ((1, 2, 0, 1), 2)
    zero = a - b
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)


# -- the public constructor and scalar operands reject inexact input ---------

@pytest.mark.parametrize("bad", [0.1, True, float("inf"), float("nan"), None, "x/2",
                                 1 + 2j])
def test_constructor_rejects_non_rational_entries(bad):
    with pytest.raises(ValueError, match="matrix entry|Invalid literal"):
        RationalMatrix([[bad, 0], [0, 1]])


def test_constructor_accepts_ints_fractions_and_rational_strings():
    m = RationalMatrix([["1/2", Fraction(-3, 9)], [7, "0"]])
    assert m.rows == ((Fraction(1, 2), Fraction(-1, 3)), (Fraction(7), Fraction(0)))


@pytest.mark.parametrize("rows", [["12", "34"], [[1, 2], "34"], [(1, 2), {3, 4}]],
                         ids=["strings", "one-string", "set"])
def test_constructor_rejects_rows_that_are_not_lists_or_tuples(rows):
    with pytest.raises(ValueError, match="lists or tuples"):
        RationalMatrix(rows)


@pytest.mark.parametrize("index", [(True, 0), (0, False), (0, -1), (-1, 0), (2, 0), (0, 2),
                                   (1.0, 0), (0, Fraction(1))],
                         ids=["bool-row", "bool-column", "negative-column", "negative-row",
                              "row-past-end", "column-past-end", "float", "fraction"])
def test_entry_index_must_be_an_int_in_range(index):
    m = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="matrix index"):
        m[index]


@pytest.mark.parametrize("args", [(2, 5, 5), (2, True, 0), (2, 0, 1.0), (True, 0, 0)],
                         ids=["index-past-end", "bool-row", "float-column", "bool-size"])
def test_unit_rejects_an_index_outside_the_matrix(args):
    with pytest.raises(ValueError, match="matrix index|matrix size"):
        RationalMatrix.unit(*args)


@pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
def test_identity_size_must_be_an_int(n):
    with pytest.raises(ValueError, match="matrix size"):
        RationalMatrix.identity(n)


def test_scalar_product_rejects_bool():
    m = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m * True
    with pytest.raises(ValueError):
        False * m


def test_power_rejects_bool_and_negative():
    m = RationalMatrix([[1, 2], [3, 4]])
    for bad in (True, -1, 2.0):
        with pytest.raises(ValueError):
            m ** bad


def test_matrices_doctests_pass():
    result = doctest.testmod(cobordseries.matrices)
    assert result.attempted > 0
    assert result.failed == 0


# -- laws on generated exact matrix series -----------------------------------

GROUPOIDS = [from_spec(spec) for spec in ("nat", "interval:0..4", "box:2:0..2,0..2")]
small_matrices = square(2).map(RationalMatrix)


@st.composite
def matrix_series(draw, gpd=None, order=None):
    if gpd is None:
        gpd = draw(st.sampled_from(GROUPOIDS))
    if order is None:
        order = draw(st.integers(1, 4))
    elems = [e for e in gpd.elements_up_to(order) if gpd.ord(e) >= 1]
    picked = draw(st.lists(st.sampled_from(elems), max_size=5, unique=True))
    coeffs = {e: draw(small_matrices) for e in picked}
    return FormalSeries(gpd, order, coeffs, RationalMatrix.identity(2))


@given(matrix_series())
def test_exp_log_and_inverse_laws(a):
    one = FormalSeries.one(a.groupoid, a.order, a.unit)
    u = a.exp()
    assert u.log() == a
    assert (one + a).log().exp() == one + a
    assert u * u.inverse() == one
    assert u.inverse() * u == one


@given(st.data())
def test_trusted_product_equals_validated_series(data):
    a = data.draw(matrix_series())
    b = data.draw(matrix_series(a.groupoid, a.order))
    for out in (a * b, a + b, a - b, -a, a.scale(Fraction(-2, 3)), (a + b).exp()):
        assert all(out.coeffs.values())
        assert FormalSeries(out.groupoid, out.order, out.coeffs, out.unit) == out
