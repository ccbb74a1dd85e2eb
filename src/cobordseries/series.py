"""Truncated formal series over a graded groupoid.

A series stores finitely many coefficients indexed by groupoid elements of
grade <= N; multiplication is graded convolution (grades above N are
dropped silently, mixing different N values is an error).  The coefficient
algebra is anything with +, -, * (including scalar int/Fraction on the
right) and a truthiness test for zero: Fraction scalars, RationalMatrix,
GroupFunction, and the time polynomials of the product-integral module all
qualify.  The validated constructor takes only coefficients of the unit's
type (ints and Fractions as well when the unit is an int or a Fraction),
and ``scale`` only ints and Fractions, so an exact series stays exact.

Because coefficients of positive grade are nilpotent at truncation N, the
exponential and logarithm are finite sums and are exact mutual inverses
over exact coefficient arithmetic.

The kernels work grade by grade: a product groups the right operand by grade
and pairs each left element only with the levels that stay within the order,
and the inverse solves w = 1 - a·w one grade at a time, one product's work
instead of N.  Both compose validated supports with the unchecked ``_compose``.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import RationalMatrix


class FormalSeries:
    """Finitely supported map {groupoid element -> coefficient}, grade <= order."""

    __slots__ = ("groupoid", "order", "unit", "coeffs")

    def __init__(self, groupoid, order, coeffs=None, unit=Fraction(1)):
        if type(order) is not int or order < 0:
            raise ValueError(f"truncation order must be an int >= 0, not {order!r}")
        self.groupoid = groupoid
        self.order = order
        self.unit = unit
        scalar_unit = _is_exact_scalar(unit)
        clean = {}
        for elem, value in (coeffs or {}).items():
            if elem not in groupoid:
                raise ValueError(f"{elem!r} is not in {groupoid.name}")
            if groupoid.ord(elem) > self.order:
                raise ValueError(f"{elem!r} exceeds truncation order {self.order}")
            if type(value) is not type(unit) and not (scalar_unit and _is_exact_scalar(value)):
                raise ValueError(f"coefficient {value!r} is not in the algebra of "
                                 f"the unit {unit!r}")
            if value:
                clean[elem] = value
        self.coeffs = clean

    @classmethod
    def _trusted(cls, groupoid, order, coeffs, unit):
        """Series from coefficients already known to sit on elements of
        ``groupoid`` of grade <= ``order``: no membership or grade checks,
        zero coefficients are still dropped."""
        out = object.__new__(cls)
        out.groupoid = groupoid
        out.order = order
        out.unit = unit
        out.coeffs = {e: v for e, v in coeffs.items() if v}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, groupoid, order, unit=Fraction(1)):
        return cls(groupoid, order, {}, unit)

    @classmethod
    def one(cls, groupoid, order, unit=Fraction(1)):
        return cls(groupoid, order, {groupoid.neutral: unit}, unit)

    # -- basics ------------------------------------------------------------

    @property
    def zero_coeff(self):
        return self.unit * 0

    def coefficient(self, elem):
        if elem not in self.groupoid:
            raise ValueError(f"{elem!r} is not in {self.groupoid.name}")
        return self.coeffs.get(elem, self.zero_coeff)

    def is_unital(self) -> bool:
        return self.coefficient(self.groupoid.neutral) == self.unit

    def has_zero_e_part(self) -> bool:
        return self.groupoid.neutral not in self.coeffs

    def _check_compatible(self, other):
        if self.groupoid != other.groupoid:
            raise ValueError("series live over different groupoids")
        if self.order != other.order:
            raise ValueError(f"truncation mismatch: {self.order} vs {other.order}")
        if not self.unit == other.unit:
            raise ValueError("coefficient algebras differ")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for elem, value in other.coeffs.items():
            out[elem] = out[elem] + value if elem in out else value
        return FormalSeries._trusted(self.groupoid, self.order, out, self.unit)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalSeries._trusted(self.groupoid, self.order,
                                     {e: -v for e, v in self.coeffs.items()}, self.unit)

    def scale(self, scalar):
        if not _is_exact_scalar(scalar):
            raise ValueError(f"a series scales by an int or a Fraction, not {scalar!r}")
        return FormalSeries._trusted(self.groupoid, self.order,
                                     {e: v * scalar for e, v in self.coeffs.items()},
                                     self.unit)

    # -- graded convolution --------------------------------------------------

    def __mul__(self, other):
        """Graded convolution by grade level; relies on grade additivity, which
        ``axiom_violations`` checks."""
        if isinstance(other, FormalSeries):
            self._check_compatible(other)
            gpd, order = self.groupoid, self.order
            right = {}
            for j, b in other.coeffs.items():
                right.setdefault(gpd.ord(j), []).append((j, b))
            out = {}
            for i, a in self.coeffs.items():
                room = order - gpd.ord(i)
                for grade, level in right.items():
                    if grade <= room:
                        _convolve(gpd._compose, out, i, a, level)
            return FormalSeries._trusted(gpd, order, out, self.unit)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # only a scalar on the left reaches it

    def __pow__(self, k: int):
        if type(k) is not int or k < 0:
            raise ValueError("only non-negative integer powers")
        out = FormalSeries.one(self.groupoid, self.order, self.unit)
        for _ in range(k):
            out = out * self
        return out

    # -- group structure on 1 + positive-grade part ---------------------------

    def inverse(self) -> "FormalSeries":
        """Inverse of a unital series, solving w = 1 - a·w (a = self - 1) grade
        by grade: level g of w is -sum a_i·w_j over j in level g - ord(i), so
        each pair is composed once.  Relies on grade additivity (checked by
        ``axiom_violations``); the unique solution is the geometric sum's."""
        if not self.is_unital():
            raise ValueError("inverse requires leading coefficient equal to the unit")
        gpd, order = self.groupoid, self.order
        minus_a = [(i, -v, g) for i, v in self.coeffs.items() if (g := gpd.ord(i)) > 0]
        levels = {0: [(gpd.neutral, self.unit)]}
        for grade in range(1, order + 1):
            out = {}
            for i, v, g in minus_a:
                level = levels.get(grade - g)
                if level:
                    _convolve(gpd._compose, out, i, v, level)
            levels[grade] = [(k, v) for k, v in out.items() if v]
        return FormalSeries._trusted(gpd, order, {k: v for level in levels.values()
                                                  for k, v in level}, self.unit)

    def exp(self) -> "FormalSeries":
        """exp of a series with zero neutral part: finite sum of a^k / k!."""
        if not self.has_zero_e_part():
            raise ValueError("exp requires a zero coefficient at the neutral element")
        result = FormalSeries.one(self.groupoid, self.order, self.unit)
        term = result
        for k in range(1, self.order + 1):
            term = (term * self).scale(Fraction(1, k))
            result = result + term
        return result

    def log(self) -> "FormalSeries":
        """log of a unital series: finite alternating sum of a^k / k."""
        if not self.is_unital():
            raise ValueError("log requires leading coefficient equal to the unit")
        a = self - FormalSeries.one(self.groupoid, self.order, self.unit)
        result = FormalSeries.zero(self.groupoid, self.order, self.unit)
        power = FormalSeries.one(self.groupoid, self.order, self.unit)
        for k in range(1, self.order + 1):
            power = power * a
            result = result + power.scale(Fraction((-1) ** (k + 1), k))
        return result

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.groupoid == other.groupoid and self.order == other.order
                and self.unit == other.unit and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.groupoid, self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        gpd = self.groupoid
        if not self.coeffs:
            return f"FormalSeries<{gpd.name}, N={self.order}>(0)"
        parts = [f"{gpd.element_id(e)}: {v!r}"
                 for e, v in sorted(self.coeffs.items(),
                                    key=lambda kv: (gpd.ord(kv[0]), gpd.element_id(kv[0])))]
        return f"FormalSeries<{gpd.name}, N={self.order}>({', '.join(parts)})"

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready mapping element-id -> coefficient payload."""
        return {self.groupoid.element_id(e): coeff_to_payload(v)
                for e, v in self.coeffs.items()}


def _is_exact_scalar(value) -> bool:
    """An int (not bool) or a Fraction."""
    return type(value) is int or isinstance(value, Fraction)


def _convolve(compose, out, i, a, level):
    """Add a·b at compose(i, j) to ``out`` for each composable (j, b) in ``level``;
    ``compose`` is the unchecked ``_compose``, as both supports are validated."""
    for j, b in level:
        k = compose(i, j)
        if k is not None:
            term = a * b
            out[k] = out[k] + term if k in out else term


def coeff_to_payload(value):
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if isinstance(value, RationalMatrix):
        return [[str(x) for x in row] for row in value.rows]
    raise ValueError(f"cannot serialize coefficient of type {type(value).__name__}")


class SemidirectElement:
    """Pair (g, a): an invertible matrix acting on a zero-neutral-part series.

    The pair stands for the product g·(1 + a) with the matrix group acting
    on coefficients by conjugation, so the group law is

        (g, a) · (g', a') = (g g', b)   with  1 + b = (1 + g'^-1 a g')(1 + a').
    """

    __slots__ = ("g", "a", "g_inv")

    def __init__(self, g, a: FormalSeries):
        if not a.has_zero_e_part():
            raise ValueError("series part must have zero coefficient at the neutral element")
        self.g_inv = g.inverse()  # raises on singular g
        self.g = g
        self.a = a

    @classmethod
    def identity(cls, n, groupoid, order):
        unit = RationalMatrix.identity(n)
        return cls(unit, FormalSeries.zero(groupoid, order, unit))

    @staticmethod
    def _conjugate(series: FormalSeries, h, h_inv) -> FormalSeries:
        """h·a·h⁻¹ coefficientwise, given the pair (h, h⁻¹)."""
        return FormalSeries._trusted(series.groupoid, series.order,
                                     {e: h * v * h_inv for e, v in series.coeffs.items()},
                                     series.unit)

    def __mul__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        self.a._check_compatible(other.a)
        twisted = self._conjugate(self.a, other.g_inv, other.g)
        b = twisted + other.a + twisted * other.a
        return SemidirectElement(self.g * other.g, b)

    def inverse(self) -> "SemidirectElement":
        twisted = self._conjugate(self.a, self.g, self.g_inv)
        one = FormalSeries.one(self.a.groupoid, self.a.order, self.a.unit)
        b = (one + twisted).inverse() - one
        return SemidirectElement(self.g_inv, b)

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.g == other.g and self.a == other.a

    def __repr__(self):
        return f"SemidirectElement(g={self.g!r}, a={self.a!r})"
