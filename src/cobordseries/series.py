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

The kernels work grade by grade on validated supports, through the unchecked
``_compose`` and ``_ord``.  A product pairs each left element with the right
operand's grade levels; a level solve x = 1 + a·x, each coefficient one per-level dot
of its pairs, gives the inverse (``_dot``), the left ODE of ``paths`` (the dot that
integrates in time) and its Euler product (the dot, then the left Riemann sum); exp
and log are one power sum, term k the last one times a and r_k (1/k, or -(k-1)/k for log).
Each output coefficient is one ``_dot``: a sum of products (times r_k) normalized once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from ._checks import _int_in
from .matrices import RationalMatrix


class FormalSeries:
    """Finitely supported map {groupoid element -> coefficient}, grade <= order."""

    __slots__ = ("groupoid", "order", "unit", "coeffs")

    def __init__(self, groupoid, order, coeffs=None, unit=Fraction(1)):
        self.groupoid = groupoid
        self.order = _int_in("truncation order", order)
        self.unit = unit
        scalar_unit = _is_exact_scalar(unit)
        clean = {}
        for elem, value in (coeffs or {}).items():
            if elem not in groupoid:
                raise ValueError(f"{elem!r} is not in {groupoid.name}")
            if groupoid._ord(elem) > self.order:
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
        return cls.zero(groupoid, order, unit)._unit_series()

    # -- basics ------------------------------------------------------------

    @property
    def zero_coeff(self):
        return self.unit * 0

    def coefficient(self, elem):
        if elem not in self.groupoid:
            raise ValueError(f"{elem!r} is not in {self.groupoid.name}")
        return self.coeffs[elem] if elem in self.coeffs else self.zero_coeff

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
        return type(self)._trusted(self.groupoid, self.order, out, self.unit)

    def __sub__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)._trusted(self.groupoid, self.order,
                                   {e: -v for e, v in self.coeffs.items()}, self.unit)

    def scale(self, scalar):
        if not _is_exact_scalar(scalar):
            raise ValueError(f"a series scales by an int or a Fraction, not {scalar!r}")
        return type(self)._trusted(self.groupoid, self.order,
                                   {e: v * scalar for e, v in self.coeffs.items()}, self.unit)

    # -- graded convolution --------------------------------------------------

    def __mul__(self, other):
        """Graded convolution by grade level; relies on grade additivity, which
        ``axiom_violations`` checks."""
        if isinstance(other, FormalSeries):
            self._check_compatible(other)
            out = _pairs(self.groupoid, self.order, self.coeffs, other._levels())
            return type(self)._trusted(self.groupoid, self.order,
                                       {k: _dot(p) for k, p in out.items()}, self.unit)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # only a scalar on the left reaches it

    def __pow__(self, k: int):
        out = self._unit_series()
        for _ in range(_int_in("k", k)):
            out = out * self
        return out

    def _levels(self):
        """The coefficients as (element, value) lists by grade, read unchecked."""
        levels, ord_ = {}, self.groupoid._ord
        for j, b in self.coeffs.items():
            levels.setdefault(ord_(j), []).append((j, b))
        return levels

    def _unit_series(self):
        """The unit of self's algebra, as ``type(self)`` (so a path's power is a path)."""
        return type(self)._trusted(self.groupoid, self.order,
                                   {self.groupoid.neutral: self.unit}, self.unit)

    # -- group structure on 1 + positive-grade part ---------------------------

    def inverse(self) -> "FormalSeries":
        """Inverse of a unital series: w = 1 - a·w for a = self - 1, the level
        solve on -self (of ``type(self)``, as negation keeps the type); the unique
        solution is the geometric sum's."""
        if not self.is_unital():
            raise ValueError("inverse requires leading coefficient equal to the unit")
        return (-self)._level_solve(_dot)

    def _level_solve(self, dot):
        """x = 1 + a·x for a = self's positive part, as ``type(self)``, with x_k at level g
        dot(its pairs (a_i, x_j), j in level g - ord(i)) and zeros dropped; each pair is
        composed once (grade additivity is checked by ``axiom_violations``)."""
        gpd, order, compose = self.groupoid, self.order, self.groupoid._compose
        terms = [(i, v, g) for i, v in self.coeffs.items() if (g := gpd._ord(i)) > 0]
        levels = {0: [(gpd.neutral, self.unit)]}
        for grade in range(1, order + 1):
            out = {}
            for i, v, g in terms:
                for j, b in levels.get(grade - g, ()):
                    if (k := compose(i, j)) is not None:
                        out.setdefault(k, []).append((v, b))
            levels[grade] = [(k, x) for k, p in out.items() if (x := dot(p))]
        return type(self)._trusted(gpd, order, {k: v for level in levels.values()
                                                for k, v in level}, self.unit)

    def exp(self) -> "FormalSeries":
        """exp of a series with zero neutral part: the power sum of a^k / k!."""
        if not self.has_zero_e_part():
            raise ValueError("exp requires a zero coefficient at the neutral element")
        return self._power_sum(self._unit_series(), (Fraction(1, k) for k in count(1)))

    def log(self) -> "FormalSeries":
        """log of a unital series: the power sum of (-1)^(k+1) a^k / k, a = self - 1."""
        if not self.is_unital():
            raise ValueError("log requires leading coefficient equal to the unit")
        a = self - self._unit_series()
        return a._power_sum(a, (Fraction(1 - k, k) for k in count(2)))

    def _power_sum(self, term, ratios):
        """Σ T_k for T_0 = term, T_k = r_k·T_(k-1)·self, r_k the k-th of ``ratios`` and
        self without neutral part (its levels built once); stops at the first empty T_k."""
        gpd, order, levels = self.groupoid, self.order, self._levels()
        total, term = dict(term.coeffs), term.coeffs
        while term:
            out, r = _pairs(gpd, order, term, levels), next(ratios)
            term = {e: x for e, p in out.items() if (x := _dot(p, None, r))}
            for e, x in term.items():
                total[e] = total[e] + x if e in total else x
        return type(self)._trusted(gpd, order, total, self.unit)

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
        parts = [f"{gpd.element_id(e)}: {v!r}"
                 for e, v in sorted(self.coeffs.items(),
                                    key=lambda kv: (gpd._ord(kv[0]), gpd.element_id(kv[0])))]
        return f"{type(self).__name__}<{gpd.name}, N={self.order}>({', '.join(parts) or 0})"

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready mapping element-id -> coefficient payload."""
        return {self.groupoid.element_id(e): coeff_to_payload(v)
                for e, v in self.coeffs.items()}


def _is_exact_scalar(value) -> bool:
    """An int (not bool) or a Fraction."""
    return type(value) is int or isinstance(value, Fraction)


def _pairs(gpd, order, left, levels):
    """The coefficient pairs of left · right by output element, for ``left`` a
    validated coefficient dict and ``levels`` the right operand's ``_levels``."""
    out, compose, ord_ = {}, gpd._compose, gpd._ord
    for i, a in left.items():
        room = order - ord_(i)
        for grade, level in levels.items():
            if grade <= room:
                for j, b in level:
                    if (k := compose(i, j)) is not None:
                        out.setdefault(k, []).append((a, b))
    return out


def _dot(pairs, start=None, ratio=1):
    """ratio·(start + Σ a·b) over the non-empty ``pairs``, normalized once: exact
    scalars as numerators over a common denominator, a class with ``_dot``
    (matrices, time polynomials) by its own; anything else (floats) adds a·b left
    to right and then scales by an exact ``ratio`` other than 1."""
    a = pairs[0][0]
    if type(a) is int or isinstance(a, Fraction):
        n, d = (0, 1) if start is None else (start.numerator, start.denominator)
        for a, b in pairs:
            pd = a.denominator * b.denominator
            g = gcd(d, pd)
            n, d = n * (pd // g) + a.numerator * b.numerator * (d // g), d // g * pd
        return Fraction(n * ratio.numerator, d * ratio.denominator)
    if hasattr(a, "_dot"):
        return a._dot(pairs, start, ratio)
    for a, b in pairs:
        start = a * b if start is None else start + a * b
    return start if ratio == 1 else start * ratio


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
        if not (isinstance(g, RationalMatrix) and isinstance(a.unit, RationalMatrix)
                and g.n == a.unit.n):
            raise ValueError(f"{g!r} must be a matrix of the size of the series unit {a.unit!r}")
        self.g, self.a, self.g_inv = g, a, g.inverse()  # raises on singular g

    @classmethod
    def _trusted(cls, g, a, g_inv):
        """Element from a checked pair and the inverse of g, computed no more."""
        out = object.__new__(cls)
        out.g, out.a, out.g_inv = g, a, g_inv
        return out

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
        return SemidirectElement._trusted(self.g * other.g, b, other.g_inv * self.g_inv)

    def inverse(self) -> "SemidirectElement":
        twisted = self._conjugate(self.a, self.g, self.g_inv)
        one = FormalSeries.one(self.a.groupoid, self.a.order, self.a.unit)
        b = (one + twisted).inverse() - one
        return SemidirectElement._trusted(self.g_inv, b, self.g)

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.g == other.g and self.a == other.a

    def __repr__(self):
        return f"SemidirectElement(g={self.g!r}, a={self.a!r})"
