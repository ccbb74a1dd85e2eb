"""Polynomial-in-time paths into a graded series algebra, and the left ODE.

The central object solved here is du/ds · u(s)^-1 = v(s) with u(0) = 1,
where v takes values in the positive-grade part of a truncated series
algebra.  Three routes are implemented and cross-checked:

* ``solve_left_ode``      — the series' level solve u = 1 + integral(v·u);
* ``iterated_integrals``  — the simplex integrals by layer and grade, the top grade summed once;
* ``euler_product``       — the ordered finite product
      u_n(s) = (1 + (s - j/n) v(j/n)) * prod_{i=1..j} (1 + (1/n) v((j-i)/n)),
  j = floor(n s), the latest time leftmost (the coefficients need not commute).
  With h = 1/n, U_k = u_n(kh) solves U_(k+1) = (1 + h v(kh))·U_k, U_0 = 1: it is the
  level solve U = 1 + L_h(v·U), with the left Riemann sum L_h p(kh) = Σ_{i<k} h·p(ih)
  in place of the integral (its h -> 0 limit), exact on polynomials by Faulhaber's
  h·Σ_{i<k} (ih)^d = Σ_{j<=d} C(d+1, j)·B_j·h^j·(kh)^(d+1-j)/(d+1), with B_1 = -1/2.

A path is itself a formal series over the groupoid, with coefficients in
the time polynomials A[s] over the value algebra A: products, inverses and
validation are the series' own, and evaluation at a time t gives the series
with values in A.  The ODE solve and the left log-derivative run on the series'
product kernel, at a cost that follows the supports, not the groupoid's window.
Time polynomials carry exact Fraction time-coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from ._checks import _exact_time, _int_in
from .groupoids import NatMonoid
from .matrices import RationalMatrix
from .series import FormalSeries, _dot, _is_exact_scalar, _pairs

_reciprocal = cache(lambda n: Fraction(1, n))  # an integral's 1/(k + 1), formed once per k


class CoeffPoly:
    """Polynomial in the time variable with coefficients in a value algebra.

    ``unit`` is the value algebra's 1; the zero polynomial has an empty
    coefficient tuple.  Products keep the left/right order of the value
    coefficients.
    """

    __slots__ = ("coeffs", "unit")

    def __init__(self, coeffs, unit=Fraction(1)):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "unit", unit)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffPoly is immutable")

    @classmethod
    def constant(cls, value, unit=Fraction(1)):
        return cls((value,), unit)

    @classmethod
    def one(cls, unit=Fraction(1)):
        return cls((unit,), unit)

    @property
    def zero_coeff(self):
        return self.unit * 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = out[i] + x
        return CoeffPoly(out, self.unit)

    def __neg__(self):
        return CoeffPoly(tuple(-x for x in self.coeffs), self.unit)

    def __sub__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self + (-other)

    @staticmethod
    def _dot(pairs, start=None, ratio=1, shift=0):
        """ratio·(start + Σ p·q) over the non-empty ``pairs``, or with shift=1 its integral
        from 0 (degree k to k + 1, ratio/(k + 1)): pairs grouped by degree, one ``_dot`` each."""
        groups = {}
        for p, q in pairs:
            for i, a in enumerate(p.coeffs):
                if a:
                    for j, b in enumerate(q.coeffs):
                        if b:
                            groups.setdefault(i + j, []).append((a, b))
        rate = ((lambda k: _reciprocal(k + 1) if ratio == 1 else Fraction(ratio, k + 1))
                if shift else (lambda k: ratio))
        out = {k + shift: c if k in groups or not shift and ratio == 1 else c * rate(k)
               for k, c in enumerate(start.coeffs if start else ())}
        for k, group in groups.items():
            out[k + shift] = _dot(group, out.get(k + shift), rate(k))
        top, p = max(out, default=-1) + 1, pairs[0][0]  # an integral's gap k > 0: 0·rate(k - 1)
        return CoeffPoly([out[k] if k in out else p.zero_coeff * rate(k - 1) if shift and k
                          else p.zero_coeff for k in range(top)], p.unit)

    def __mul__(self, other):
        if isinstance(other, CoeffPoly):
            return CoeffPoly._dot([(self, other)])
        if type(other) is bool:
            raise ValueError("cannot scale a polynomial by a bool")
        if isinstance(other, (int, Fraction)):
            return CoeffPoly(tuple(x * other for x in self.coeffs), self.unit)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def derivative(self) -> "CoeffPoly":
        return CoeffPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1),
                         self.unit)

    def _left_sum(self, h, powers=None) -> "CoeffPoly":
        """P with P(kh) = Σ_{i<k} h·p(ih) for all integers k >= 0: Faulhaber's identity (module
        docstring) term by term.  Its j = 0 terms are the integral, all of it at h = 0;
        ``powers`` may list h^0, h^1, ... past the degree, formed once for many p."""
        out = [self.zero_coeff, *(c * Fraction(1, d + 1) for d, c in enumerate(self.coeffs))]
        if h:
            powers = powers or [h ** j for j in range(len(self.coeffs))]
            for d, c in enumerate(self.coeffs):
                for j, (r, hj) in enumerate(zip(_faulhaber_row(d), powers)):
                    if j and r:
                        out[d + 1 - j] += c * (r * hj)
        return CoeffPoly(out, self.unit)

    def __call__(self, t):
        """Value at an exact time t by Horner; at t = 1 the same sum without products by 1."""
        t = _exact_time("time", t)
        if t == 1:
            return sum(reversed(self.coeffs), self.zero_coeff * t)
        value = self.zero_coeff
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __repr__(self):
        if not self.coeffs:
            return "CoeffPoly(0)"
        return "CoeffPoly(" + " + ".join(f"({c!r})*s^{k}" for k, c in enumerate(self.coeffs)) + ")"


@cache
def _faulhaber_row(d: int) -> tuple:
    """C(d+1, j)·B_j/(d+1) for j = 0..d, the left sum's row for degree d; the last entry
    is B_d, minus the sum of the others by the recursion Σ_{j<=d} C(d+1, j)·B_j = 0."""
    row = [comb(d + 1, j) * _bernoulli(j) / (d + 1) for j in range(d)]
    return (*row, -sum(row) if d else Fraction(1))


def _bernoulli(m: int) -> Fraction:
    """B_m, with B_1 = -1/2, read off the cached row of degree m."""
    return _faulhaber_row(m)[m]


class AlgebraPath(FormalSeries):
    """Map s in [0,1] -> series: a formal series whose coefficients are time
    polynomials, one per groupoid element.

    The series unit is ``CoeffPoly.one(u)`` for the value unit ``u``, so the
    value unit is ``path.unit.unit``.  A direction of the left ODE has no
    neutral component (``has_zero_e_part``); a solution is unital, constantly
    the unit at the neutral element (``is_unital``).  The validated
    constructor takes only ``CoeffPoly`` values over the value unit whose
    coefficients pass the rule of ``FormalSeries``.
    """

    __slots__ = ()

    def __init__(self, groupoid, order, polys, unit=Fraction(1)):
        scalar_unit = _is_exact_scalar(unit)
        for poly in polys.values():
            if not (isinstance(poly, CoeffPoly) and poly.unit == unit and all(
                    type(c) is type(unit) or (scalar_unit and _is_exact_scalar(c))
                    for c in poly.coeffs)):
                raise ValueError(f"{poly!r} is not a time polynomial over the unit {unit!r}")
        super().__init__(groupoid, order, polys, CoeffPoly.one(unit))

    @property
    def polys(self):
        return self.coeffs

    def __call__(self, t) -> FormalSeries:
        """Evaluate at a rational time; exact when coefficients are exact."""
        return FormalSeries._trusted(self.groupoid, self.order,
                                     {e: p(t) for e, p in self.coeffs.items()},
                                     self.unit.unit)


def solve_left_ode(v: AlgebraPath) -> AlgebraPath:
    """Exact solution u of du/ds = v(s)·u(s), u(0) = 1: the series' level solve
    u = 1 + integral(v·u), each grade of u read off strictly lower ones."""
    if not v.has_zero_e_part():
        raise ValueError("the direction of the ODE must have no neutral component")
    return v._level_solve(lambda pairs: CoeffPoly._dot(pairs, shift=1))


def left_log_derivative(u: AlgebraPath) -> AlgebraPath:
    """v = du/ds · u^-1 exactly: v = du - v·(u - 1) solved by grade on the series'
    product kernel, the solved levels of v as left factors, each pair once."""
    if not u.is_unital():
        raise ValueError("left logarithmic derivative needs a unital path")
    gpd, compose, du, minus_u = u.groupoid, u.groupoid._compose, {}, {}
    for k, p in u.coeffs.items():
        if (g := gpd._ord(k)) > 0:
            du.setdefault(g, {})[k] = p.derivative()
            minus_u.setdefault(g, []).append((k, -p))
    levels = {}
    for grade in range(1, u.order + 1):
        out, pairs = du.get(grade, {}), {}
        for h, level in levels.items():
            right = minus_u.get(grade - h, ())
            for i, vi in level:
                for j, b in right:
                    if (k := compose(i, j)) is not None:
                        pairs.setdefault(k, []).append((vi, b))
        out.update((k, _dot(p, out.get(k))) for k, p in pairs.items())
        levels[grade] = [(k, p) for k, p in out.items() if p]
    return AlgebraPath._trusted(gpd, u.order, {k: p for level in levels.values()
                                               for k, p in level}, u.unit)


def iterated_integrals(v: AlgebraPath, grade: int):
    """Sum over k <= grade of the time-ordered simplex integrals at time 1.

    With J_0 = 1 and J_k(t) = integral_0^t v(s)·J_{k-1}(s) ds, the grade-m
    part of sum_k J_k(1) equals the grade-m component of the ODE solution
    at s = 1; the outermost (latest) time sits leftmost in each product.  Each J_k is
    held by grade below ``grade``; that grade's pairs of all layers are summed once.
    """
    _int_in("grade", grade, 0, v.order)
    if not v.has_zero_e_part():
        raise ValueError("the direction must have no neutral component")
    if not grade:
        return v.unit(1)
    gpd, ord_ = v.groupoid, v.groupoid._ord
    left = {e: p for e, p in v.coeffs.items() if ord_(e) <= grade}
    levels, top = {0: [(gpd.neutral, v.unit)]}, []
    while levels:
        out, levels = _pairs(gpd, grade, left, levels), {}
        for k, pairs in out.items():
            if (g := ord_(k)) == grade:
                top += pairs
            elif x := CoeffPoly._dot(pairs, shift=1):
                levels.setdefault(g, []).append((k, x))
    return CoeffPoly._dot(top, shift=1)(1) if top else v.unit.zero_coeff


def grade_component(series: FormalSeries, grade: int):
    """Sum of the coefficients of all elements of the given grade."""
    _int_in("grade", grade, 0, series.order)
    gpd = series.groupoid
    values = [v for e, v in series.coeffs.items() if gpd._ord(e) == grade] or [series.zero_coeff]
    return sum(values[1:], values[0])


def euler_product(v: AlgebraPath, n: int, s) -> FormalSeries:
    """The ordered product approximation u_n(s) of the left ODE solution: at j/n, the
    level solve with the left Riemann sum ``CoeffPoly._left_sum`` at h = 1/n (exact by
    Faulhaber, B_1 = -1/2) in place of the integral; off the grid, one leading factor."""
    _int_in("n", n, 1)
    s = _exact_time("time", s)
    if not 0 <= s <= 1:
        raise ValueError("time must lie in [0, 1]")
    if not v.has_zero_e_part():
        raise ValueError("the direction must have no neutral component")
    j = int(n * s)  # floor: s is a non-negative Fraction
    t, h, one = Fraction(j, n), Fraction(1, n), FormalSeries.one(v.groupoid, v.order, v.unit.unit)
    longest = max((len(p.coeffs) for p in v.polys.values()), default=0)
    powers = [h ** k for k in range(v.order * longest)]  # a grade-g level's degree < g·longest
    u = v._level_solve(lambda p: _dot(p)._left_sum(h, powers))(t) if j else one
    if s == t:
        return u
    lead = one + v(t).scale(s - t)
    return lead * u if j else lead


def coeff_norm(value) -> float:
    """Float magnitude used for convergence tables: |.| or max-abs entry."""
    if isinstance(value, (int, float, Fraction)) and type(value) is not bool:
        return abs(float(value))
    if isinstance(value, RationalMatrix):
        return float(value.max_abs())
    raise ValueError(f"no norm for coefficient type {type(value).__name__}")


def convergence_table(v: AlgebraPath, ns):
    """Per-grade Euler-product errors against the exact solution at s = 1.

    Returns a list of rows {n, grade, error}; the exact reference is the
    grade recursion, so all errors are exact rationals before the float cast.
    """
    if not hasattr(ns, "__iter__"):
        raise ValueError(f"ns must be an iterable of step counts, not {ns!r}")
    exact = solve_left_ode(v)(1)
    diffs = ((n, euler_product(v, n, 1) - exact) for n in ns)
    return [{"n": n, "grade": m, "error": coeff_norm(grade_component(diff, m))}
            for n, diff in diffs for m in range(1, v.order + 1)]


def error_ratios(rows):
    """Ratios error(n)/error(2n) per grade, from convergence_table rows."""
    by_grade = {}
    for row in rows:
        by_grade.setdefault(row["grade"], {})[row["n"]] = row["error"]
    return [{"grade": grade, "n": n, "ratio": errs[n] / errs[2 * n]}
            for grade, errs in sorted(by_grade.items()) for n in sorted(errs)
            if 2 * n in errs and errs[2 * n] != 0]


def convergence_suite_paths(order=4):
    """The designated convergence-suite paths, without components of a
    grade above ``order``: every grade shows clean first-order behaviour
    already at n = 8 (the purely linear direction is capped at order 3; its
    grade-4 error still carries a visible second-order term at small n)."""
    gpd, one, unit = NatMonoid(), Fraction(1), RationalMatrix.identity(2)
    e12, e21 = RationalMatrix.unit(2, 0, 1), RationalMatrix.unit(2, 1, 0)

    def path(top, polys, unit=Fraction(1)):
        return AlgebraPath(gpd, top, {g: p for g, p in polys.items() if g <= top}, unit)

    return {
        "constant": path(order, {1: CoeffPoly.constant(one)}),
        "linear": path(min(order, 3), {1: CoeffPoly((0, one))}),
        "quadratic-mixed": path(
            order,
            {1: CoeffPoly((one, Fraction(-1, 2), Fraction(1, 3))),
             2: CoeffPoly((Fraction(1, 2), one))}),
        "matrix": path(
            order,
            {1: CoeffPoly((e12 + e21, e21), unit), 2: CoeffPoly((e12,), unit)},
            unit),
    }

