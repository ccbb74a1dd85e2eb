"""Polynomial-in-time paths into a graded series algebra, and the left ODE.

The central object solved here is du/ds · u(s)^-1 = v(s) with u(0) = 1,
where v takes values in the positive-grade part of a truncated series
algebra.  Three routes are implemented and cross-checked:

* ``solve_left_ode``      — exact grade recursion with polynomial integration;
* ``iterated_integrals``  — the time-ordered simplex integrals, summed per grade;
* ``euler_product``       — the ordered finite product
      u_n(s) = (1 + (s - j/n) v(j/n)) * prod_{i=1..j} (1 + (1/n) v((j-i)/n)),
  j = floor(n s), factors multiplied left to right as i increases so that the
  leftmost factor carries the latest time (the coefficients need not commute,
  which makes this order observable).

Time polynomials carry exact Fraction time-coefficients; their value
coefficients live in the same algebra as the series coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .groupoids import NatMonoid
from .matrices import RationalMatrix
from .series import FormalSeries


def _exact_time(t) -> Fraction:
    """A time given exactly, as an int (not bool) or a Fraction."""
    if type(t) is int or isinstance(t, Fraction):
        return Fraction(t)
    raise ValueError(f"time must be an int or a Fraction, not {t!r}")


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
    def zero(cls, unit=Fraction(1)):
        return cls((), unit)

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

    def __mul__(self, other):
        if isinstance(other, CoeffPoly):
            if not self.coeffs or not other.coeffs:
                return CoeffPoly.zero(self.unit)
            out = [self.zero_coeff] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if not b:
                        continue
                    out[i + j] = out[i + j] + a * b
            return CoeffPoly(out, self.unit)
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

    def integral(self) -> "CoeffPoly":
        """Antiderivative vanishing at 0, with exact rational division."""
        out = [self.zero_coeff]
        out.extend(c * Fraction(1, k + 1) for k, c in enumerate(self.coeffs))
        return CoeffPoly(out, self.unit)

    def __call__(self, t):
        t = _exact_time(t)
        value = self.zero_coeff
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __repr__(self):
        if not self.coeffs:
            return "CoeffPoly(0)"
        return "CoeffPoly(" + " + ".join(f"({c!r})*s^{k}" for k, c in enumerate(self.coeffs)) + ")"


class AlgebraPath:
    """Map s in [0,1] -> series, one time polynomial per groupoid element.

    Plain paths (directions, ``unital=False``) must have zero polynomial at
    the neutral element; solutions of the left ODE are unital paths whose
    neutral component is constantly the unit.
    """

    __slots__ = ("groupoid", "order", "unit", "polys", "unital")

    def __init__(self, groupoid, order, polys, unit=Fraction(1), unital=False):
        if type(order) is not int or order < 0:
            raise ValueError(f"truncation order must be an int >= 0, not {order!r}")
        self.groupoid = groupoid
        self.order = order
        self.unit = unit
        self.unital = bool(unital)
        clean = {}
        for elem, poly in polys.items():
            if elem not in groupoid:
                raise ValueError(f"{elem!r} is not in {groupoid.name}")
            if groupoid.ord(elem) > self.order:
                raise ValueError(f"{elem!r} exceeds truncation order {self.order}")
            if not isinstance(poly, CoeffPoly):
                poly = CoeffPoly(poly, unit)
            if poly:
                clean[elem] = poly
        e = groupoid.neutral
        if not self.unital and e in clean:
            raise ValueError("a direction path must vanish at the neutral element")
        if self.unital:
            if clean.get(e) != CoeffPoly.one(unit):
                raise ValueError("a unital path must be constantly 1 at the neutral element")
        self.polys = clean

    def __call__(self, t) -> FormalSeries:
        """Evaluate at a rational time; exact when coefficients are exact."""
        return FormalSeries._trusted(self.groupoid, self.order,
                                     {e: p(t) for e, p in self.polys.items()}, self.unit)

    def as_poly_series(self) -> FormalSeries:
        """View the whole path as one series with polynomial coefficients."""
        return FormalSeries._trusted(self.groupoid, self.order, self.polys,
                                     CoeffPoly.one(self.unit))

    @classmethod
    def from_poly_series(cls, series: FormalSeries, unit, unital=False) -> "AlgebraPath":
        return cls(series.groupoid, series.order, dict(series.coeffs), unit, unital=unital)

    def __eq__(self, other):
        if not isinstance(other, AlgebraPath):
            return NotImplemented
        return (self.groupoid == other.groupoid and self.order == other.order
                and self.polys == other.polys)

    def __repr__(self):
        gpd = self.groupoid
        parts = [f"{gpd.element_id(e)}: {p!r}" for e, p in self.polys.items()]
        return f"AlgebraPath<{gpd.name}, N={self.order}>({', '.join(parts)})"


def solve_left_ode(v: AlgebraPath) -> AlgebraPath:
    """Exact solution u of du/ds = v(s)·u(s), u(0) = 1, by grade recursion.

    The grade-k component is the integral of sum over decompositions
    k = i∘j with i ≠ e of v_i(r)·u_j(r); since grades of i are >= 1 the
    right factor is already known from strictly lower grades.
    """
    if v.unital:
        raise ValueError("the direction of the ODE must have no neutral component")
    gpd = v.groupoid
    one_poly = CoeffPoly.one(v.unit)
    solution = {gpd.neutral: one_poly}
    for elem in gpd.elements_up_to(v.order):
        if elem == gpd.neutral or elem is gpd.neutral:
            continue
        integrand = CoeffPoly.zero(v.unit)
        for i, j in gpd.decompositions(elem):
            if i == gpd.neutral or i is gpd.neutral:
                continue
            vi = v.polys.get(i)
            uj = solution.get(j)
            if vi is None or uj is None:
                continue
            integrand = integrand + vi * uj
        poly = integrand.integral()
        if poly:
            solution[elem] = poly
    return AlgebraPath(gpd, v.order, solution, v.unit, unital=True)


def left_log_derivative(u: AlgebraPath) -> AlgebraPath:
    """du/ds · u^-1 computed exactly in the polynomial coefficient algebra."""
    if not u.unital:
        raise ValueError("left logarithmic derivative needs a unital path")
    series = u.as_poly_series()
    du = FormalSeries._trusted(u.groupoid, u.order,
                               {e: p.derivative() for e, p in u.polys.items()},
                               CoeffPoly.one(u.unit))
    result = du * series.inverse()
    return AlgebraPath.from_poly_series(result, u.unit, unital=False)


def iterated_integrals(v: AlgebraPath, grade: int):
    """Sum over k <= grade of the time-ordered simplex integrals at time 1.

    With J_0 = 1 and J_k(t) = integral_0^t v(s)·J_{k-1}(s) ds, the grade-m
    part of sum_k J_k(1) equals the grade-m component of the ODE solution
    at s = 1; the outermost (latest) time sits leftmost in each product.
    """
    if type(grade) is not int or not 0 <= grade <= v.order:
        raise ValueError(f"grade must be an int in 0..{v.order}, not {grade!r}")
    gpd = v.groupoid
    poly_unit = CoeffPoly.one(v.unit)
    # grades add under products, so layers truncated at ``grade`` are exact there
    v_series = FormalSeries._trusted(
        gpd, grade, {e: p for e, p in v.polys.items() if gpd.ord(e) <= grade}, poly_unit)
    total = FormalSeries.one(gpd, grade, poly_unit)
    layer = total
    for _ in range(1, grade + 1):
        layer = v_series * layer
        layer = FormalSeries._trusted(gpd, grade,
                                      {e: p.integral() for e, p in layer.coeffs.items()},
                                      poly_unit)
        total = total + layer
    return grade_component(total, grade)(1)


def grade_component(series: FormalSeries, grade: int):
    """Sum of the coefficients of all elements of the given grade."""
    gpd = series.groupoid
    acc = None
    for elem, value in series.coeffs.items():
        if gpd.ord(elem) == grade:
            acc = value if acc is None else acc + value
    return series.zero_coeff if acc is None else acc


def euler_product(v: AlgebraPath, n: int, s) -> FormalSeries:
    """The ordered product approximation u_n(s) of the left ODE solution."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, not {n!r}")
    s = _exact_time(s)
    if not 0 <= s <= 1:
        raise ValueError("time must lie in [0, 1]")
    if v.unital:
        raise ValueError("the direction must have no neutral component")
    gpd = v.groupoid
    j = int(n * s)  # floor: s is a non-negative Fraction
    one = FormalSeries.one(gpd, v.order, v.unit)
    out = one + v(Fraction(j, n)).scale(s - Fraction(j, n))
    step = Fraction(1, n)
    for i in range(1, j + 1):
        out = out * (one + v(Fraction(j - i, n)).scale(step))
    return out


def coeff_norm(value) -> float:
    """Float magnitude used for convergence tables: |.| or max-abs entry."""
    if isinstance(value, (int, float, Fraction)):
        return abs(float(value))
    if isinstance(value, RationalMatrix):
        return float(value.max_abs())
    raise ValueError(f"no norm for coefficient type {type(value).__name__}")


def convergence_table(v: AlgebraPath, ns):
    """Per-grade Euler-product errors against the exact solution at s = 1.

    Returns a list of rows {n, grade, error}; the exact reference is the
    grade recursion, so all errors are exact rationals before the float cast.
    """
    u = solve_left_ode(v)
    exact = u(1)
    rows = []
    for n in ns:
        approx = euler_product(v, n, 1)
        for m in range(1, v.order + 1):
            err = grade_component(approx - exact, m)
            rows.append({"n": n, "grade": m, "error": coeff_norm(err)})
    return rows


def error_ratios(rows):
    """Ratios error(n)/error(2n) per grade, from convergence_table rows."""
    by_grade = {}
    for row in rows:
        by_grade.setdefault(row["grade"], {})[row["n"]] = row["error"]
    out = []
    for grade, errs in sorted(by_grade.items()):
        ns = sorted(errs)
        for n in ns:
            if 2 * n in errs and errs[2 * n] != 0:
                out.append({"grade": grade, "n": n,
                            "ratio": errs[n] / errs[2 * n]})
    return out


def convergence_suite_paths(order=4):
    """The designated convergence-suite paths, without components of a
    grade above ``order``: every grade shows clean first-order behaviour
    already at n = 8 (the purely linear direction is capped at order 3; its
    grade-4 error still carries a visible second-order term at small n)."""
    gpd = NatMonoid()
    one = Fraction(1)
    e12 = RationalMatrix.unit(2, 0, 1)
    e21 = RationalMatrix.unit(2, 1, 0)
    unit = RationalMatrix.identity(2)

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

