"""One table for the scalar input rules: a row per call site that reads a count,
an index, a box span or a time.

Each row gives the call with the scalar under test, a value it accepts, the name
its messages use, the kind of rule and the values out of its range.  The valid
call passes; a bool (Python's or numpy's), None, a str, an array and every
out-of-range value raise a ``ValueError`` whose message begins with the name.
A float is a confuser for the int and exact-time kinds; for the real kinds it is
one only where it lies out of range.
"""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from lattice_instances import chain_measure

import cobordseries.nonregular as nr
from cobordseries.cells import (
    Cell, CellComplex, Cosurface, domain_box, edge_cell, point_cell, splits,
)
from cobordseries.groupoids import (
    BoxGroupoid, IntervalGroupoid, NatMonoid, make_box_groupoid,
)
from cobordseries.groups import GroupFunction, builtin_group, cyclic, delta
from cobordseries.matrices import RationalMatrix
from cobordseries.measures import (
    CobordismBox, SemigroupDensity, cut, factorization_check, gibbs_density,
    markov_check, measure_series, measure_series_multiplicativity,
)
from cobordseries.paths import (
    AlgebraPath, CoeffPoly, euler_product, grade_component, iterated_integrals,
)
from cobordseries.series import FormalSeries

Z3 = builtin_group("Z3")
ONE = Fraction(1)
PATH = AlgebraPath(NatMonoid(), 3, {1: CoeffPoly((ONE, ONE))})
CHAIN = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
REGION = [Cell((0,), (0,), (1,)), Cell((1,), (0,), (1,))]
MEASURE = chain_measure(4, SemigroupDensity(builtin_group("Z2")))


def side(values):
    return 1.0


def factorization(tol):
    result = cut(CobordismBox(((0, 2),)), CHAIN, 1)
    return factorization_check(result.k, result.k_prime, CHAIN, [domain_box(((1, 2),))],
                               [domain_box(((0, 1),))], SemigroupDensity(Z3), tol=tol)


def gibbs(beta):
    action = GroupFunction(Z3, (0.0, 1.0, 1.0))
    return gibbs_density(Cosurface(Z3, []), CellComplex([]), beta, action, [])


# site: (call, valid value, name in the message, kind, out-of-range values)
ROWS = {
    "NatMonoid.elements_up_to": (NatMonoid().elements_up_to, 2, "grade bound", "int", [-1]),
    "IntervalGroupoid.elements_up_to": (IntervalGroupoid(0, 3).elements_up_to, 2,
                                        "grade bound", "int", [-1]),
    "BoxGroupoid.elements_up_to": (BoxGroupoid(((0, 2), (0, 2))).elements_up_to, 2,
                                   "grade bound", "int", [-1]),
    "IntervalGroupoid window": (lambda x: IntervalGroupoid(0, x), 3, "interval window",
                                "int", [0, -1]),
    "BoxGroupoid window": (lambda x: BoxGroupoid(((0, x), (0, 2))), 2, "box window spans",
                           "int", [0]),
    "BoxGroupoid axis": (lambda x: BoxGroupoid(((0, 2), (0, 2)), axis=x), 1,
                         "composition axis", "int", [-1, 2]),
    "make_box_groupoid dim": (lambda x: make_box_groupoid(x, ((0, 1),)), 1, "dim", "int", [0]),
    "cyclic": (cyclic, 3, "cyclic group order", "int", [0]),
    "FiniteGroup.mul a": (lambda x: cyclic(3).mul(x, 1), 2, "a", "int", [-1, 3]),
    "FiniteGroup.mul b": (lambda x: cyclic(3).mul(1, x), 2, "b", "int", [-1, 3]),
    "FiniteGroup.inv": (cyclic(3).inv, 2, "a", "int", [-1, 3]),
    "GroupFunction.__call__": (delta(cyclic(3), 1), 2, "g", "int", [-1, 3]),
    "delta": (lambda x: delta(cyclic(3), x), 2, "g", "int", [-1, 3]),
    "RationalMatrix.identity": (RationalMatrix.identity, 2, "matrix size", "int", [0]),
    "RationalMatrix.unit size": (lambda x: RationalMatrix.unit(x, 0, 0), 2, "matrix size",
                                 "int", [0]),
    "RationalMatrix.unit i": (lambda x: RationalMatrix.unit(2, x, 0), 1, "matrix index i",
                              "int", [-1, 2]),
    "RationalMatrix index j": (lambda x: RationalMatrix([[1, 2], [3, 4]])[0, x], 1,
                               "matrix index j", "int", [-1, 2]),
    "RationalMatrix.__pow__": (lambda x: RationalMatrix([[1, 1], [0, 1]]) ** x, 3, "k",
                               "int", [-1]),
    "FormalSeries order": (lambda x: FormalSeries(NatMonoid(), x), 2, "truncation order",
                           "int", [-1]),
    "FormalSeries.__pow__": (lambda x: FormalSeries(NatMonoid(), 2, {1: ONE}) ** x, 2, "k",
                             "int", [-1]),
    "iterated_integrals": (lambda x: iterated_integrals(PATH, x), 2, "grade", "int", [-1, 4]),
    "grade_component": (lambda x: grade_component(PATH(1), x), 2, "grade", "int", [-1, 4]),
    "euler_product n": (lambda x: euler_product(PATH, x, 1), 4, "n", "int", [0]),
    "euler_product s": (lambda x: euler_product(PATH, 4, x), Fraction(1, 2), "time",
                        "exact", [-1, Fraction(3, 2)]),
    "CoeffPoly.__call__": (CoeffPoly((ONE, ONE)), Fraction(1, 2), "time", "exact", []),
    "c": (lambda x: nr.c(x, np.array([0.5])), 0.5, "t", "real", [1.0, -1, math.nan]),
    "dc_dt": (lambda x: nr.dc_dt(x, np.array([0.5])), 0.5, "t", "real", [1.0, math.inf]),
    "check_membership t": (lambda x: nr.check_membership(x, 10), 0.5, "t", "real",
                           [1.0, -1.0, math.nan]),
    "check_membership grid_size": (lambda x: nr.check_membership(0.5, x), 10, "grid_size",
                                   "int", [0]),
    "check_membership fd_step": (lambda x: nr.check_membership(0.5, 10, fd_step=x), 0.01,
                                 "fd_step", "real", [1.0, 0.5, 0, math.nan]),
    "derivative_at_zero": (lambda x: nr.derivative_at_zero(np.array([0.5]), x), 1e-4,
                           "fd_step", "real", [1.0, 0, -1e-4, math.inf]),
    "ode_escape_check": (nr.ode_escape_check, 0.5, "t", "real", [-1.0, math.inf, math.nan]),
    "seminorm_drift": (lambda x: nr.seminorm_drift(0.5, x), 3, "n", "int", [0]),
    "CobordismBox spans": (lambda x: CobordismBox(((0, x),)), 2, "box spans", "int", [0]),
    "CobordismBox axis": (lambda x: CobordismBox(((0, 2), (0, 1)), axis=x), 1, "time axis",
                          "int", [-1, 2]),
    "cut": (lambda x: cut(CobordismBox(((0, 2),)), CHAIN, x), 1, "interface", "int", [0, 2]),
    "markov_check lo": (lambda x: markov_check(MEASURE, x, 1, side, side), 1, "lo", "int",
                        [-1, 4]),
    "markov_check hi": (lambda x: markov_check(MEASURE, 1, x, side, side), 1, "hi", "int",
                        [0, 4]),
    "SemigroupDensity.q": (SemigroupDensity(Z3).q, 0.5, "time", "real", [-1.0, math.nan]),
    "factorization_check": (factorization, 1e-12, "tol", "real", [-1.0, math.inf]),
    "measure_series_multiplicativity": (
        lambda x: measure_series_multiplicativity(
            measure_series(IntervalGroupoid(0, 2), SemigroupDensity(Z3), 2), tol=x),
        1e-12, "tol", "real", [-1.0, math.nan]),
    "gibbs_density": (gibbs, 0.5, "coupling constant", "real", [-1.0, math.inf]),
    "splits lo": (lambda x: splits(CHAIN, x, 1, REGION), 1, "lo", "int", [-1, 3]),
    "splits hi": (lambda x: splits(CHAIN, 1, x, REGION), 1, "hi", "int", [0, 3]),
    "domain_box": (lambda x: domain_box(((0, x),)), 1, "box spans", "int", [-1]),
    "Cosurface": (lambda x: Cosurface(cyclic(5), [(edge_cell((0,), 0), x)]), 3, "value",
                  "int", [-1, 5]),
}


def confusers(valid, kind, out_of_range):
    """A bool, numpy's bool, None, a str, an array, a float where the kind takes
    none, and the out-of-range values."""
    array = np.array([valid, valid]) if kind == "real" else np.array([valid])
    return [True, np.True_, None, "1", array, *([1.0] if kind != "real" else []),
            *out_of_range]


@pytest.mark.parametrize("site", sorted(ROWS))
def test_the_valid_call_passes(site):
    call, valid, *_ = ROWS[site]
    call(valid)


@pytest.mark.parametrize("site, bad", [(site, bad) for site, (_, valid, _, kind, out)
                                       in sorted(ROWS.items())
                                       for bad in confusers(valid, kind, out)], ids=repr)
def test_a_confuser_raises_a_value_error_naming_the_parameter(site, bad):
    call, _, name, *_ = ROWS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(bad)
