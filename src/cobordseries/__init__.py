"""Formal series over graded index groupoids, product integrals, and
heat-kernel measures on lattice cell complexes."""

from .groupoids import (
    BoxGroupoid, GradedGroupoid, IntervalGroupoid, NatMonoid, NEUTRAL,
    from_spec, make_box_groupoid, make_interval_groupoid, make_nat_monoid,
)
from .matrices import RationalMatrix
from .groups import (
    FiniteGroup, GroupFunction, builtin_group, convolve, cyclic, delta,
    is_class_function, load_cayley_file, quaternion8, symmetric3,
)
from .series import FormalSeries, SemidirectElement
from .paths import (
    AlgebraPath, CoeffPoly, convergence_table, error_ratios, euler_product,
    iterated_integrals, left_log_derivative, solve_left_ode,
)
from .cells import (
    Cell, CellComplex, Composite, Cosurface, boundary_word, dimension_extend,
    domain_box, edge_cell, extend_abelian, extend_nonabelian, glue,
    holonomy_cosurface, is_regular, is_saturated, point_cell, splits,
)
from .measures import (
    CobordismBox, ComplexMeasure, SemigroupDensity, border_reduce, cut,
    factorization_check, gibbs_density, is_adapted, is_complex_for_cobordism,
    markov_check, measure_series, measure_series_multiplicativity, paste,
    reorder_max_difference, sigma_action,
)

__version__ = "0.1.0"
