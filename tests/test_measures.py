import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from lattice_instances import (
    chain_measure, facet_complex, factorization_oracle, guillotine_domains,
    markov_oracle, measure_densities, region_cells, relabel, relabelled_groups,
    reorder_oracle, strip_cells, strip_measure,
)

import cobordseries.cells as cells_mod
import cobordseries.measures as measures_mod
from cobordseries.cells import (
    Cell, CellComplex, Cosurface, FINAL, INITIAL, box_contains, boundary_word,
    domain_box, edge_cell, is_saturated, point_cell, splits, word_value,
)
from cobordseries.groupoids import make_box_groupoid, make_interval_groupoid, make_nat_monoid
from cobordseries.groups import builtin_group, convolve, cyclic, delta, is_class_function
from cobordseries.groups import FiniteGroup, GroupFunction
from cobordseries.cli import chain_instance
from cobordseries.measures import (
    BorderPiece, CobordismBox, ComplexMeasure, SemigroupDensity, border_reduce,
    cut, default_generators, factorization_check, gibbs_density, heat_spectrum,
    is_adapted, is_complex_for_cobordism, markov_check, measure_series,
    measure_series_multiplicativity, paste, reorder_max_difference,
    semigroup_axiom_residuals, sigma_action, word_factor, _group_arrays, _heat_terms,
    _word_index, _word_product,
)
from cobordseries.series import FormalSeries

Z2 = builtin_group("Z2")
Z3 = builtin_group("Z3")
S3 = builtin_group("S3")
BUILTIN = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12", "S3", "Q8")


def indicator_extreme(extreme):
    def f(vals):
        pos = extreme(vals)
        return 1.0 if vals[pos] == 0 else 0.0
    return f


# -- heat semigroup -----------------------------------------------------------

def test_z2_heat_kernel_closed_form():
    density = SemigroupDensity(Z2)
    for t in (0.25, 0.5, 1.0, 2.0):
        qt = density.q(t)
        assert abs(qt.values[0] - (1 + math.exp(-2 * t)) / 2) < 1e-14
        assert abs(qt.values[1] - (1 - math.exp(-2 * t)) / 2) < 1e-14


def test_time_zero_is_delta():
    assert SemigroupDensity(S3).q(0) == delta(S3)


def test_heat_density_is_class_function():
    density = SemigroupDensity(S3)
    for t in (0.3, 1.0, 2.5):
        qt = density.q(t)
        for cls in S3.conjugacy_classes():
            vals = {round(qt.values[x], 13) for x in cls}
            assert len(vals) == 1


@pytest.mark.parametrize("name", BUILTIN)
def test_semigroup_axioms(name):
    group = builtin_group(name)
    res = semigroup_axiom_residuals(SemigroupDensity(group),
                                    (0.25, 0.5, 1.0, 2.0))
    assert res["unit"] == 0
    assert res["semigroup"] <= 1e-12
    assert res["central"] <= 1e-12
    assert res["mass"] <= 1e-12
    assert res["positivity"] <= 1e-15
    assert res["weak_continuity_monotone"]


def test_generator_set_validation():
    with pytest.raises(ValueError):
        SemigroupDensity(Z3).q(-1.0)


def test_trivial_group_has_no_heat_density():
    with pytest.raises(ValueError):
        SemigroupDensity(cyclic(1))


def is_heat_generator_set(group, s):
    """Symmetric, closed under conjugation, and generating the group."""
    if not s or group.identity in s or any(group.inv(g) not in s for g in s):
        return False
    if any(group.mul(group.mul(h, g), group.inv(h)) not in s
           for g in s for h in group.elements()):
        return False
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        x = frontier.pop()
        for y in (group.mul(x, g) for g in s):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == group.order


def test_builtin_generator_sets():
    assert default_generators(S3) == (1, 2, 3)
    assert default_generators(Z3) == (1, 2)
    assert default_generators(builtin_group("Q8")) == tuple(range(1, 8))
    assert default_generators(builtin_group("Z6")) == tuple(range(1, 6))


@pytest.mark.parametrize("name", ["S3", "other"])
def test_relabelled_s3_gets_its_transpositions(name):
    perm = (0, 4, 1, 5, 2, 3)
    relabelled = relabel(S3, perm, name)
    assert default_generators(relabelled) == tuple(sorted(perm[g] for g in (1, 2, 3)))


@given(relabelled_groups())
def test_heat_generators_follow_the_group_structure(drawn):
    group, perm, relabelled = drawn
    assert is_heat_generator_set(relabelled, default_generators(relabelled))
    density, moved = SemigroupDensity(group), SemigroupDensity(relabelled)
    for t in (0.5, 2.0):
        q, q_moved = density.q(t).values, moved.q(t).values
        assert max(abs(q_moved[perm[x]] - q[x]) for x in group.elements()) <= 1e-14


@pytest.mark.parametrize("t", ["0.5", True, None, 1j])
def test_heat_density_rejects_a_non_real_time(t):
    with pytest.raises(ValueError, match="real number"):
        SemigroupDensity(Z3).q(t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_heat_density_rejects_non_finite_times(t):
    density = SemigroupDensity(S3)
    with pytest.raises(ValueError, match="finite"):
        density.q(t)


@pytest.mark.parametrize("t", [np.float64(0.5), Fraction(1, 2), np.int64(2), 2])
def test_heat_density_accepts_any_real_time(t):
    assert SemigroupDensity(S3).q(t).values == SemigroupDensity(S3).q(float(t)).values


@pytest.mark.parametrize("t", [-0.5, -1, Fraction(-1, 2), np.float64(-1e-300)])
def test_heat_density_rejects_a_negative_time(t):
    with pytest.raises(ValueError, match="time must be a finite real number >= 0"):
        SemigroupDensity(S3).q(t)


# -- phi and mu ---------------------------------------------------------------

def test_phi_orientation_cases():
    # (0,) is read reversed, (1,) as listed, and (5,) is off the boundary
    interval = domain_box(((0, 1),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((5,))])
    assert boundary_word(interval, chain) == [(0, -1), (1, 1)]


def test_mu_chain_example_value():
    density = SemigroupDensity(Z2)
    measure = chain_measure(3, density)
    q1g = (1 - math.exp(-2)) / 2
    densities = measure_densities(measure)[1].reshape((2,) * 3)
    assert abs(densities[0, 1, 0] - q1g ** 2) < 1e-14


def test_mu_all_identity_configuration():
    density = SemigroupDensity(Z3)
    measure = chain_measure(4, density)
    expected = density.q(1).values[0] ** 3
    assert abs(measure_densities(measure)[1][0] - expected) < 1e-14


def test_mu_alpha_conditioned_mass_is_one():
    density = SemigroupDensity(Z3)
    measure = chain_measure(4, density)
    configs, densities = measure_densities(measure)
    for start in Z3.elements():
        assert abs(densities[configs[0] == start].sum() - 1.0) < 1e-12


def test_heat_tables_are_computed_on_first_use():
    density = SemigroupDensity(S3)
    measure = strip_measure(density)
    assert "q_tables" not in vars(measure) and not density._cache
    assert measure.q_tables == (density.q(1).values, density.q(1).values)
    assert measure.q_tables is measure.q_tables


def test_import_leaves_scipy_linalg_unloaded():
    code = ("import sys, cobordseries\n"
            "for name in ('Z2', 'S3'):\n"
            "    density = cobordseries.measures.SemigroupDensity(\n"
            "        cobordseries.groups.builtin_group(name))\n"
            "    density.q(0), density.q(1), density.q(2.5)\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# -- the spectral form: an expm oracle and an exact certificate -----------------

def generator_matrix(group):
    """L as a float matrix, L[x, x g] += 1/|S| and L[x, x] -= 1, for the
    oracle q_t = expm(t L)[:, e]."""
    s = default_generators(group)
    gen = np.zeros((group.order, group.order))
    for x in group.elements():
        gen[x, x] -= 1.0
        for g in s:
            gen[x, group.mul(x, g)] += 1.0 / len(s)
    return gen


def permutation_group(perms):
    """The Cayley table of a permutation group, identity first, (p q)(x) = p(q(x))."""
    perms = sorted(perms, key=lambda p: p != tuple(range(len(p))))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def generated(*gens):
    """The permutations that the given permutations generate."""
    identity = tuple(range(len(gens[0])))
    found, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for q in (tuple(p[x] for x in g) for g in gens):
            if q not in found:
                found.add(q)
                frontier.append(q)
    return found


def direct_product(m, n):
    """Z_m x Z_n, the pair (a, b) at index a n + b."""
    return [[(a // n + b // n) % m * n + (a + b) % n for b in range(m * n)]
            for a in range(m * n)]


# Groups that only a Cayley table file reaches: every one takes S = G minus e.
CAYLEY_FILE_GROUPS = {
    "V4": FiniteGroup("V4", direct_product(2, 2)),
    "D4": FiniteGroup("D4", permutation_group(generated((1, 2, 3, 0), (0, 3, 2, 1)))),
    "A4": FiniteGroup("A4", permutation_group(generated((1, 2, 0, 3), (0, 2, 3, 1)))),
    "Z2xZ4": FiniteGroup("Z2xZ4", direct_product(2, 4)),
}


def heat_group(name):
    return CAYLEY_FILE_GROUPS.get(name) or builtin_group(name)


heat_groups = st.one_of(st.sampled_from(BUILTIN + tuple(CAYLEY_FILE_GROUPS)).map(heat_group),
                        relabelled_groups().map(lambda drawn: drawn[2]))


@settings(max_examples=25)
@given(relabelled_groups(), st.lists(st.floats(0, 50), min_size=1, max_size=3))
def test_heat_density_floats_are_equal_across_conjugacy_classes(drawn, times):
    """The fact the word certificate rests on: a rotated word's value is
    conjugate to the word's, and q_t's floats are equal (==) on each class."""
    for group in [builtin_group(name) for name in BUILTIN] + [drawn[2]]:
        density = SemigroupDensity(group)
        for t in times:
            values = density.q(t).values
            assert all(len({values[x] for x in cls}) == 1 for cls in group.conjugacy_classes())


@settings(max_examples=150, deadline=None)
@given(heat_groups, st.floats(0, 50))
def test_heat_density_matches_the_expm_oracle(group, t):
    from scipy.linalg import expm

    density = SemigroupDensity(group)
    oracle = expm(t * generator_matrix(group))[:, group.identity]
    assert max(abs(a - b) for a, b in zip(density.q(t).values, oracle)) <= 1e-14
    assert density.q(0).values == tuple(1.0 if x == group.identity else 0.0
                                        for x in group.elements())


def assert_heat_certificate(group):
    """The exact laws that make q_t = sum_mu exp(mu t / |S|) pi_mu a
    convolution semigroup of central probability densities for all t, s.
    M = |S| L is built here as integer rows, M[x][y] = #{g in S : x g = y}
    - |S| [x = y], independently of the spectrum it certifies."""
    s = default_generators(group)
    size = len(s)
    m = [[sum(group.mul(x, g) == y for g in s) - size * (x == y) for y in group.elements()]
         for x in group.elements()]
    assert all(m[x][y] >= 0 for x in group.elements() for y in group.elements() if x != y)
    assert all(sum(row) == 0 for row in m)
    assert heat_spectrum(group)[0] == size
    pis = {mu: GroupFunction(group, pi) for mu, pi in heat_spectrum(group)[1]}
    zero = GroupFunction(group, (0,) * group.order)
    assert 0 in pis and all(-2 * size <= mu <= 0 for mu in pis)
    for mu, pi in pis.items():
        assert all(type(v) is Fraction for v in pi.values)
        assert is_class_function(pi)
        assert sum(pi.values) == (1 if mu == 0 else 0)
        assert [sum(a * v for a, v in zip(row, pi.values)) for row in m] == \
            [mu * v for v in pi.values]
        for nu, other in pis.items():
            assert convolve(pi, other) == (pi if nu == mu else zero)
    assert sum(pis.values(), zero) == delta(group)


@pytest.mark.parametrize("name", BUILTIN + tuple(CAYLEY_FILE_GROUPS))
def test_heat_spectrum_certificate(name):
    assert_heat_certificate(heat_group(name))


@given(relabelled_groups())
def test_heat_spectrum_certificate_on_relabelled_groups(drawn):
    assert_heat_certificate(drawn[2])


def test_heat_spectrum_is_cached_per_cayley_table():
    """The spectrum's float form is cached once per Cayley table, and the
    roots come 0 first, then descending."""
    relabelled = relabel(S3, tuple(range(6)), "other")
    assert relabelled is not S3 and relabelled == S3
    assert _heat_terms(relabelled) is _heat_terms(S3)
    assert [mu for mu, _ in heat_spectrum(S3)[1]] == [0, -3, -6]


def test_word_factor_reads_shared_read_only_group_tables():
    arrays = _group_arrays(S3)
    assert _group_arrays(relabel(S3, tuple(range(6)), "other")) is arrays
    table, inverse = arrays
    assert table.tolist() == [list(row) for row in S3.table]
    assert inverse.tolist() == list(S3.inv_table)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        inverse[0] = 1


def test_word_index_is_compiled_once_per_cayley_table():
    """An equal-table relabelling shares the compiled index, a permuted
    table gets its own, and the index is read-only."""
    word = ((0, 1), (2, -1), (1, 1), (0, -1))
    phi = _word_index(S3, word)
    assert _word_index(relabel(S3, tuple(range(6)), "other"), word) is phi
    permuted = relabel(S3, (0, 1, 2, 3, 5, 4), "permuted")
    assert permuted != S3
    assert _word_index(permuted, word) is _word_index(permuted, word) is not phi
    with pytest.raises(ValueError, match="read-only"):
        phi[0, 0, 0] = 1


@given(relabelled_groups(),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=6))
def test_word_factor_equals_word_value_on_every_assignment(drawn, word):
    """With q the element numbers, the factor is ``word_value`` itself on
    every assignment of the word's positions, its axes sorted."""
    group = drawn[2]
    factor, axes = word_factor(group, word, [float(g) for g in group.elements()])
    assert axes == tuple(sorted({pos for pos, _ in word}))
    assert np.shape(factor) == (group.order,) * len(axes)
    for values in itertools.product(group.elements(), repeat=len(axes)):
        assert factor[values] == word_value(group, word, dict(zip(axes, values)))


def test_mu_requires_saturation():
    density = SemigroupDensity(Z2)
    cells = [point_cell((0,)), point_cell((2,))]
    with pytest.raises(ValueError):
        ComplexMeasure(CellComplex(cells), [domain_box(((0, 1),))], density)


@pytest.mark.parametrize("argument, value", [
    ("domains", [((0, 1),)]), ("domains", [[(0, 1)]]), ("domains", 5),
    ("domains", domain_box(((0, 1),))), ("complex_", [point_cell((0,)), point_cell((1,))]),
    ("density", "x"), ("density", Z2),
], ids=["tuple-domain", "list-domain", "int-domains", "cell-domains", "list-complex",
        "str-density", "group-density"])
def test_mu_names_an_invalid_argument(argument, value):
    """One argument of a valid measure replaced; checked before the complex's
    saturation verdicts are looked up, which a list domain (unhashable) could not be."""
    args = {"complex_": CellComplex([point_cell((0,)), point_cell((1,))]),
            "domains": [domain_box(((0, 1),))], "density": SemigroupDensity(Z2)}
    assert ComplexMeasure(**args).words
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        ComplexMeasure(**{**args, argument: value})


def test_mu_domain_order_invariance():
    density = SemigroupDensity(S3)
    measure = chain_measure(4, density)
    for perm in itertools.permutations(range(3)):
        domains = [measure.domains[p] for p in perm]
        other = ComplexMeasure(measure.complex, domains, density)
        difference = measure_densities(measure)[1] - measure_densities(other)[1]
        assert (np.abs(difference) < 1e-15).all()


def test_mu_K_convenience():
    density = SemigroupDensity(Z2)
    cells = [point_cell((0,)), point_cell((1,))]
    measure = ComplexMeasure(CellComplex(cells), [domain_box(((0, 1),))], density)
    value = measure_densities(measure)[1].reshape(2, 2)[0, 1]
    assert abs(value - density.q(1).values[1]) < 1e-15


# -- Markov property -----------------------------------------------------------

def test_markov_trivial_functions():
    density = SemigroupDensity(Z2)
    measure = chain_measure(3, density)
    table, residual = markov_check(measure, 1, 1,
                                   lambda vals: 1.0, lambda vals: 1.0)
    assert residual == 0.0
    for value in table.values():
        assert value == (1.0, 1.0)


@pytest.mark.parametrize("group,length", [(Z2, 3), (Z3, 3), (S3, 3),
                                          (Z2, 4), (Z3, 4), (S3, 4)])
def test_markov_chains(group, length):
    density = SemigroupDensity(group)
    measure = chain_measure(length, density)
    mid = length // 2
    _, residual = markov_check(measure, mid, mid,
                               indicator_extreme(max), indicator_extreme(min))
    assert residual <= 1e-12


@pytest.mark.parametrize("group", [Z2, Z3])
def test_markov_two_plaquette_strip(group):
    density = SemigroupDensity(group)
    measure = strip_measure(density)
    _, residual = markov_check(measure, 3, 3,
                               indicator_extreme(max), indicator_extreme(min))
    assert residual <= 1e-12


def test_markov_requires_splitting():
    density = SemigroupDensity(Z2)
    measure = chain_measure(3, density)
    with pytest.raises(ValueError):
        markov_check(measure, 0, 0, lambda v: 1.0, lambda v: 1.0)


def test_markov_rejects_more_cells_than_einsum_indices():
    """A side of k cells would make n**k side-function calls; past 2**24 the
    check raises, naming the side and n**k, before calling either side."""
    measure = chain_measure(51, SemigroupDensity(Z2))
    calls = []

    def counted(vals):
        calls.append(vals)
        return 1.0

    with pytest.raises(ValueError, match=r"f_plus would be called n\*\*k = 2\*\*25 = "
                                         r"33554432 times, more than 2\*\*24"):
        markov_check(measure, 26, 26, counted, counted)
    assert calls == []


class Sentinel(Exception):
    """Raised where a size guard has let a call through."""


@pytest.mark.parametrize("k,raised", [(24, Sentinel), (25, ValueError)])
def test_word_product_guard_at_its_edge(k, raised):
    """Exactly 2**24 configurations (Z2, 24 read positions) pass the guard
    and reach the allocation, patched to raise so nothing is allocated;
    2**25 raise before it."""
    word = [(pos, 1) for pos in range(k)]
    with mock.patch.object(measures_mod.np, "ones", side_effect=Sentinel), \
            pytest.raises(raised, match=None if k == 24 else r"2\*\*25 configurations"):
        _word_product(Z2, range(k), [word], [(0.5, 0.5)])


def test_markov_reaches_the_side_function_of_a_24_cell_side():
    """A 24-cell side over Z2 makes 2**24 calls, exactly the guard's edge,
    so its side function is called; it raises on its first call.  The side
    table is taken from ``np.empty`` here, so no page of it is written."""
    measure = chain_measure(47, SemigroupDensity(Z2))
    calls = []

    def raising(vals):
        calls.append(vals)
        raise Sentinel

    with mock.patch.object(measures_mod.np, "ones", np.empty), pytest.raises(Sentinel):
        markov_check(measure, 23, 23, raising, raising)
    assert len(calls) == 1 and list(calls[0]) == list(range(23, 47))


def inside_closure_oracle(cell, component):
    """Every unit piece of the cell lies in the closed box of some
    component cell (pairwise scan)."""
    boxes = [c.box() for c in component]
    return all(any(box_contains(b, piece.box()) for b in boxes)
               for piece in cell.unit_pieces())


def side_positions(measure, split):
    """Positions each side function reads: the closure of its component of
    the region minus the splitting cell, plus that cell."""
    complex_ = measure.complex
    m_plus, m_minus = splits(complex_, split, split, region_cells(measure.domains))
    return [[i for i, cell in enumerate(complex_.cells)
             if i == split or inside_closure_oracle(cell, component)]
            for component in (m_plus, m_minus)]


def grid_instance(width, height):
    """Unit edges and unit-square domains of the width x height grid."""
    edges = ([edge_cell((x, y), 0) for x in range(width) for y in range(height + 1)]
             + [edge_cell((x, y), 1) for x in range(width + 1) for y in range(height)])
    domains = [domain_box(((x, x + 1), (y, y + 1)))
               for x in range(width) for y in range(height)]
    return edges, domains


SPLIT_INSTANCES = {
    "chain5": ([point_cell((i,)) for i in range(5)],
               [domain_box(((i, i + 1),)) for i in range(4)]),
    "strip": (strip_cells(),
              [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]),
    "grid2x2": grid_instance(2, 2),
}


def test_split_sides_are_contiguous_runs():
    """Wherever cells[lo:hi+1] splits the region of a shuffled saturated
    complex, the cells in the closure of the plus (minus) component, with
    the splitting cells, are exactly cells[lo:] (cells[:hi+1]): the sides
    markov_check hands to its side functions."""
    split_count = {name: 0 for name in SPLIT_INSTANCES}

    @given(st.sampled_from(sorted(SPLIT_INSTANCES)).flatmap(
        lambda name: st.tuples(st.just(name),
                               st.permutations(SPLIT_INSTANCES[name][0]))))
    def check(instance):
        name, cells = instance
        domains = SPLIT_INSTANCES[name][1]
        measure = ComplexMeasure(CellComplex(cells), domains, SemigroupDensity(Z2))
        region, n = region_cells(domains), len(cells)
        for lo in range(n):
            for hi in range(lo, n):
                split = splits(measure.complex, lo, hi, region)
                if split is None:
                    continue
                split_count[name] += 1
                plus, minus = [[i for i, cell in enumerate(cells)
                                if lo <= i <= hi or inside_closure_oracle(cell, comp)]
                               for comp in split[:2]]
                assert plus == list(range(lo, n))
                assert minus == list(range(hi + 1))

    check()
    assert all(split_count.values()), split_count


def test_markov_calls_each_side_function_once_per_side_assignment():
    measure = strip_measure(SemigroupDensity(S3))
    plus, minus = side_positions(measure, 3)
    calls = {"plus": 0, "minus": 0}

    def counted(side, f):
        def g(vals):
            calls[side] += 1
            return f(vals)
        return g

    markov_check(measure, 3, 3, counted("plus", indicator_extreme(max)),
                 counted("minus", indicator_extreme(min)))
    assert calls == {"plus": 6 ** len(plus), "minus": 6 ** len(minus)}
    assert 6 ** len(plus) < 6 ** len(measure.complex)


# -- reordering ----------------------------------------------------------------

def test_reorder_identity_permutation():
    density = SemigroupDensity(S3)
    measure = strip_measure(density)
    assert reorder_max_difference(measure, tuple(range(7))) == 0.0


def test_reorder_abelian_invariance_exhaustive():
    density = SemigroupDensity(Z3)
    cells = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
             edge_cell((0, 1), 0), edge_cell((0, 0), 1)]
    measure = ComplexMeasure(CellComplex(cells),
                             [domain_box(((0, 1), (0, 1)))], density)
    for perm in itertools.permutations(range(4)):
        assert reorder_max_difference(measure, perm) <= 1e-15


def test_sigma_action_rejects_non_integer_entries():
    complex_ = plaquette_setup(Z2)[1]
    assert sigma_action((1, 0, 2, 3), complex_).cells[0] == complex_.cells[1]
    for bad in [(True, 0, 2, 3), (1.0, 0, 2, 3), (0, 1, 2), (0, 1, 2, 2)]:
        with pytest.raises(ValueError, match="permutation"):
            sigma_action(bad, complex_)


@pytest.mark.parametrize("perm", [(2, 4, 3, 6, 5, 0, 1), (1, 0, 4, 2, 3, 5, 6),
                                  (4, 3, 2, 1, 5, 6, 0)])
def test_reorder_tells_sigma_from_its_inverse_on_the_s3_strip(perm):
    """On all 6^7 configurations of the S3 strip, the maxima for σ and σ⁻¹
    differ for these permutations, and the reorder residual matches a
    vectorised oracle that rebuilds the words on σK and moves the
    configuration along with the cells."""
    measure = strip_measure(SemigroupDensity(S3))
    inverse = tuple(int(i) for i in np.argsort(perm))
    expected, expected_inverse = (reorder_oracle(measure, p).max() for p in (perm, inverse))
    assert expected != expected_inverse
    assert reorder_max_difference(measure, perm) == expected
    assert reorder_max_difference(measure, inverse) == expected_inverse


def test_reorder_s3_counterexample_exists():
    density = SemigroupDensity(S3)
    cells = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
             edge_cell((0, 1), 0), edge_cell((0, 0), 1)]
    measure = ComplexMeasure(CellComplex(cells),
                             [domain_box(((0, 1), (0, 1)))], density)
    worst = max(reorder_max_difference(measure, perm)
                for perm in itertools.permutations(range(4)))
    assert worst > 1e-6


# -- adapted complexes, border reduction, cutting, pasting -----------------------

def test_adapted_examples():
    cob = CobordismBox(((0, 2),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    assert is_adapted(chain, cob)
    cob2 = CobordismBox(((0, 2), (0, 1)))
    crossing = CellComplex([Cell((-1, 0), (0,), (2,))])  # crosses alpha(Y)
    assert not is_adapted(crossing, cob2)


def test_adapted_alpha_beta_labels():
    cob = CobordismBox(((0, 2), (0, 1)))
    # the bottom-left vertical edge has its initial point on alpha(Y)...
    tilted = CellComplex([edge_cell((0, 0), 0)])
    # an edge lying inside the alpha face is not transversal
    inside_alpha = CellComplex([edge_cell((0, 0), 1)])
    assert is_adapted(tilted, cob)
    assert not is_adapted(inside_alpha, cob)


@pytest.mark.parametrize("cells, spans, adapted", [
    ([point_cell((0,)), point_cell((1,)), point_cell((2,))], ((0, 2),), True),
    ([Cell((-1, 0), (0,), (2,))], ((0, 2), (0, 1)), False),
    ([edge_cell((0, 0), 0)], ((0, 2), (0, 1)), True),
    ([edge_cell((0, 0), 1)], ((0, 2), (0, 1)), False),
], ids=["chain", "crossing", "tilted", "inside-alpha"])
def test_adapted_reads_a_cell_list_as_its_complex(cells, spans, adapted):
    cob = CobordismBox(spans)
    assert is_adapted(cells, cob) == is_adapted(CellComplex(cells), cob) == adapted


def test_border_reduce_rejects_cell_partially_on_a_domain_boundary():
    """[0,2]x{0} runs along the lower facets of both squares of the strip
    without lying inside either."""
    cells = [c for c in strip_cells() if c.axes != (0,) or c.base[1] != 0]
    complex_ = CellComplex(cells + [Cell((0, 0), (0,), (2,))])
    domains = [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]
    with pytest.raises(ValueError, match="partially on the boundary"):
        border_reduce(complex_, CobordismBox(((0, 2), (0, 1))), domains)


def test_border_reduce_two_square_strip():
    cob = CobordismBox(((0, 2), (0, 1)))
    complex_ = CellComplex(strip_cells())
    domains = [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]
    pieces = border_reduce(complex_, cob, domains)
    assert len(pieces) == 2
    assert all(isinstance(p, BorderPiece) for p in pieces)
    covered = {box for piece in pieces for box in piece.boxes()}
    # every border fragment of the strip shows up exactly once
    border_fragments = set()
    for dom in domains:
        for facet, _ in dom.facets():
            for ybox in (f.box() for f, _ in cob.cell().facets()):
                inter = tuple((max(a, c), min(b, d))
                              for (a, b), (c, d) in zip(facet.box(), ybox))
                if all(a <= b for a, b in inter) and \
                        sum(1 for a, b in inter if b > a) == 1:
                    border_fragments.add(inter)
    assert covered == border_fragments
    # piece orientations are induced by the border of the box
    cob_signs = {f.box(): f.sign for f, _ in cob.cell().facets()}
    for piece in pieces:
        for cell in piece.cells:
            face = next(b for b in cob_signs if all(
                blo <= lo and hi <= bhi
                for (blo, bhi), (lo, hi) in zip(b, cell.box())))
            assert cell.sign == cob_signs[face]
        # the shared interface edge induces the labels on the piece border:
        # its initial point below, its final point above
        assert piece.border_labels == (
            ((((1, 1), (0, 0))), INITIAL), ((((1, 1), (1, 1))), FINAL))


def test_complex_for_cobordism_partition():
    cob = CobordismBox(((0, 2),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    domains = [domain_box(((0, 1),)), domain_box(((1, 2),))]
    assert is_complex_for_cobordism(chain, cob, domains)
    missing_beta = CellComplex([point_cell((0,)), point_cell((1,))])
    assert not is_complex_for_cobordism(missing_beta, cob, domains)
    cob2 = CobordismBox(((0, 2), (0, 1)))
    strip_domains = [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]
    assert is_complex_for_cobordism(CellComplex(strip_cells()), cob2,
                                    strip_domains)


def test_complex_for_cobordism_builds_no_complex(monkeypatch):
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    strip = CellComplex(strip_cells())
    crossing = CellComplex(strip_cells() + [Cell((-1, 0), (0,), (2,))])
    built = []
    original = CellComplex.__init__

    def counting(self, cells):
        built.append(cells)
        original(self, cells)

    monkeypatch.setattr(CellComplex, "__init__", counting)
    assert is_complex_for_cobordism(chain, CobordismBox(((0, 2),)),
                                    [domain_box(((0, 1),)), domain_box(((1, 2),))])
    assert is_complex_for_cobordism(strip, CobordismBox(((0, 2), (0, 1))), [
        domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))])
    assert not is_complex_for_cobordism(crossing, CobordismBox(((0, 2), (0, 1))), [
        domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))])
    assert built == []


def test_cut_chain_at_middle():
    cob = CobordismBox(((0, 2),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    result = cut(cob, chain, 1)
    assert [c.base for c in result.k_b.cells] == [(1,)]
    assert [c.base for c in result.k.cells] == [(1,), (2,)]
    assert [c.base for c in result.k_prime.cells] == [(0,), (1,)]
    assert result.y.spans == ((1, 2),)
    assert result.y_prime.spans == ((0, 1),)


def test_cut_rejects_crossing_cells():
    cob = CobordismBox(((0, 2),))
    crossing = CellComplex([Cell((0,), (0,), (2,))])
    with pytest.raises(ValueError):
        cut(cob, crossing, 1)


def test_cut_rejects_uncovered_interface():
    cob = CobordismBox(((0, 2), (0, 2)))
    # only the lower half of the interface edge {1} x [0,2] is in the complex
    half = CellComplex([edge_cell((0, 0), 0), edge_cell((1, 0), 1),
                        edge_cell((1, 0), 0)])
    with pytest.raises(ValueError, match="not covered"):
        cut(cob, half, 1)


def test_paste_interleaving_example():
    a, s1, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    c, d = point_cell((3,)), point_cell((4,))
    pasted = paste(CellComplex([a, s1, b]), CellComplex([c, s1, d]))
    assert [x.base for x in pasted.cells] == [(0,), (3,), (1,), (2,), (4,)]


def test_paste_then_cut_round_trip():
    cob = CobordismBox(((0, 2), (0, 1)))
    complex_ = CellComplex(strip_cells())
    result = cut(cob, complex_, 1)
    pasted = paste(result.k, result.k_prime)
    again = cut(cob, pasted, 1)
    assert again.k == result.k
    assert again.k_prime == result.k_prime


def test_paste_condition_a_violation():
    a, s1, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    with pytest.raises(ValueError):
        paste(CellComplex([a, s1, b]), CellComplex([s1.reverse(), point_cell((4,))]))
    with pytest.raises(ValueError):
        paste(CellComplex([a, b]), CellComplex([point_cell((4,)),
                                                point_cell((5,))]))


def test_paste_condition_b_violation():
    a, s1, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    k = CellComplex([a, s1, b])
    kp = CellComplex([point_cell((3,)), s1, point_cell((4,))])
    cos = Cosurface(Z2, [(a, 0), (s1, 1), (b, 0)])
    cos_p = Cosurface(Z2, [(point_cell((3,)), 0), (s1, 0), (point_cell((4,)), 1)])
    with pytest.raises(ValueError):
        paste(k, kp, cos, cos_p)


@pytest.mark.parametrize("which", ["cos", "cos_prime"])
def test_paste_needs_both_cosurfaces_or_neither(which):
    a, s1, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    k = CellComplex([a, s1, b])
    kp = CellComplex([point_cell((3,)), s1, point_cell((4,))])
    given_ = {"cos": Cosurface(Z2, [(a, 0), (s1, 1), (b, 0)]),
              "cos_prime": Cosurface(Z2, [(point_cell((3,)), 0), (s1, 0),
                                          (point_cell((4,)), 1)])}
    with pytest.raises(ValueError, match="both cosurfaces or neither"):
        paste(k, kp, **{which: given_[which]})


def test_paste_neutral_piece():
    chain = CellComplex([point_cell((0,)), point_cell((1,))])
    assert paste(chain, CellComplex([])) == chain
    assert paste(CellComplex([]), chain) == chain


@pytest.mark.parametrize("group", [Z2, Z3, S3])
def test_factorization_interval(group):
    density = SemigroupDensity(group)
    cob = CobordismBox(((0, 2),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    result = cut(cob, chain, 1)
    ok, worst = factorization_check(
        result.k, result.k_prime, chain,
        [domain_box(((1, 2),))], [domain_box(((0, 1),))], density)
    assert ok, worst


@pytest.mark.parametrize("group", [Z3, S3])
def test_factorization_plaquettes(group):
    density = SemigroupDensity(group)
    cob = CobordismBox(((0, 2), (0, 1)))
    complex_ = CellComplex(strip_cells())
    result = cut(cob, complex_, 1)
    ok, worst = factorization_check(
        result.k, result.k_prime, complex_,
        [domain_box(((1, 2), (0, 1)))], [domain_box(((0, 1), (0, 1)))], density)
    assert ok, worst


def test_factorization_ordering_assumption_enforced():
    density = SemigroupDensity(S3)
    cob = CobordismBox(((0, 2),))
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    result = cut(cob, chain, 1)
    later = [domain_box(((1, 2),))]
    earlier = [domain_box(((0, 1),))]
    with pytest.raises(ValueError):
        factorization_check(result.k, result.k_prime, chain, later, earlier,
                            density, domains_pasted=tuple(later) + tuple(earlier))


def test_factorization_ordering_rule_accepts_exactly_the_earlier_prefixes():
    """Over every order of two earlier and two later domains, a non-abelian
    check rejects exactly the orders whose first two domains are not the
    earlier ones."""
    density = SemigroupDensity(S3)
    chain = CellComplex([point_cell((x,)) for x in range(5)])
    result = cut(CobordismBox(((0, 4),)), chain, 2)
    later = [domain_box(((2, 3),)), domain_box(((3, 4),))]
    earlier = [domain_box(((0, 1),)), domain_box(((1, 2),))]
    earlier_keys = {dom.key() for dom in earlier}
    args = (result.k, result.k_prime, chain, later, earlier, density)
    for pasted in itertools.permutations(earlier + later):
        if {dom.key() for dom in pasted[:2]} == earlier_keys:
            factorization_check(*args, domains_pasted=pasted)
        else:
            with pytest.raises(ValueError, match="earlier-piece domains at the beginning"):
                factorization_check(*args, domains_pasted=pasted)


def test_factorization_neutral_piece():
    density = SemigroupDensity(Z2)
    chain = CellComplex([point_cell((0,)), point_cell((1,))])
    doms = [domain_box(((0, 1),))]
    measure = ComplexMeasure(chain, doms, density)
    pasted = paste(chain, CellComplex([]))
    other = ComplexMeasure(pasted, doms, density)
    assert (measure_densities(measure)[1] == measure_densities(other)[1]).all()


# -- lattice model densities -----------------------------------------------------

def plaquette_setup(group):
    cells = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
             edge_cell((0, 1), 0), edge_cell((0, 0), 1)]
    complex_ = CellComplex(cells)
    plaquette = domain_box(((0, 1), (0, 1)))
    return cells, complex_, plaquette


@pytest.mark.parametrize("flag", [True, False])
def test_group_function_rejects_bool_scalar_on_the_right(flag):
    with pytest.raises(ValueError, match="bool"):
        SemigroupDensity(Z3).q(1.0) * flag


@pytest.mark.parametrize("flag", [True, False])
def test_group_function_rejects_bool_scalar_on_the_left(flag):
    with pytest.raises(ValueError, match="bool"):
        flag * SemigroupDensity(Z3).q(1.0)


def test_gibbs_density_beta_zero():
    cells, complex_, plaq = plaquette_setup(Z3)
    c = Cosurface(Z3, [(e, 1) for e in cells])
    action = GroupFunction(Z3, (0.0, 1.0, 1.0))
    assert gibbs_density(c, complex_, 0.0, action, [plaq]) == 1.0


def test_gibbs_density_identity_plaquette():
    cells, complex_, plaq = plaquette_setup(Z3)
    c = Cosurface(Z3, [(e, 0) for e in cells])
    action = GroupFunction(Z3, (0.0, 1.0, 1.0))
    assert gibbs_density(c, complex_, 2.0, action, [plaq]) == 1.0
    assert gibbs_density(c, complex_, 2.0, action, [plaq]) == \
        math.exp(-2.0 * action.values[0])


def test_gibbs_requires_class_function():
    cells, complex_, plaq = plaquette_setup(S3)
    c = Cosurface(S3, [(e, 0) for e in cells])
    lopsided = GroupFunction(S3, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert not is_class_function(lopsided)
    with pytest.raises(ValueError):
        gibbs_density(c, complex_, 1.0, lopsided, [plaq])


# -- measure-valued series ---------------------------------------------------------

def test_measure_series_interval_coefficients():
    density = SemigroupDensity(Z3)
    gpd = make_interval_groupoid(0, 5)
    series = measure_series(gpd, density, 5)
    assert series.coefficient((0, 2)) == density.q(2)
    assert series.coefficient(gpd.neutral) == delta(Z3)


def test_measure_series_multiplicative():
    density = SemigroupDensity(Z3)
    gpd = make_interval_groupoid(0, 5)
    series = measure_series(gpd, density, 5)
    ok, worst = measure_series_multiplicativity(series)
    assert ok, worst


def test_measure_series_box_groupoid():
    density = SemigroupDensity(Z2)
    gpd = make_box_groupoid(2, ((0, 2), (0, 2)))
    series = measure_series(gpd, density, 4)
    ok, worst = measure_series_multiplicativity(series)
    assert ok, worst


def multiplicativity_oracle(series, tol=1e-12):
    """``measure_series_multiplicativity`` through the validating ``compose``
    and ``coefficient``."""
    gpd, worst = series.groupoid, 0.0
    elems = gpd.elements_up_to(series.order)
    for i in elems:
        for j in elems:
            k = gpd.compose(i, j)
            if k is None or gpd.ord(k) > series.order:
                continue
            lhs, rhs = series.coefficient(k), series.coefficient(i) * series.coefficient(j)
            worst = max(worst, max(abs(a - b) for a, b in zip(lhs.values, rhs.values)))
    return worst <= tol, worst


@pytest.mark.parametrize("gpd, order, group", [
    (make_interval_groupoid(0, 5), 5, Z3), (make_box_groupoid(2, ((0, 2), (0, 2))), 4, Z2),
    (make_nat_monoid(), 4, S3)], ids=["interval", "box", "nat"])
def test_measure_series_multiplicativity_matches_the_validating_oracle(gpd, order, group):
    series = measure_series(gpd, SemigroupDensity(group), order)
    assert series == FormalSeries(gpd, order, series.coeffs, series.unit)   # trusted keys are valid
    partial = FormalSeries(gpd, order, {e: v for e, v in series.coeffs.items()
                                        if gpd.ord(e) != 2}, series.unit)
    bumped = dict(series.coeffs)
    last = gpd.elements_up_to(order)[-1]
    bumped[last] = bumped[last] * 1.5
    perturbed = FormalSeries(gpd, order, bumped, series.unit)
    assert measure_series_multiplicativity(series) == multiplicativity_oracle(series)
    for broken in (partial, perturbed):
        ok, worst = measure_series_multiplicativity(broken)
        assert (ok, worst) == multiplicativity_oracle(broken)
        assert not ok and worst > 0


def test_measure_series_multiplicativity_reads_each_composite_of_a_repeated_pair():
    """On interval:0..3 at order 2 the unit intervals share one coefficient, so
    both grade-2 indices are composites of the same pair; a bump of the later
    one is found."""
    gpd = make_interval_groupoid(0, 3)
    series = measure_series(gpd, SemigroupDensity(Z3), 2)
    later = [e for e in gpd.elements_up_to(2) if gpd.ord(e) == 2][-1]
    bumped = dict(series.coeffs)
    bumped[later] = bumped[later] * 1.5
    broken = FormalSeries(gpd, 2, bumped, series.unit)
    ok, worst = measure_series_multiplicativity(broken)
    assert (ok, worst) == multiplicativity_oracle(broken) and not ok


def test_extract_preserves_original_orders():
    from cobordseries.measures import extract

    a, s1, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    c, d = point_cell((3,)), point_cell((4,))
    k = CellComplex([a, s1, b])
    kp = CellComplex([c, s1, d])
    pasted = paste(k, kp)
    assert extract(pasted, k) == k
    assert extract(pasted, kp) == kp


def test_extract_rejects_an_original_cell_missing_from_the_pasted_complex():
    from cobordseries.measures import extract

    a, s, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    with pytest.raises(ValueError, match=re.escape(f"{b!r} is not in the pasted complex")):
        extract(CellComplex([a, s]), CellComplex([b]))


def test_extract_rejects_an_original_cell_oriented_otherwise():
    from cobordseries.measures import extract

    a, s, b = point_cell((0,)), point_cell((1,)), point_cell((2,))
    assert extract(CellComplex([a, s, b]), CellComplex([a, s])) == CellComplex([a, s])
    with pytest.raises(ValueError, match=re.escape(f"{a.reverse()!r} differs in orientation")):
        extract(CellComplex([a, s, b]), CellComplex([a.reverse(), s]))


def test_gibbs_density_nonzero_action():
    cells = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
             edge_cell((0, 1), 0), edge_cell((0, 0), 1)]
    complex_ = CellComplex(cells)
    plaq = domain_box(((0, 1), (0, 1)))
    c = Cosurface(Z3, [(cells[0], 1), (cells[1], 0), (cells[2], 0),
                       (cells[3], 0)])
    action = GroupFunction(Z3, (0.0, 0.7, 0.7))
    beta = 1.5
    # boundary product is the single nonidentity edge value
    expected = math.exp(-beta * 0.7)
    assert abs(gibbs_density(c, complex_, beta, action, [plaq]) - expected) < 1e-14
    with pytest.raises(ValueError):
        gibbs_density(c, complex_, -1.0, action, [plaq])


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0, True, False, "x", None, 1j])
def test_gibbs_density_beta_must_be_finite_and_non_negative(beta):
    cells, complex_, plaq = plaquette_setup(Z3)
    c = Cosurface(Z3, [(e, 1) for e in cells])
    action = GroupFunction(Z3, (0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="coupling constant must be a finite real number >= 0"):
        gibbs_density(c, complex_, beta, action, [plaq])


def test_file_loaded_group_runs_the_measure_pipeline(tmp_path):
    """A Klein four-group supplied as a Cayley file drives the heat kernel
    and the Markov check exactly like a built-in group."""
    import json

    from cobordseries.groups import load_cayley_file

    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    path = tmp_path / "klein.json"
    with open(path, "w") as fh:
        json.dump({"order": 4, "labels": ["e", "a", "b", "ab"],
                   "table": table}, fh)
    klein = load_cayley_file(path)
    assert klein.is_abelian
    density = SemigroupDensity(klein)
    res = semigroup_axiom_residuals(density, (0.5, 1.0))
    assert res["semigroup"] <= 1e-12
    measure = chain_measure(3, density)
    _, residual = markov_check(measure, 1, 1,
                               indicator_extreme(max), indicator_extreme(min))
    assert residual <= 1e-12


# -- factor-tensor contractions against the enumeration oracle ---------------------

ORACLE_GROUPS = ("Z2", "Z3", "Z6", "S3", "Q8")
ORACLE_INSTANCES = [(g, name) for g in ORACLE_GROUPS
                    for name in ("chain3", "chain4", "chain5", "plaquette")]
ORACLE_INSTANCES += [("Z2", "strip"), ("Z3", "strip")]


def oracle_measure(gname, name):
    density = SemigroupDensity(builtin_group(gname))
    if name == "strip":
        return strip_measure(density)
    if name == "plaquette":
        return ComplexMeasure(plaquette_setup(Z2)[1],
                              [domain_box(((0, 1), (0, 1)))], density)
    return chain_measure(int(name[-1]), density)


def weighted(vals):
    return 1.0 / (1.0 + sum((pos + 1) * value for pos, value in vals.items()))


def brute_markov(measure, split, f_plus, f_minus):
    """The enumerating oracle at the one-cell split cells[split]."""
    return markov_oracle(measure, side_positions(measure, split), split, split,
                         f_plus, f_minus)


def oracle_splits(name):
    if name == "strip":
        return [3]
    if name == "plaquette":
        return []
    return list(range(1, int(name[-1]) - 1))


@pytest.mark.parametrize("gname,name", ORACLE_INSTANCES)
def test_density_array_equals_the_enumerated_densities_exactly(gname, name):
    measure = oracle_measure(gname, name)
    dense = measure.density_array()
    assert dense.shape == (measure.group.order,) * len(measure.complex)
    assert (dense.reshape(-1) == measure_densities(measure)[1]).all()


def looped_densities(measure):
    """The densities in ``itertools.product`` order, one configuration at a
    time, each word's product read off the Cayley table letter by letter."""
    group, out = measure.group, []
    for config in itertools.product(range(group.order), repeat=len(measure.complex)):
        density = 1.0
        for word, q in zip(measure.words, measure.q_tables):
            phi = group.identity
            for pos, exp in word:
                value = config[pos]
                phi = group.table[phi][value if exp > 0 else group.inv_table[value]]
            density *= q[phi]
        out.append(density)
    return out


def assert_enumeration_matches_the_loop(measure):
    """``measure_densities`` lays G^K out in ``itertools.product`` order and
    gives the loop's densities bit for bit."""
    configs, densities = measure_densities(measure)
    order = itertools.product(range(measure.group.order), repeat=len(measure.complex))
    assert configs.T.tolist() == [list(config) for config in order]
    assert [d.hex() for d in densities.tolist()] == [d.hex() for d in looped_densities(measure)]


@pytest.mark.parametrize("gname,name", ORACLE_INSTANCES)
def test_enumerated_densities_equal_a_per_configuration_loop(gname, name):
    assert_enumeration_matches_the_loop(oracle_measure(gname, name))


def test_the_oracles_never_call_the_engine():
    """The shared oracles run with the engine's word factor and product
    kernel patched to raise, and agree with the engine run afterwards."""
    measure, plaquette = oracle_measure("S3", "chain4"), oracle_measure("S3", "plaquette")
    perm = (0, 1, 3, 2)
    result = cut(CobordismBox(((0, 3),)), measure.complex, 2)
    later = [d for d in measure.domains if d.box()[0][0] >= 2]
    earlier = [d for d in measure.domains if d.box()[0][1] <= 2]
    args = (result.k, result.k_prime, measure.complex, later, earlier, measure.density)
    raising = AssertionError("the engine was called")
    with mock.patch.object(measures_mod, "word_factor", side_effect=raising), \
            mock.patch.object(measures_mod, "_word_product", side_effect=raising):
        with pytest.raises(AssertionError, match="the engine was called"):
            measure.density_array()
        densities = measure_densities(measure)[1]
        table, residual = markov_oracle(measure, side_positions(measure, 1), 1, 1,
                                        weighted, indicator_extreme(min))
        reordered = reorder_oracle(plaquette, perm).max()
        factored = factorization_oracle(*args)[0]
    assert (densities == measure.density_array().reshape(-1)).all()
    engine_table, engine_residual = markov_check(measure, 1, 1, weighted,
                                                 indicator_extreme(min))
    assert list(table) == list(engine_table) and abs(residual - engine_residual) <= 1e-13
    assert reordered == reorder_max_difference(plaquette, perm) > 0.0
    with mock.patch.object(measures_mod, "_same_factor", return_value=False):
        assert factored == factorization_check(*args)[1]


@pytest.mark.parametrize("gname,name", [case for case in ORACLE_INSTANCES
                                        if case[1] != "plaquette"])
def test_markov_contraction_matches_enumeration(gname, name):
    measure = oracle_measure(gname, name)
    pairs = [(indicator_extreme(max), indicator_extreme(min)),
             (weighted, lambda vals: 1.0 - 0.05 * max(vals.values()))]
    for split in oracle_splits(name):
        for f_plus, f_minus in pairs:
            table, residual = markov_check(measure, split, split, f_plus, f_minus)
            expected, expected_residual = brute_markov(measure, split, f_plus, f_minus)
            assert list(table) == list(expected)
            assert all(type(v) is int for key in table for v in key)
            assert [k for k, v in table.items() if v is None] == \
                [k for k, v in expected.items() if v is None]
            for key, pair in expected.items():
                if pair is not None:
                    assert abs(table[key][0] - pair[0]) <= 1e-13
                    assert abs(table[key][1] - pair[1]) <= 1e-13
            assert abs(residual - expected_residual) <= 1e-13


CONFIG_BUDGET = 4096
BOX_EXTENTS = ([(m,) for m in range(1, 12)] + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
               + [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)])


def finest_cell_count(extents):
    """Unit facets of the unit grid in a box of these extents: the largest
    facet complex of any guillotine subdivision of the box."""
    return sum((e + 1) * math.prod(extents[:a] + extents[a + 1:])
               for a, e in enumerate(extents))


@st.composite
def markov_instances(draw, groups=st.one_of(relabelled_groups(), relabelled_groups(("S3",)))):
    """(relabelled group, guillotine domains, facet complex) with at most
    CONFIG_BUDGET configurations; by default relabelled S3 in about half the
    draws, and the complex ``swept`` along a drawn axis in about half."""
    _, _, group = draw(groups)
    extents = draw(st.sampled_from([e for e in BOX_EXTENTS if group.order
                                    ** finest_cell_count(e) <= CONFIG_BUDGET]))
    domains = draw(guillotine_domains(tuple((0, e) for e in extents)))
    complex_ = draw(facet_complex(domains))
    if draw(st.booleans()):
        complex_ = swept(complex_, draw(st.integers(0, len(extents) - 1)))
    return group, domains, complex_


def swept(complex_, axis):
    """The complex in a sweep order: cells sorted by their midpoints along
    ``axis``, the sort stable, so equal midpoints keep their shuffled order."""
    return CellComplex(sorted(complex_.cells, key=lambda cell: sum(cell.box()[axis])))


def test_markov_check_matches_enumeration_on_generated_instances():
    """On guillotine facet complexes over relabelled groups, at every lo..hi
    where splits succeeds, markov_check is within 1e-13 of the enumerating
    oracle."""
    checked = {}
    f_minus = lambda vals: 1.0 - 0.05 * max(vals.values())  # noqa: E731

    @given(markov_instances())
    def check(instance):
        group, domains, complex_ = instance
        measure = ComplexMeasure(complex_, domains, SemigroupDensity(group))
        region, size = region_cells(domains), len(complex_)
        for lo in range(size):
            for hi in range(lo, size):
                split = splits(complex_, lo, hi, region)
                if split is None:
                    continue
                sides = [[i for i, cell in enumerate(complex_.cells)
                          if lo <= i <= hi or inside_closure_oracle(cell, comp)]
                         for comp in split[:2]]
                table, residual = markov_check(measure, lo, hi, weighted, f_minus)
                want, want_residual = markov_oracle(measure, sides, lo, hi,
                                                    weighted, f_minus)
                assert list(table) == list(want)
                for key, pair in want.items():
                    if pair is None:
                        assert table[key] is None
                    else:
                        assert abs(table[key][0] - pair[0]) <= 1e-13
                        assert abs(table[key][1] - pair[1]) <= 1e-13
                assert abs(residual - want_residual) <= 1e-13
                kind = "S3" if not group.is_abelian and group.order == 6 else "other"
                checked[kind] = checked.get(kind, 0) + 1

    check()
    assert checked.get("S3") and checked.get("other"), checked


@given(markov_instances())
def test_enumerated_densities_equal_the_loop_on_generated_instances(instance):
    group, domains, complex_ = instance
    assert_enumeration_matches_the_loop(ComplexMeasure(complex_, domains,
                                                       SemigroupDensity(group)))


def test_markov_instances_split_in_two_and_three_dimensions():
    """Over Z2, the one group whose configuration budget admits a cut 2-D and
    3-D box, generated instances reach a split in 2-D and in 3-D, and some
    reach none (a single domain never splits)."""
    verdicts = {}

    @given(markov_instances(relabelled_groups(("Z2",))))
    def collect(instance):
        _, domains, complex_ = instance
        region, size = region_cells(domains), len(complex_)
        found = any(splits(complex_, lo, hi, region) is not None
                    for lo in range(size) for hi in range(lo, size))
        verdicts.setdefault(len(complex_.cells[0].base), set()).add(found)

    collect()
    assert True in verdicts[2] and True in verdicts[3], verdicts
    assert set().union(*verdicts.values()) == {True, False}, verdicts


def test_markov_rejects_a_word_reading_both_sides_before_any_side_call():
    measure = chain_measure(4, SemigroupDensity(Z2))
    measure.words = measure.words[:2] + (((0, -1), (3, 1)),)

    def never(vals):
        pytest.fail("side function called")

    with pytest.raises(ValueError, match=r"reads both sides of cells\[1:2\]"):
        markov_check(measure, 1, 1, never, never)


@pytest.mark.parametrize("gname,name,split", [("S3", "strip", 3), ("Q8", "chain4", 1)])
def test_markov_side_functions_get_fresh_dicts_in_product_order(gname, name, split):
    """Each side function call gets its own dict, keyed by exactly the side's
    positions; a mutation inside one call does not reach the next; the
    assignments arrive in itertools.product order, n**k calls per side."""
    measure = oracle_measure(gname, name)
    n = measure.group.order
    calls = {"plus": [], "minus": []}

    def recording(side):
        def f(vals):
            calls[side].append((vals, dict(vals)))
            for pos in vals:
                vals[pos] = -1
            vals["mutated"] = True
            return 1.0
        return f

    markov_check(measure, split, split, recording("plus"), recording("minus"))
    for side, positions in zip(("plus", "minus"), side_positions(measure, split)):
        seen, entry = zip(*calls[side])
        assert len(seen) == n ** len(positions)
        assert len({id(vals) for vals in seen}) == len(seen)
        assert all(list(vals) == positions for vals in entry)
        assert [tuple(vals.values()) for vals in entry] == \
            list(itertools.product(range(n), repeat=len(positions)))


def test_markov_check_plans_once_per_signature(monkeypatch):
    """No einsum and no path search: Z6 and S3 checks of the same shapes,
    run in either order, match the enumeration."""
    calls = {"einsum": 0, "einsum_path": 0}

    def counting(name, original):
        def f(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return f

    for name in calls:
        monkeypatch.setattr(measures_mod.np, name, counting(name, getattr(np, name)))
    measures = {g: oracle_measure(g, "chain5") for g in ("Z6", "S3")}
    f_plus, f_minus = weighted, lambda vals: 1.0 - 0.05 * max(vals.values())
    splits_ = oracle_splits("chain5")
    expected = {(g, split): brute_markov(measures[g], split, f_plus, f_minus)
                for g in measures for split in splits_}
    for order in (("Z6", "S3"), ("S3", "Z6")):
        for gname in order:
            for split in splits_:
                table, residual = markov_check(measures[gname], split, split,
                                               f_plus, f_minus)
                want, want_residual = expected[gname, split]
                assert list(table) == list(want)
                for key, pair in want.items():
                    assert abs(table[key][0] - pair[0]) <= 1e-13
                    assert abs(table[key][1] - pair[1]) <= 1e-13
                assert abs(residual - want_residual) <= 1e-13
    assert calls == {"einsum": 0, "einsum_path": 0}


@settings(max_examples=100)
@given(st.lists(st.integers(0, 51), min_size=1, max_size=5, unique=True)
       .filter(lambda ps: max(ps) >= 10 and sorted(ps) != list(range(min(ps), max(ps) + 1))),
       st.integers(1, 3))
def test_assignment_maker_builds_fresh_zipped_dicts(positions, n):
    """Each call gives a new dict equal to dict(zip(positions, values)), keys
    in the positions' order, over itertools.product order."""
    from cobordseries.measures import _assignment_maker

    make = _assignment_maker(tuple(positions))
    values = list(itertools.product(range(n), repeat=len(positions)))
    dicts = list(map(make, values))
    assert [list(d.items()) for d in dicts] == [list(zip(positions, t)) for t in values]
    assert len({id(d) for d in dicts}) == len(dicts)


@pytest.mark.parametrize("side", ["f_plus", "f_minus"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_markov_rejects_non_finite_side_values(side, bad):
    """max() drops a nan residual, so a non-finite side value must raise."""
    measure = chain_measure(4, SemigroupDensity(Z2))
    sides = {"f_plus": lambda v: 1.0, "f_minus": lambda v: 1.0}
    sides[side] = lambda v: bad
    with pytest.raises(ValueError, match=f"{side} returned a non-finite value"):
        markov_check(measure, 1, 1, **sides)


@pytest.mark.parametrize("lo,hi", [(True, True), (1.0, 1), (1, 1.0), (np.int64(1), 1)])
def test_markov_split_indices_must_be_ints(lo, hi):
    measure = chain_measure(4, SemigroupDensity(Z2))

    def never(vals):
        pytest.fail("side function called")

    with pytest.raises(ValueError, match="(lo|hi) must be an int in"):
        markov_check(measure, lo, hi, never, never)


@pytest.mark.parametrize("lo, hi", [(0, 4), (4, 4), (2, 1), (-1, 0)])
def test_markov_split_indices_must_lie_in_the_complex(lo, hi):
    measure = chain_measure(4, SemigroupDensity(Z2))
    assert len(measure.complex) == 4

    def never(vals):
        pytest.fail("side function called")

    with pytest.raises(ValueError, match="(lo|hi) must be an int in"):
        markov_check(measure, lo, hi, never, never)


def test_markov_splits_a_complex_once_over_every_group(monkeypatch):
    """One complex checked over five groups is split once; the indices are
    still checked on every call, before the cached split is looked up (True
    hashes like 1)."""
    calls, real_splits = [], cells_mod.splits
    monkeypatch.setattr(cells_mod, "splits",
                        lambda *args: calls.append(args) or real_splits(*args))
    complex_, domains = chain_instance(4)
    for name in ("Z2", "Z3", "Z6", "S3", "Q8"):
        measure = ComplexMeasure(complex_, domains, SemigroupDensity(builtin_group(name)))
        assert markov_check(measure, 1, 1, weighted, weighted)[1] <= 1e-12
    assert len(calls) == 1
    for lo, hi in ((True, 1), (1, True), (1, -1), (-1, 1)):
        with pytest.raises(ValueError, match="(lo|hi) must be an int in"):
            markov_check(measure, lo, hi, weighted, weighted)
    assert len(calls) == 1


def test_measures_saturate_a_complex_once_per_domain_tuple_over_every_group(monkeypatch):
    """Measures over five groups check each (complex, domain tuple) once: the
    domains, the domains reversed, all but the last (unsaturated, refused on
    every construction) and an equal complex of the same cells."""
    calls, real_is_saturated = [], cells_mod.is_saturated
    monkeypatch.setattr(cells_mod, "is_saturated",
                        lambda *args: calls.append(args) or real_is_saturated(*args))
    complex_, domains = chain_instance(4)
    twin = CellComplex(complex_.cells)
    for name in ("Z2", "Z3", "Z6", "S3", "Q8"):
        density = SemigroupDensity(builtin_group(name))
        for _ in range(2):
            for other, doms in ((complex_, domains), (complex_, domains[::-1]), (twin, domains)):
                assert ComplexMeasure(other, doms, density).words
            with pytest.raises(ValueError, match="not saturated"):
                ComplexMeasure(complex_, domains[:-1], density)
    assert [(id(other), doms) for other, doms in calls] == [
        (id(complex_), tuple(domains)), (id(complex_), tuple(domains[::-1])),
        (id(twin), tuple(domains)), (id(complex_), tuple(domains[:-1]))]


def test_saturation_predicates_stay_uncached():
    """``is_saturated`` and ``is_complex_for_cobordism`` leave a complex's
    compiled verdicts as they are."""
    complex_, domains = chain_instance(4)
    for _ in range(2):
        assert is_saturated(complex_, domains)
        assert is_complex_for_cobordism(complex_, CobordismBox(((0, 3),)), domains)
    assert complex_._saturates == {}


def test_cached_splits_equal_fresh_splits_on_generated_instances():
    @given(markov_instances())
    def check(instance):
        _, domains, complex_ = instance
        for doms in (tuple(domains), tuple(domains[:-1])):  # one complex, two regions
            region = region_cells(doms)
            for lo in range(len(complex_)):
                for hi in range(lo, len(complex_)):
                    fresh = splits(complex_, lo, hi, region)
                    assert complex_._split(lo, hi, doms) == fresh
                    assert complex_._split(lo, hi, doms) == fresh

    check()


@pytest.mark.parametrize("bad", ["x", None, 1])
@pytest.mark.parametrize("side", ["f_plus", "f_minus"])
def test_markov_side_functions_must_be_callable(side, bad):
    measure = chain_measure(4, SemigroupDensity(Z2))
    sides = {"f_plus": lambda v: pytest.fail("side function called"),
             "f_minus": lambda v: pytest.fail("side function called")}
    sides[side] = bad
    with pytest.raises(ValueError, match="side functions must be callable"):
        markov_check(measure, 1, 1, **sides)


@pytest.mark.parametrize("gname,name", [case for case in ORACLE_INSTANCES
                                        if case[1] != "plaquette"])
def test_factorization_contraction_matches_enumeration(gname, name):
    measure = oracle_measure(gname, name)
    complex_ = measure.complex
    spans = ((0, 2), (0, 1)) if name == "strip" else ((0, len(complex_) - 1),)
    for at in ([1] if name == "strip" else oracle_splits(name)):
        result = cut(CobordismBox(spans), complex_, at)
        later = [d for d in measure.domains if d.box()[0][0] >= at]
        earlier = [d for d in measure.domains if d.box()[0][1] <= at]
        args = (result.k, result.k_prime, complex_, later, earlier, measure.density)
        with mock.patch.object(measures_mod, "_word_product",
                               wraps=measures_mod._word_product) as products:
            ok, worst = factorization_check(*args)
        with mock.patch.object(measures_mod, "_same_factor", return_value=False):
            arrays_worst = factorization_check(*args)[1]  # the certificate refused
        expected, largest = factorization_oracle(*args)
        assert arrays_worst == expected
        if products.called:
            assert worst == expected
        else:  # certified from the words; the oracle differs by its own rounding
            assert worst == 0.0 and expected <= 1e-15 * largest
        assert ok == (expected <= 1e-12) and ok


@pytest.mark.parametrize("gname,name", ORACLE_INSTANCES)
def test_reorder_contraction_matches_enumeration(gname, name):
    measure = oracle_measure(gname, name)
    size = len(measure.complex)
    if name == "plaquette":
        perms = list(itertools.permutations(range(size)))
    else:
        perms = [tuple(reversed(range(size))), tuple(range(1, size)) + (0,)]
    for perm in perms:
        assert reorder_max_difference(measure, perm) == reorder_oracle(measure, perm).max()


# -- input validation ----------------------------------------------------------------

@pytest.mark.parametrize("spans", [((0, 2.7),), ((True, 2),), ((0, 2), (0.0, 1)),
                                   (("0", 2),)])
def test_cobordism_box_spans_must_be_int_pairs(spans):
    with pytest.raises(ValueError, match="int pairs"):
        CobordismBox(spans)


@pytest.mark.parametrize("axis", [0.5, 1.0, True, -1, 2])
def test_cobordism_box_axis_must_be_an_int_axis(axis):
    with pytest.raises(ValueError, match="time axis"):
        CobordismBox(((0, 2), (0, 1)), axis=axis)


@pytest.mark.parametrize("interface", [True, 1.0, 1.5, 0, 2])
def test_cut_interface_must_be_an_int_inside_the_span(interface):
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    with pytest.raises(ValueError, match="interface"):
        cut(CobordismBox(((0, 2),)), chain, interface)


BAD_TOLERANCES = [math.nan, math.inf, -1.0, True, "x", None]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_factorization_check_tolerance_must_be_finite_and_non_negative(tol):
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    result = cut(CobordismBox(((0, 2),)), chain, 1)
    args = (result.k, result.k_prime, chain, [domain_box(((1, 2),))],
            [domain_box(((0, 1),))], SemigroupDensity(Z3))
    assert factorization_check(*args, tol=0) == (True, 0.0)
    with pytest.raises(ValueError, match="tol must be a finite real number >= 0"):
        factorization_check(*args, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_measure_series_multiplicativity_tolerance_must_be_finite_and_non_negative(tol):
    series = measure_series(make_interval_groupoid(0, 3), SemigroupDensity(Z3), 3)
    assert measure_series_multiplicativity(series, tol=1)[0]
    with pytest.raises(ValueError, match="tol must be a finite real number >= 0"):
        measure_series_multiplicativity(series, tol=tol)
