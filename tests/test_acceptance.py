"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check runs at its stated tolerance within its stated time budget.
Run with ``pytest -v tests/test_acceptance.py`` (one line per criterion) or
directly with ``python tests/test_acceptance.py`` for the printed summary.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cobordseries.cells import (
    Cell, CellComplex, Cosurface, boundary_word, dimension_extend, domain_box,
    edge_cell, extend_abelian, extend_nonabelian, point_cell,
)
from cobordseries.groupoids import make_interval_groupoid, make_nat_monoid
from cobordseries.groups import builtin_group, convolve, delta
from cobordseries.matrices import RationalMatrix
from cobordseries.measures import (
    CobordismBox, ComplexMeasure, SemigroupDensity, cut, factorization_check,
    markov_check, measure_series, measure_series_multiplicativity, paste,
    reorder_max_difference, sigma_action,
)
from cobordseries.paths import (
    AlgebraPath, CoeffPoly, convergence_suite_paths, convergence_table,
    error_ratios, grade_component, iterated_integrals, left_log_derivative,
    solve_left_ode,
)
from cobordseries.series import FormalSeries
from cobordseries import nonregular

RNG_SEED = 0


def report(number, label, elapsed, budget, ok):
    status = "PASS" if ok else "FAIL"
    headroom = (budget - elapsed) / budget
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / budget {budget}s, "
          f"headroom {headroom:.1%})", flush=True)
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def random_matrix_series(gpd, order, rng, support=6):
    unit = RationalMatrix.identity(2)
    elems = [e for e in gpd.elements_up_to(order) if gpd.ord(e) >= 1]
    picked = rng.sample(elems, min(support, len(elems)))
    coeffs = {e: RationalMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                  for _ in range(2)] for _ in range(2)])
              for e in picked}
    return FormalSeries(gpd, order, coeffs, unit)


def test_criterion_1_exp_log_bijection():
    start = time.perf_counter()
    rng = random.Random(RNG_SEED)
    ok = True
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 6)):
        for _ in range(100):
            a = random_matrix_series(gpd, 6, rng)
            one = FormalSeries.one(gpd, 6, a.unit)
            ok &= a.exp().log() == a
            ok &= (one + a).log().exp() == one + a
    report(1, "exp/log bijection, exact, N=6, 100 series per groupoid",
           time.perf_counter() - start, 5, ok)


def random_polynomial_paths(rng, count=20, order=4, max_degree=3):
    nat = make_nat_monoid()
    interval = make_interval_groupoid(0, order)
    unit2 = RationalMatrix.identity(2)
    paths = []
    for i in range(count):
        gpd = nat if i % 2 == 0 else interval
        matrix_valued = i % 3 == 0
        unit = unit2 if matrix_valued else Fraction(1)
        polys = {}
        for elem in gpd.elements_up_to(order):
            if gpd.ord(elem) == 0 or rng.random() < 0.5:
                continue
            degree = rng.randint(0, max_degree)
            if matrix_valued:
                coeffs = [RationalMatrix(
                    [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                      for _ in range(2)] for _ in range(2)])
                    for _ in range(degree + 1)]
            else:
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(degree + 1)]
            polys[elem] = CoeffPoly(coeffs, unit)
        if not polys:
            grade_one = next(e for e in gpd.elements_up_to(order)
                             if gpd.ord(e) == 1)
            polys[grade_one] = CoeffPoly.one(unit)
        paths.append(AlgebraPath(gpd, order, polys, unit))
    return paths


def convergence_suite():
    return list(convergence_suite_paths(4).values())


def test_criterion_2_product_integral():
    start = time.perf_counter()
    rng = random.Random(RNG_SEED)
    ok = True
    for v in random_polynomial_paths(rng):
        u = solve_left_ode(v)
        ok &= left_log_derivative(u) == v
        at_one = u(1)
        for m in range(v.order + 1):
            ok &= iterated_integrals(v, m) == grade_component(at_one, m)
    for v in convergence_suite():
        rows = convergence_table(v, [8, 16, 32, 64])
        ratios = error_ratios(rows)
        ok &= bool(ratios)
        ok &= all(1.7 <= r["ratio"] <= 2.3 for r in ratios)
    report(2, "product integral exact + iterated integrals + C/n rate",
           time.perf_counter() - start, 30, ok)


def test_criterion_3_semigroup_axioms():
    start = time.perf_counter()
    ok = True
    times = (0.25, 0.5, 1.0, 2.0)
    for name in ("Z2", "Z3", "Z4", "S3", "Q8"):
        group = builtin_group(name)
        density = SemigroupDensity(group)
        ok &= density.q(0) == delta(group)
        for t in times:
            qt = density.q(t)
            for cls in group.conjugacy_classes():
                vals = [qt.values[x] for x in cls]
                ok &= max(vals) - min(vals) <= 1e-12
            for s in times:
                lhs = convolve(qt, density.q(s))
                rhs = density.q(t + s)
                ok &= max(abs(a - b)
                          for a, b in zip(lhs.values, rhs.values)) <= 1e-12
    report(3, "semigroup axioms to 1e-12 on Z2,Z3,Z4,S3,Q8",
           time.perf_counter() - start, 5, ok)


def chain_measure(length, density):
    cells = [point_cell((i,)) for i in range(length)]
    domains = [domain_box(((i, i + 1),)) for i in range(length - 1)]
    return ComplexMeasure(CellComplex(cells), domains, density)


def strip_cells():
    return [
        edge_cell((0, 0), 1), edge_cell((0, 0), 0), edge_cell((0, 1), 0),
        edge_cell((1, 0), 1),
        edge_cell((1, 0), 0), edge_cell((1, 1), 0), edge_cell((2, 0), 1),
    ]


def strip_measure(density):
    domains = [domain_box(((0, 1), (0, 1))), domain_box(((1, 2), (0, 1)))]
    return ComplexMeasure(CellComplex(strip_cells()), domains, density)


def indicator(extreme):
    return lambda vals: 1.0 if vals[extreme(vals)] == 0 else 0.0


def test_criterion_4_markov_property():
    start = time.perf_counter()
    ok = True
    for name in ("Z2", "Z3", "S3", "Q8"):
        density = SemigroupDensity(builtin_group(name))
        for length in (3, 4):
            measure = chain_measure(length, density)
            mid = length // 2
            _, residual = markov_check(measure, mid, mid,
                                       indicator(max), indicator(min))
            ok &= residual <= 1e-12
        _, residual = markov_check(strip_measure(density), 3, 3,
                                   indicator(max), indicator(min))
        ok &= residual <= 1e-12
    report(4, "Markov conditional independence to 1e-12 (chains + strip)",
           time.perf_counter() - start, 60, ok)


def test_criterion_5_cut_paste_factorization():
    start = time.perf_counter()
    ok = True
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    interval_doms = ([domain_box(((1, 2),))], [domain_box(((0, 1),))])
    strip = CellComplex(strip_cells())
    strip_doms = ([domain_box(((1, 2), (0, 1)))], [domain_box(((0, 1), (0, 1)))])
    instances = [
        (CobordismBox(((0, 2),)), chain, interval_doms),
        (CobordismBox(((0, 2), (0, 1))), strip, strip_doms),
    ]
    for name in ("Z2", "Z3", "S3", "Q8"):
        density = SemigroupDensity(builtin_group(name))
        for cob, complex_, (later, earlier) in instances:
            result = cut(cob, complex_, 1)
            good, worst = factorization_check(result.k, result.k_prime,
                                              complex_, later, earlier,
                                              density, tol=1e-12)
            ok &= good
            pasted = paste(result.k, result.k_prime)
            again = cut(cob, pasted, 1)
            ok &= again.k == result.k and again.k_prime == result.k_prime
    # the non-abelian ordering assumption is enforced, not silently fixed
    density = SemigroupDensity(builtin_group("S3"))
    result = cut(CobordismBox(((0, 2),)), chain, 1)
    try:
        factorization_check(result.k, result.k_prime, chain,
                            *interval_doms, density,
                            domains_pasted=tuple(interval_doms[0])
                            + tuple(interval_doms[1]))
        ok = False
    except ValueError:
        pass
    report(5, "cutting/pasting factorization + order-preserving round trip",
           time.perf_counter() - start, 60, ok)


def test_criterion_6_reordering():
    start = time.perf_counter()
    ok = True
    z3_density = SemigroupDensity(builtin_group("Z3"))
    # all permutations of a 3-cell chain complex and a 4-edge plaquette
    chain3 = chain_measure(3, z3_density)
    for perm in itertools.permutations(range(3)):
        ok &= reorder_max_difference(chain3, perm) <= 1e-15
    plaquette_cells = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
                       edge_cell((0, 1), 0), edge_cell((0, 0), 1)]
    plaquette = ComplexMeasure(CellComplex(plaquette_cells),
                               [domain_box(((0, 1), (0, 1)))], z3_density)
    for perm in itertools.permutations(range(4)):
        ok &= reorder_max_difference(plaquette, perm) <= 1e-15
    # concrete non-abelian counterexample, recorded
    s3_density = SemigroupDensity(builtin_group("S3"))
    s3_plaquette = ComplexMeasure(CellComplex(plaquette_cells),
                                  [domain_box(((0, 1), (0, 1)))], s3_density)
    witness = None
    for perm in itertools.permutations(range(4)):
        permuted = sigma_action(perm, s3_plaquette.complex)
        other = ComplexMeasure(permuted, s3_plaquette.domains, s3_density)
        for config in s3_plaquette.configurations():
            moved = tuple(config[perm[i]] for i in range(4))
            diff = abs(s3_plaquette.density_of(config) - other.density_of(moved))
            if diff > 1e-9:
                witness = (perm, config, diff)
                break
        if witness:
            break
    ok &= witness is not None
    if witness:
        print(f"  reordering counterexample: perm={witness[0]} "
              f"config={witness[1]} |difference|={witness[2]:.3e}", flush=True)
    report(6, "abelian reorder invariance + S3 counterexample",
           time.perf_counter() - start, 30, ok)


def rectangle_skeleton(width, height, cuts):
    """Unit edges of the boundary of [0,w]x[0,h] plus interface edges.

    ``cuts`` is a list of (axis, coordinate) guillotine cuts; the returned
    complex carries every unit edge involved, ordered deterministically.
    """
    edges = set()
    for x in range(width):
        edges.add(((x, 0), 0))
        edges.add(((x, height), 0))
    for y in range(height):
        edges.add(((0, y), 1))
        edges.add(((width, y), 1))
    for axis, coord in cuts:
        if axis == 0:
            for y in range(height):
                edges.add(((coord, y), 1))
        else:
            for x in range(width):
                edges.add(((x, coord), 0))
    cells = [edge_cell(base, axis) for base, axis in sorted(edges)]
    return CellComplex(cells)


def hand_rectangle_word(rect_spans, complex_):
    """Independent boundary-word oracle for an axis-aligned rectangle:
    bottom and right unit edges count +1, top and left count -1."""
    (x0, x1), (y0, y1) = rect_spans
    word = {}
    for pos, cell in enumerate(complex_.cells):
        (bx, by) = cell.base
        if cell.axes == (0,):
            if y0 == by and x0 <= bx < x1:
                word[pos] = 1
            elif y1 == by and x0 <= bx < x1:
                word[pos] = -1
        else:
            if x0 == bx and y0 <= by < y1:
                word[pos] = -1
            elif x1 == bx and y0 <= by < y1:
                word[pos] = 1
    return word


def word_vector(word_pairs, n_cells):
    out = np.zeros(n_cells, dtype=np.int64)
    for pos, exp in word_pairs:
        out[pos] += exp
    return out


def exhaustive_zn_word_equality(diff_vector, n):
    """Literal enumeration of all Z_n configurations in numpy chunks."""
    k = len(diff_vector)
    total = n ** k
    chunk = 1 << 18
    diff = diff_vector.astype(np.int64)
    for startv in range(0, total, chunk):
        idx = np.arange(startv, min(startv + chunk, total), dtype=np.int64)
        acc = np.zeros(len(idx), dtype=np.int64)
        tmp = idx
        for j in range(k):
            acc += (tmp % n) * diff[j]
            tmp = tmp // n
        if np.any(acc % n):
            return False
    return True


def two_piece_decompositions(width, height):
    for coord in range(1, width):
        yield ((0, coord),
               domain_box(((0, coord), (0, height))),
               domain_box(((coord, width), (0, height))))
    for coord in range(1, height):
        yield ((1, coord),
               domain_box(((0, width), (0, coord))),
               domain_box(((0, width), (coord, height))))


def test_criterion_7_dimension_extension():
    start = time.perf_counter()
    ok = True
    z2 = builtin_group("Z2")
    z3 = builtin_group("Z3")
    rects = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]
    rng = random.Random(RNG_SEED)
    for width, height in rects:
        whole = domain_box(((0, width), (0, height)))
        for cutspec, piece_a, piece_b in two_piece_decompositions(width, height):
            complex_ = rectangle_skeleton(width, height, [cutspec])
            n_cells = len(complex_)
            whole_pairs = boundary_word(whole, complex_)
            a_pairs = boundary_word(piece_a, complex_)
            b_pairs = boundary_word(piece_b, complex_)
            w_whole = word_vector(whole_pairs, n_cells)
            w_pieces = (word_vector(a_pairs, n_cells)
                        + word_vector(b_pairs, n_cells))
            # independent oracle: the hand rule for rectangle boundaries
            oracle = word_vector(list(hand_rectangle_word(
                ((0, width), (0, height)), complex_).items()), n_cells)
            ok &= np.array_equal(w_whole, oracle)
            # exhaustive equality over all configurations, Z2 through the
            # production word evaluation, Z3 by literal numpy enumeration
            for values in itertools.product(range(2), repeat=n_cells):
                c = Cosurface(z2, list(zip(complex_.cells, values)))
                lhs = c.evaluate_word(complex_, whole_pairs)
                rhs = z2.mul(c.evaluate_word(complex_, a_pairs),
                             c.evaluate_word(complex_, b_pairs))
                ok &= lhs == rhs
            ok &= exhaustive_zn_word_equality(w_whole - w_pieces, 3)
            # tie the word evaluation to the full extension code path
            for _ in range(5):
                values = [rng.randrange(3) for _ in range(n_cells)]
                c3 = Cosurface(z3, list(zip(complex_.cells, values)))
                lhs = dimension_extend(c3, complex_, whole)
                rhs = z3.mul(dimension_extend(c3, complex_, piece_a),
                             dimension_extend(c3, complex_, piece_b))
                ok &= lhs == rhs
    # cube: edges -> faces -> single 3-cell, consistent for two face orders
    cube_edge_cells = []
    for axis in range(3):
        for base in itertools.product(*[[0, 1] if a != axis else [0]
                                        for a in range(3)]):
            cube_edge_cells.append(edge_cell(base, axis))
    edge_complex = CellComplex(cube_edge_cells)
    faces = []
    for axis in range(3):
        for off in (0, 1):
            spans = tuple((off, off) if a == axis else (0, 1) for a in range(3))
            faces.append(domain_box(spans))
    cube = domain_box(((0, 1), (0, 1), (0, 1)))
    face_complex = CellComplex(faces)
    reordered_faces = CellComplex(faces[::-1])
    # signed face words telescope to zero, so the cube value is the
    # identity for every abelian group
    signed_sum = np.zeros(12, dtype=np.int64)
    for pos, fexp in boundary_word(cube, face_complex):
        for p, exp in boundary_word(faces[pos], edge_complex):
            signed_sum[p] += fexp * exp
    ok &= not signed_sum.any()
    for values in itertools.product(range(2), repeat=12):
        c = Cosurface(z2, list(zip(cube_edge_cells, values)))
        c_faces = extend_abelian(c, edge_complex, faces)
        ok &= dimension_extend(c_faces, face_complex, cube) == 0
    for _ in range(200):
        values = [rng.randrange(3) for _ in range(12)]
        c = Cosurface(z3, list(zip(cube_edge_cells, values)))
        c_faces = extend_abelian(c, edge_complex, faces)
        first = dimension_extend(c_faces, face_complex, cube)
        second = dimension_extend(c_faces, reordered_faces, cube)
        ok &= first == 0 and second == 0
    # S3 has trivial center: the non-abelian extension is forced
    s3 = builtin_group("S3")
    c = Cosurface(s3, [(e, rng.randrange(6)) for e in cube_edge_cells])
    default = extend_nonabelian(c, edge_complex, faces)
    explicit = extend_nonabelian(c, edge_complex, faces, center_assignment={})
    ok &= default.values == explicit.values
    try:
        extend_nonabelian(c, edge_complex, faces,
                          center_assignment={edge_cell((7, 7, 7), 0): 1})
        ok = False
    except ValueError:
        pass
    report(7, "abelian refinement invariance (rectangles to 2x3) + cube pipeline",
           time.perf_counter() - start, 120, ok)


def test_criterion_8_measure_series():
    start = time.perf_counter()
    density = SemigroupDensity(builtin_group("Z3"))
    series = measure_series(make_interval_groupoid(0, 5), density, 5)
    good, worst = measure_series_multiplicativity(series, tol=1e-12)
    report(8, "measure-valued series multiplicativity to 1e-12",
           time.perf_counter() - start, 5, good)


def test_criterion_9_nonregular_witness():
    start = time.perf_counter()
    ok = True
    for t in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
        row = nonregular.check_membership(t, grid_size=1_000_000)
        ok &= row["pass"]
    closed, _ = nonregular.derivative_at_zero(
        np.linspace(0.001, 0.999, 10_001), fd_step=1e-4)
    ok &= bool(np.all(closed == 1.0))
    # the forward-difference constant is h (1 - P)/P, so the 1e-3 bound
    # applies on the middle band (and in particular at x = 1/2)
    _, fd = nonregular.derivative_at_zero(
        np.linspace(0.3, 0.7, 4001), fd_step=1e-4)
    ok &= float(np.max(np.abs(fd - 1.0))) <= 1e-3
    ok &= all(nonregular.ode_escape_check(t) for t in (0.1, 0.5, 0.9, 1.0))
    report(9, "non-regularity witness: bounds, unit derivative, escape",
           time.perf_counter() - start, 10, ok)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"  -> {exc}")
    raise SystemExit(1 if failures else 0)
