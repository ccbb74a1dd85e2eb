import itertools
import random

import pytest

from cobordseries.cells import (
    Cell, CellComplex, Composite, Cosurface, INITIAL, FINAL, boundary_word,
    dimension_extend, domain_box, edge_cell, extend_abelian, extend_nonabelian,
    glue, holonomy_cosurface, is_regular, is_saturated, point_cell, splits,
    word_value,
)
from cobordseries.groups import cyclic, symmetric3


def unit_square_edges():
    """Boundary edges of [0,1]^2 in the order bottom, right, top, left."""
    return [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
            edge_cell((0, 1), 0), edge_cell((0, 0), 1)]


def cube_edges():
    out = []
    for axis in range(3):
        for base in itertools.product(*[[0, 1] if a != axis else [0]
                                        for a in range(3)]):
            out.append(edge_cell(base, axis))
    return out


def cube_faces():
    out = []
    for axis in range(3):
        for off in (0, 1):
            spans = tuple((off, off) if a == axis else (0, 1) for a in range(3))
            out.append(domain_box(spans))
    return out


# -- cells and facets ----------------------------------------------------------

def test_square_facet_signs_alternate():
    sq = Cell((0, 0), (0, 1), (1, 1))
    signs = {f.box(): f.sign for f, _ in sq.facets()}
    assert signs[((0, 0), (0, 1))] == -1   # left
    assert signs[((1, 1), (0, 1))] == 1    # right
    assert signs[((0, 1), (0, 0))] == 1    # bottom
    assert signs[((0, 1), (1, 1))] == -1   # top


def test_default_labels_follow_signs():
    sq = Cell((0, 0), (0, 1), (1, 1))
    for facet, label in sq.facets():
        assert label == (INITIAL if facet.sign < 0 else FINAL)


def test_reverse_flips_sign_and_swaps_labels():
    seg = edge_cell((0,), 0)
    rev = seg.reverse()
    assert rev.sign == -1
    fwd = {f.box(): lbl for f, lbl in seg.facets()}
    bwd = {f.box(): lbl for f, lbl in rev.facets()}
    for box in fwd:
        assert fwd[box] != bwd[box]
    override = seg.with_labels([(seg.facets()[0][0].key(), FINAL)])
    back = override.reverse().reverse()
    assert back == override


def test_facet_override():
    seg = edge_cell((0,), 0)
    lower = seg.facets()[0][0]
    flipped = seg.with_labels([(lower.key(), FINAL)])
    labels = {f.box(): lbl for f, lbl in flipped.facets()}
    assert labels[((0, 0),)] == FINAL


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell((0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError):
        Cell((0,), (0,), (0,))
    with pytest.raises(ValueError):
        Cell((0,), (0,), (1,), sign=2)


@pytest.mark.parametrize("base, axes, extents, sign", [
    ((0.5,), (0,), (1,), 1),
    ((0,), (0,), (1.5,), 1),
    ((True, 0), (0,), (1,), 1),
    ((0, 0), (False,), (1,), 1),
    ((0,), (0,), (1,), True),
    ((0,), (0,), (1,), 1.0),
], ids=["float-base", "float-extent", "bool-base", "bool-axis", "bool-sign",
        "float-sign"])
def test_cell_rejects_non_integer_geometry(base, axes, extents, sign):
    with pytest.raises(ValueError, match="integer|sign"):
        Cell(base, axes, extents, sign)


@pytest.mark.parametrize("base, axes, extents, labels", [
    ([0, 0], (0,), (1,), ()),
    ((0, 0), [0], (1,), ()),
    ((0, 0), (0,), [1], ()),
    ((0, 0), (0,), (1,), []),
], ids=["list-base", "list-axes", "list-extents", "list-labels"])
def test_cell_rejects_lists(base, axes, extents, labels):
    with pytest.raises(ValueError, match="tuples"):
        Cell(base, axes, extents, 1, labels)


def test_cell_rejects_unknown_label_value():
    lower = edge_cell((0, 0), 0).facets()[0][0]
    with pytest.raises(ValueError, match="labels"):
        Cell((0, 0), (0,), (1,), 1, ((lower.key(), "bogus"),))


def test_cell_rejects_label_off_its_facets():
    with pytest.raises(ValueError, match="labels"):
        Cell((0, 0), (0,), (1,), 1, ((((5, 5), (), ()), FINAL),))
    with pytest.raises(ValueError, match="labels"):
        Cell((0, 0), (0,), (1,), 1, ((((0, 0), (), ()), FINAL, "extra"),))


def test_domain_box_rejects_reversed_span():
    with pytest.raises(ValueError, match="lo <= hi"):
        domain_box(((1, 0), (0, 1)))
    assert domain_box(((1, 1), (0, 1))).axes == (1,)


@pytest.mark.parametrize("hi", [True, 1.0], ids=["bool", "float"])
def test_domain_box_rejects_a_bound_that_is_not_an_int(hi):
    # hi - lo would read True as 1 and give Cell[+0..1]
    with pytest.raises(ValueError, match="box spans must be int pairs"):
        domain_box(((0, hi),))


# -- gluing ---------------------------------------------------------------------

def test_glue_segments_star():
    later, earlier = edge_cell((1,), 0), edge_cell((0,), 0)
    merged = glue(later, earlier, "*")
    assert isinstance(merged, Cell)
    assert merged.box() == ((0, 2),)


def test_glue_vee_orientation_clash():
    assert glue(edge_cell((0,), 0), edge_cell((1,), 0, sign=-1), "v") is None
    assert isinstance(glue(edge_cell((0,), 0), edge_cell((1,), 0), "v"), Cell)


def test_glue_squares_to_rectangle_alpha_beta():
    merged = glue(Cell((1, 0), (0, 1), (1, 1)), Cell((0, 0), (0, 1), (1, 1)), "*")
    assert isinstance(merged, Cell)
    assert merged.box() == ((0, 2), (0, 1))
    alpha_boxes = {f.box() for f in merged.alpha()}
    beta_boxes = {f.box() for f in merged.beta()}
    assert alpha_boxes == {((0, 0), (0, 1)), ((0, 2), (1, 1))}   # left + top
    assert beta_boxes == {((2, 2), (0, 1)), ((0, 2), (0, 0))}    # right + bottom


def test_glue_undefined_without_interface():
    assert glue(edge_cell((0,), 0), edge_cell((5,), 0), "*") is None


def test_glue_composite_for_bent_union():
    # initial corner of the first piece meets the final corner of the second
    first = edge_cell((0, 0), 0).reverse()   # initial part at (1, 0)
    second = edge_cell((1, 0), 1).reverse()  # final part at (1, 0)
    bent = glue(first, second, "*")
    assert isinstance(bent, Composite)
    assert len(bent.parts) == 2


@pytest.mark.parametrize("mode", ["*", "v"])
def test_glue_composite_alpha_beta_order(mode):
    """The bent union shares the corner (1, 0) in both modes.  The new initial
    part lists s2's facets before s1's in mode "*" and s1's first in mode "v";
    the new final part lists s1's before s2's in both."""
    first = edge_cell((0, 0), 0).reverse()   # initial (1, 0), final (0, 0)
    second = edge_cell((1, 0), 1).reverse()  # initial (1, 1), final (1, 0)
    s1_end, s2_end = point_cell((0, 0)), point_cell((1, 1), sign=-1)
    bent = glue(first, second, mode)
    assert (bent.alpha, bent.beta) == ((s2_end,), (s1_end,))
    both_initial = glue(first.with_labels([(s1_end.key(), INITIAL)]), second, mode)
    assert isinstance(both_initial, Composite)
    assert both_initial.alpha == ((s2_end, s1_end) if mode == "*" else (s1_end, s2_end))
    assert both_initial.beta == ()
    both_final = glue(first, second.with_labels([(s2_end.key(), FINAL)]), mode)
    assert isinstance(both_final, Composite)
    assert (both_final.alpha, both_final.beta) == ((), (s1_end, s2_end))


def test_composite_rejects_non_embedded_parts():
    overlapping = [Cell((0, 0), (0,), (2,)), Cell((1, 0), (0,), (2,))]
    with pytest.raises(ValueError, match="embedded"):
        Composite(overlapping, (), ())


# -- predicates -------------------------------------------------------------------

def test_regular_examples():
    disjoint = CellComplex([edge_cell((0,), 0), edge_cell((5,), 0)])
    assert is_regular(disjoint)
    crossing = CellComplex([Cell((0,), (0,), (2,)), Cell((1,), (0,), (2,))])
    assert not is_regular(crossing)
    # any sequence of cells, not only a complex
    assert is_regular(list(disjoint))
    assert not is_regular(crossing.cells)


def test_saturated_chain():
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    domains = [domain_box(((0, 1),)), domain_box(((1, 2),))]
    assert is_saturated(chain, domains)
    assert not is_saturated(CellComplex([point_cell((0,)), point_cell((2,))]),
                            domains)


def test_saturated_rejects_interior_overlapping_domains():
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,)),
                         point_cell((3,))])
    assert is_saturated(chain, [domain_box(((i, i + 1),)) for i in range(3)])
    # [0,2] and [1,3] have every boundary point covered but share (1,2)
    assert not is_saturated(chain, [domain_box(((0, 2),)), domain_box(((1, 3),))])


def test_splits_chain_at_middle_point():
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    region = [Cell((0,), (0,), (1,)), Cell((1,), (0,), (1,))]
    result = splits(chain, 1, 1, region)
    assert result is not None
    m_plus, m_minus = result
    assert {c.base for c in m_minus} == {(0,)}
    assert {c.base for c in m_plus} == {(1,)}


@pytest.mark.parametrize("lo, hi", [(0, 3), (3, 3), (2, 1), (-1, 0)]
                         + [(bad, 1) for bad in (True, None, "1", 1.0)]
                         + [(1, bad) for bad in (True, None, "1", 1.0)], ids=repr)
def test_splits_rejects_indices_out_of_range(lo, hi):
    chain = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((2,))])
    region = [Cell((0,), (0,), (1,)), Cell((1,), (0,), (1,))]
    with pytest.raises(ValueError, match="(lo|hi) must be an int in"):
        splits(chain, lo, hi, region)


def test_splits_fails_without_separation():
    chain = CellComplex([point_cell((0,)), point_cell((3,)), point_cell((2,))])
    region = [Cell((0,), (0,), (1,)), Cell((1,), (0,), (1,)), Cell((2,), (0,), (1,))]
    assert splits(chain, 1, 1, region) is None


# -- holonomy ---------------------------------------------------------------------

def test_holonomy_identity_field():
    s3 = symmetric3()
    path = [edge_cell((0,), 0), edge_cell((1,), 0)]
    field = Cosurface(s3, [(e, 0) for e in path])
    assert holonomy_cosurface(field, path) == 0


def test_holonomy_ordered_product_after_reversal():
    s3 = symmetric3()
    e1, e2 = edge_cell((0,), 0), edge_cell((1,), 0)
    field = Cosurface(s3, [(e1, 1), (e2, 2)])
    # traversal against the orientation encounters e2 then e1, inverted
    g = s3.inv(2)
    h = s3.inv(1)
    assert holonomy_cosurface(field, [e1, e2]) == s3.mul(g, h)


def test_holonomy_reversal_inverts():
    s3 = symmetric3()
    e1, e2 = edge_cell((0,), 0), edge_cell((1,), 0)
    field = Cosurface(s3, [(e1, 4), (e2, 1)])
    fwd = holonomy_cosurface(field, [e1, e2])
    rev = holonomy_cosurface(field, [e2.reverse(), e1.reverse()])
    assert rev == s3.inv(fwd)


def test_holonomy_is_the_reversed_path_word():
    s3 = symmetric3()
    path = [edge_cell((0, 0), 0), edge_cell((1, 0), 1),
            edge_cell((0, 1), 0).reverse()]
    complex_ = CellComplex(path)
    reversed_word = [(i, -1) for i in reversed(range(len(path)))]
    for values in itertools.product(range(s3.order), repeat=len(path)):
        field = Cosurface(s3, list(zip(path, values)))
        assert holonomy_cosurface(field, path) == \
            field.evaluate_word(complex_, reversed_word)


def test_word_value_ordered_signed_product():
    s3 = symmetric3()
    values = {2: 1, 7: 4}
    expected = s3.mul(s3.mul(1, s3.inv(4)), 1)
    assert word_value(s3, [(2, 1), (7, -1), (2, 1)], values) == expected
    assert word_value(s3, [], values) == s3.identity


def test_evaluate_word_ignores_unassigned_off_word_cells():
    z3 = cyclic(3)
    complex_ = CellComplex([point_cell((0,)), point_cell((1,)), point_cell((5,))])
    field = Cosurface(z3, [(point_cell((0,)), 1), (point_cell((1,)), 2)])
    word = boundary_word(domain_box(((0, 1),)), complex_)
    assert field.evaluate_word(complex_, word) == 1  # -1 + 2 in Z3
    with pytest.raises(ValueError):
        field.evaluate_word(complex_, [(2, 1)])


# -- cosurface axioms ----------------------------------------------------------------

def test_cosurface_reversal_inverse():
    z4 = cyclic(4)
    e = edge_cell((0,), 0)
    c = Cosurface(z4, [(e, 3)])
    assert c.value(e) == 3
    assert c.value(e.reverse()) == 1


def test_cosurface_multiplicative_on_gluings():
    z4 = cyclic(4)
    rng = random.Random(3)
    edges = [edge_cell((i,), 0) for i in range(3)]
    for _ in range(10):
        c = Cosurface(z4, [(e, rng.randrange(4)) for e in edges])
        for i in range(2):
            merged = glue(edges[i + 1], edges[i], "*")
            composite_value = z4.mul(c.value(edges[i + 1]), c.value(edges[i]))
            extended = Cosurface(z4, [(e, c.value(e)) for e in edges]
                                 + [(merged, composite_value)])
            assert extended.value(merged.reverse()) == z4.inv(composite_value)


def test_cosurface_conflicting_values_rejected():
    z2 = cyclic(2)
    e = edge_cell((0,), 0)
    with pytest.raises(ValueError):
        Cosurface(z2, [(e, 0), (e, 1)])


@pytest.mark.parametrize("sign, value", [(1, -1), (-1, 5), (1, True), (1, 1.0)],
                         ids=["negative", "order-on-reversed-cell", "bool", "float"])
def test_cosurface_rejects_values_outside_the_group(sign, value):
    e = edge_cell((0,), 0, sign)
    with pytest.raises(ValueError, match="value must be an int in 0..4"):
        Cosurface(cyclic(5), [(e, value)])


# -- boundary words and dimension extension ---------------------------------------

def test_square_boundary_word_abcd():
    edges = unit_square_edges()
    complex_ = CellComplex(edges)
    word = boundary_word(domain_box(((0, 1), (0, 1))), complex_)
    assert word == [(0, 1), (1, 1), (2, -1), (3, -1)]


def test_boundary_word_partial_cell_raises():
    long_edge = Cell((0, 0), (0,), (2,))
    complex_ = CellComplex([long_edge])
    with pytest.raises(ValueError):
        boundary_word(domain_box(((0, 1), (0, 1))), complex_)


def test_dimension_extend_identity_field():
    z4 = cyclic(4)
    edges = unit_square_edges()
    c = Cosurface(z4, [(e, 0) for e in edges])
    assert dimension_extend(c, CellComplex(edges), domain_box(((0, 1), (0, 1)))) == 0


def test_dimension_extend_square_word_value():
    s3 = symmetric3()
    edges = unit_square_edges()
    values = [1, 2, 4, 5]
    c = Cosurface(s3, list(zip(edges, values)))
    expected = s3.mul(s3.mul(s3.mul(1, 2), s3.inv(4)), s3.inv(5))
    got = dimension_extend(c, CellComplex(edges), domain_box(((0, 1), (0, 1))))
    assert got == expected


def test_dimension_extend_missing_facet_raises():
    z2 = cyclic(2)
    edges = unit_square_edges()[:3]
    c = Cosurface(z2, [(e, 0) for e in edges])
    with pytest.raises(ValueError):
        dimension_extend(c, CellComplex(edges), domain_box(((0, 1), (0, 1))))


def test_cube_face_product_is_identity_for_z4():
    z4 = cyclic(4)
    edges = cube_edges()
    complex_ = CellComplex(edges)
    faces = cube_faces()
    rng = random.Random(5)
    for _ in range(30):
        c = Cosurface(z4, [(e, rng.randrange(4)) for e in edges])
        faces_cs = extend_abelian(c, complex_, faces)
        cube = domain_box(((0, 1), (0, 1), (0, 1)))
        assert dimension_extend(faces_cs, CellComplex(faces), cube) == 0


def test_rectangle_refinement_invariance_z2_exhaustive():
    z2 = cyclic(2)
    # 2x1 rectangle split into two unit squares
    edges = sorted(
        {e.key() for sq in (((0, 1), (0, 1)), ((1, 2), (0, 1)))
         for e, _ in domain_box(sq).facets()
         for e in e.unit_pieces()})
    cells = [Cell(base, axes, exts) for base, axes, exts in edges]
    complex_ = CellComplex(cells)
    rect = domain_box(((0, 2), (0, 1)))
    left = domain_box(((0, 1), (0, 1)))
    right = domain_box(((1, 2), (0, 1)))
    for values in itertools.product(range(2), repeat=len(cells)):
        c = Cosurface(z2, list(zip(cells, values)))
        whole = dimension_extend(c, complex_, rect)
        pieces = z2.mul(dimension_extend(c, complex_, left),
                        dimension_extend(c, complex_, right))
        assert whole == pieces


def test_extend_abelian_requires_abelian():
    s3 = symmetric3()
    edges = unit_square_edges()
    c = Cosurface(s3, [(e, 0) for e in edges])
    with pytest.raises(ValueError):
        extend_abelian(c, CellComplex(edges), [domain_box(((0, 1), (0, 1)))])


def test_extend_nonabelian_center_forced_for_s3():
    s3 = symmetric3()
    edges = cube_edges()
    complex_ = CellComplex(edges)
    rng = random.Random(7)
    c = Cosurface(s3, [(e, rng.randrange(6)) for e in edges])
    faces = cube_faces()
    default = extend_nonabelian(c, complex_, faces)
    explicit = extend_nonabelian(c, complex_, faces,
                                 center_assignment={})
    assert default.values == explicit.values
    with pytest.raises(ValueError):
        extend_nonabelian(c, complex_, faces,
                          center_assignment={edge_cell((5, 5, 5), 0): 1})


def test_order_sensitivity_for_s3_square():
    """For a non-abelian group there are two complex orders whose boundary
    products differ on some configuration."""
    s3 = symmetric3()
    edges = unit_square_edges()
    square = domain_box(((0, 1), (0, 1)))
    base_complex = CellComplex(edges)
    found = False
    for perm in itertools.permutations(range(4)):
        reordered = CellComplex([edges[p] for p in perm])
        for values in itertools.product(range(6), repeat=4):
            c = Cosurface(s3, list(zip(edges, values)))
            if dimension_extend(c, base_complex, square) != \
                    dimension_extend(c, reordered, square):
                found = True
                break
        if found:
            break
    assert found


# -- exhaustive cosurface axioms inside small windows --------------------------------

def window_edges(spans):
    cells = []
    d = len(spans)
    for axis in range(d):
        ranges = []
        for a, (lo, hi) in enumerate(spans):
            ranges.append(range(lo, hi) if a == axis else range(lo, hi + 1))
        for base in itertools.product(*ranges):
            cells.append(edge_cell(base, axis))
    return cells


@pytest.mark.parametrize("spans", [((0, 3), (0, 3)), ((0, 2), (0, 2), (0, 2))],
                         ids=["3x3", "2x2x2"])
def test_cosurface_axioms_exhaustive_window(spans):
    z4 = cyclic(4)
    edges = window_edges(spans)
    rng = random.Random(len(spans))
    c = Cosurface(z4, [(e, rng.randrange(4)) for e in edges])
    composable = 0
    for s1 in edges:
        for s2 in edges:
            if s1.key() == s2.key():
                continue
            merged = glue(s1, s2, "*")
            if not isinstance(merged, Cell):
                continue
            composable += 1
            value = z4.mul(c.value(s1), c.value(s2))
            extended = Cosurface(z4, [(merged, value)])
            # reversal inverts the extended value
            assert extended.value(merged.reverse()) == z4.inv(value)
            # gluing in the v-sense (defined here too) gives the same cell
            vee = glue(s1, s2, "v")
            assert isinstance(vee, Cell) and vee.key() == merged.key()
    assert composable > 0


def test_rectangle_refinement_invariance_z4_exhaustive():
    """Up to 2x2 rectangles, all two-piece cuts, all Z4 edge configurations
    (enumerated in vectorized chunks over the word exponents)."""
    import numpy as np

    z4 = cyclic(4)
    for width, height in ((2, 1), (1, 2), (2, 2)):
        whole = domain_box(((0, width), (0, height)))
        cuts = [(0, c) for c in range(1, width)] + \
               [(1, c) for c in range(1, height)]
        for axis, coord in cuts:
            if axis == 0:
                piece_a = domain_box(((0, coord), (0, height)))
                piece_b = domain_box(((coord, width), (0, height)))
                interface = [edge_cell((coord, y), 1) for y in range(height)]
            else:
                piece_a = domain_box(((0, width), (0, coord)))
                piece_b = domain_box(((0, width), (coord, height)))
                interface = [edge_cell((x, coord), 0) for x in range(width)]
            boundary = sorted({piece.key()
                               for dom in (piece_a, piece_b)
                               for facet, _ in dom.facets()
                               for piece in facet.unit_pieces()})
            cells = [Cell(b, a, e) for b, a, e in boundary]
            complex_ = CellComplex(cells)
            n_cells = len(cells)
            diff = np.zeros(n_cells, dtype=np.int64)
            for pos, exp in boundary_word(whole, complex_):
                diff[pos] += exp
            for dom in (piece_a, piece_b):
                for pos, exp in boundary_word(dom, complex_):
                    diff[pos] -= exp
            total = 4 ** n_cells
            for start in range(0, total, 1 << 18):
                idx = np.arange(start, min(start + (1 << 18), total),
                                dtype=np.int64)
                acc = np.zeros(len(idx), dtype=np.int64)
                tmp = idx
                for j in range(n_cells):
                    acc += (tmp % 4) * diff[j]
                    tmp = tmp // 4
                assert not np.any(acc % 4)
            # a sampled tie-in through the production extension path
            rng = random.Random(width * 10 + height)
            for _ in range(5):
                values = [rng.randrange(4) for _ in range(n_cells)]
                c = Cosurface(z4, list(zip(cells, values)))
                lhs = dimension_extend(c, complex_, whole)
                rhs = z4.mul(dimension_extend(c, complex_, piece_a),
                             dimension_extend(c, complex_, piece_b))
                assert lhs == rhs
