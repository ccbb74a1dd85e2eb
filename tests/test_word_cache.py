"""Compiled boundary words against the uncached compilation.

``oracle_boundary_word``, ``oracle_dimension_extend`` and
``oracle_evaluate_word`` are the earlier, uncached routines, kept here as
oracles: every call re-reads the domain's facets, checks coverage with a
second facet pass and evaluates through a per-call value dict.  The library
compiles each (complex, domain) pair once into ``CellComplex.word``; its
words, values and errors must be the same on every call.
"""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from lattice_instances import skeleton_cells

from cobordseries import cells as cells_mod
from cobordseries.cells import (
    Cell, CellComplex, Cosurface, _unit_faces, boundary_word, box_contains,
    covers, dimension_extend, domain_box, edge_cell, extend_abelian, is_regular,
    word_value,
)
from cobordseries.groups import builtin_group

GROUPS = {name: builtin_group(name) for name in ("Z3", "S3")}


def oracle_boundary_word(domain, complex_):
    if complex_.cells and complex_.cells[0].dim != domain.dim - 1:
        raise ValueError(f"boundary words of {domain!r} read cells of dimension "
                         f"{domain.dim - 1}, not {complex_.cells[0].dim}")
    found = {}
    for facet, _ in domain.facets():
        fbox = facet.box()
        for face in _unit_faces(fbox):
            for pos in complex_.pieces.get(face, ()):
                found[pos] = (fbox, facet.sign)
    word = []
    for pos in sorted(found):
        cell = complex_.cells[pos]
        fbox, fsign = found[pos]
        if not box_contains(fbox, cell.box()):
            raise ValueError(
                f"cell {cell!r} lies partially on the boundary of {domain!r}")
        word.append((pos, 1 if cell.sign == fsign else -1))
    return word


def oracle_evaluate_word(cosurface, complex_, word):
    values = {pos: cosurface.value(complex_.cells[pos]) for pos, _ in word}
    return word_value(cosurface.group, word, values)


def oracle_dimension_extend(cosurface, complex_, domain):
    if not all(covers(f.box(), complex_.pieces) for f, _ in domain.facets()):
        raise ValueError(f"boundary of {domain!r} is not covered by the complex")
    word = oracle_boundary_word(domain, complex_)
    return oracle_evaluate_word(cosurface, complex_, word)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# -- instances -----------------------------------------------------------------

@st.composite
def skeletons(draw):
    """(complex, domains): a shuffled rectangle skeleton with guillotine cuts,
    and domains (the rectangle, its cut pieces, sub-rectangles) of both signs."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cut_choices = ([(0, c) for c in range(1, width)]
                   + [(1, c) for c in range(1, height)])
    cuts = draw(st.lists(st.sampled_from(cut_choices), max_size=2, unique=True)
                if cut_choices else st.just([]))
    cells = draw(st.permutations(skeleton_cells(width, height, cuts,
                                                draw(st.booleans()))))
    cells = [c.reverse() if draw(st.booleans()) else c for c in cells]
    xs = sorted({0, width} | {c for axis, c in cuts if axis == 0})
    ys = sorted({0, height} | {c for axis, c in cuts if axis == 1})
    spans = [((x0, x1), (y0, y1)) for x0, x1 in zip(xs, xs[1:])
             for y0, y1 in zip(ys, ys[1:])]
    spans.append(((0, width), (0, height)))
    for _ in range(draw(st.integers(0, 2))):
        x0 = draw(st.integers(0, width - 1))
        y0 = draw(st.integers(0, height - 1))
        spans.append(((x0, draw(st.integers(x0 + 1, width))),
                      (y0, draw(st.integers(y0 + 1, height)))))
    domains = [domain_box(s, sign=draw(st.sampled_from((1, -1)))) for s in spans]
    return CellComplex(cells), domains


def cube_parts():
    edges = [edge_cell(base, axis) for axis in range(3)
             for base in itertools.product(*[[0, 1] if a != axis else [0]
                                             for a in range(3)])]
    faces = [domain_box(tuple((off, off) if a == axis else (0, 1) for a in range(3)))
             for axis in range(3) for off in (0, 1)]
    return edges, faces, domain_box(((0, 1), (0, 1), (0, 1)))


def assert_matches_oracle(complex_, domains, values, group):
    cos = Cosurface(group, list(zip(complex_.cells, values)))
    for _ in range(2):  # the first call compiles, the second reads the cache
        for dom in domains:
            assert outcome(boundary_word, dom, complex_) == outcome(
                oracle_boundary_word, dom, complex_)
            assert outcome(dimension_extend, cos, complex_, dom) == outcome(
                oracle_dimension_extend, cos, complex_, dom)


# -- equality with the uncached oracle -------------------------------------------

@given(skeletons(), st.sampled_from(sorted(GROUPS)), st.data())
def test_skeleton_words_and_values_match_oracle(instance, name, data):
    complex_, domains = instance
    group = GROUPS[name]
    values = data.draw(st.lists(st.integers(0, group.order - 1),
                                min_size=len(complex_), max_size=len(complex_)))
    assert_matches_oracle(complex_, domains, values, group)


@given(st.sampled_from(sorted(GROUPS)), st.data())
def test_cube_words_and_values_match_oracle(name, data):
    edges, faces, cube = cube_parts()
    group = GROUPS[name]
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=7, max_size=7))
    faces = [f if s > 0 else f.reverse() for f, s in zip(faces, signs)]
    cube = cube if signs[-1] > 0 else cube.reverse()
    edge_values = data.draw(st.lists(st.integers(0, group.order - 1),
                                     min_size=12, max_size=12))
    assert_matches_oracle(CellComplex(edges), faces, edge_values, group)
    face_values = data.draw(st.lists(st.integers(0, group.order - 1),
                                     min_size=6, max_size=6))
    for ordered in (faces, faces[::-1]):
        assert_matches_oracle(CellComplex(ordered), [cube], face_values, group)


# -- errors are raised on every call ---------------------------------------------

def test_raising_cases_raise_on_every_call():
    z3 = GROUPS["Z3"]
    long_edges = CellComplex(skeleton_cells(2, 1, [(0, 1)], coarse=True))
    partial = domain_box(((0, 1), (0, 1)))
    square = CellComplex([domain_box(((0, 1), (0, 1)))])
    unit_edges = CellComplex(skeleton_cells(1, 1, [], coarse=False))
    uncovered = domain_box(((0, 2), (0, 1)))
    cases = [
        (boundary_word, (partial, long_edges), "partially on the boundary"),
        (dimension_extend, (Cosurface(z3, []), long_edges, partial),
         "partially on the boundary"),
        (boundary_word, (partial, square), "read cells of dimension"),
        (dimension_extend, (Cosurface(z3, []), unit_edges, uncovered), "not covered"),
    ]
    for fn, args, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                fn(*args)
    # a covered word cached by boundary_word still fails dimension_extend
    # with the coverage error, and never the other way round
    assert boundary_word(uncovered, unit_edges) == oracle_boundary_word(
        uncovered, unit_edges)
    with pytest.raises(ValueError, match="not covered"):
        dimension_extend(Cosurface(z3, []), unit_edges, uncovered)


def test_unassigned_cell_raises_on_every_call():
    edges = CellComplex(skeleton_cells(1, 1, [], coarse=False))
    square = domain_box(((0, 1), (0, 1)))
    cos = Cosurface(GROUPS["Z3"], [(c, 1) for c in edges.cells[1:]])
    for _ in range(2):
        with pytest.raises(ValueError, match="no value assigned"):
            dimension_extend(cos, edges, square)


# -- cache independence ------------------------------------------------------------

def test_mutating_a_returned_word_leaves_the_cache_unchanged():
    complex_ = CellComplex(skeleton_cells(2, 2, [(0, 1)], coarse=False))
    domain = domain_box(((0, 2), (0, 2)))
    expected = oracle_boundary_word(domain, complex_)
    first = boundary_word(domain, complex_)
    first.reverse()
    first.append((99, 1))
    assert boundary_word(domain, complex_) == expected
    assert boundary_word(domain, complex_) is not boundary_word(domain, complex_)


def test_equal_distinct_complexes_give_equal_words():
    cells = skeleton_cells(3, 2, [(1, 1)], coarse=False)
    random.Random(0).shuffle(cells)
    a, b = CellComplex(cells), CellComplex(list(cells))
    assert a == b and a is not b
    domains = [domain_box(((0, 3), (0, 2)), sign=s) for s in (1, -1)]
    for dom in domains:
        assert boundary_word(dom, a) == boundary_word(dom, b) == \
            oracle_boundary_word(dom, a)


def test_regularity_verdict_matches_the_cell_sequence():
    unit = edge_cell((0, 0), 0)
    overlapping = CellComplex([Cell((0, 0), (0,), (2,)), unit])
    touching = CellComplex([unit, edge_cell((1, 0), 0)])
    for complex_, verdict in ((overlapping, False), (touching, True)):
        assert is_regular(complex_) is verdict
        assert is_regular(complex_) is is_regular(list(complex_.cells))


# -- compilation count --------------------------------------------------------------

def test_criterion_7_cube_loop_compiles_each_pair_once(monkeypatch):
    compiled = {}
    compile_word = cells_mod._compile_word

    def counting(domain, complex_, need_cover):
        key = (domain, id(complex_))
        compiled[key] = compiled.get(key, 0) + 1
        return compile_word(domain, complex_, need_cover)

    monkeypatch.setattr(cells_mod, "_compile_word", counting)
    z2, z3 = builtin_group("Z2"), builtin_group("Z3")
    edges, faces, cube = cube_parts()
    edge_complex = CellComplex(edges)
    face_complex = CellComplex(faces)
    reordered_faces = CellComplex(faces[::-1])
    for values in itertools.product(range(2), repeat=12):
        c = Cosurface(z2, list(zip(edges, values)))
        c_faces = extend_abelian(c, edge_complex, faces)
        assert dimension_extend(c_faces, face_complex, cube) == 0
    rng = random.Random(0)
    for _ in range(200):
        c = Cosurface(z3, [(e, rng.randrange(3)) for e in edges])
        c_faces = extend_abelian(c, edge_complex, faces)
        assert dimension_extend(c_faces, face_complex, cube) == 0
        assert dimension_extend(c_faces, reordered_faces, cube) == 0
    assert len(compiled) == len(faces) + 2
    assert set(compiled.values()) == {1}
