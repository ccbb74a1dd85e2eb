"""A cell's compiled geometry against the formulas it replaces.

``Cell`` fixes its ``key`` and ``box`` at construction and builds its
``facets`` and ``unit_pieces`` once, from a trusted constructor that skips
validation.  The
oracles here are the per-call formulas and the validated constructor; the
cells are the generated boxes of the face-predicate and cobordism-border
tests, reversed and relabelled.  ``border_reduce`` finds a facet's border
face by its hyperplane; the oracle is the scan over all box faces
(``border_fragments``), with pieces, their cells (signs included) and
labels compared in order.
"""

import pickle
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from cobordseries.cells import Cell, FINAL, INITIAL, domain_box, region_components, _unit_faces
from cobordseries.measures import CobordismBox, border_reduce
from lattice_instances import cobordism_instances
from test_cobordism_border import border_fragments, border_reduce_oracle, cells_near_a_box
from test_face_predicates import boxes


# -- oracles -----------------------------------------------------------------------

def key_oracle(cell):
    return (cell.base, cell.axes, cell.extents)


def box_oracle(cell):
    spans = dict(zip(cell.axes, cell.extents))
    return tuple((b, b + spans.get(a, 0)) for a, b in enumerate(cell.base))


# -- generated cells -----------------------------------------------------------------

@st.composite
def any_cells(draw):
    """A generated box or a cell near a box cobordism, possibly reversed,
    with a drawn subset of its facet labels flipped."""
    d = draw(st.integers(1, 3))
    cell = draw(st.one_of(boxes(d, draw(st.integers(0, d))),
                          cells_near_a_box().map(lambda near: near[1][0])))
    if draw(st.booleans()):
        cell = cell.reverse()
    flips = [(f.key(), FINAL if lbl == INITIAL else INITIAL)
             for f, lbl in cell.facets() if draw(st.booleans())]
    return cell.with_labels(flips) if flips else cell


def field_values(cell):
    return [(type(getattr(cell, f.name)), getattr(cell, f.name)) for f in fields(cell)]


# -- agreement with the oracles ------------------------------------------------------

@given(any_cells())
def test_trusted_facets_equal_validated_cells(cell):
    for facet, _ in cell.facets():
        validated = Cell(facet.base, facet.axes, facet.extents, facet.sign)
        assert field_values(facet) == field_values(validated)
        assert facet == validated and hash(facet) == hash(validated)
        assert facet.key() == validated.key() and facet.box() == validated.box()


@given(any_cells())
def test_key_and_box_match_the_formulas(cell):
    for c in [cell] + [f for f, _ in cell.facets()]:
        assert c.key() == key_oracle(c)
        assert c.box() == box_oracle(c)


@given(any_cells())
def test_facets_are_built_once(cell):
    first = cell.facets()
    assert type(first) is tuple
    assert cell.facets() is first
    assert cell.alpha() + cell.beta() == tuple(
        f for lbl in (INITIAL, FINAL) for f, fl in first if fl == lbl)


@given(any_cells())
def test_compiled_cell_equals_copy_and_survives_pickle(cell):
    cell.facets()
    fresh = Cell(cell.base, cell.axes, cell.extents, cell.sign, cell.labels)
    assert cell == fresh and hash(cell) == hash(fresh) and repr(cell) == repr(fresh)
    back = pickle.loads(pickle.dumps(cell))
    assert back == cell and hash(back) == hash(cell)
    assert back.key() == key_oracle(cell) and back.box() == box_oracle(cell)
    assert back.facets() == fresh.facets()


@given(any_cells())
def test_unit_pieces_are_compiled_once_into_fresh_lists(cell):
    """Each call gets a new list of the same compiled cells, equal field by
    field to validated cells built from the box's unit faces."""
    first, second = cell.unit_pieces(), cell.unit_pieces()
    assert type(first) is list and first is not second
    assert all(a is b for a, b in zip(first, second))
    validated = [Cell(tuple(lo for lo, _ in face), cell.axes, (1,) * cell.dim, cell.sign)
                 for face in _unit_faces(cell.box())]
    assert [field_values(p) for p in first] == [field_values(v) for v in validated]
    first.clear()
    assert cell.unit_pieces() == second == validated
    assert pickle.loads(pickle.dumps(cell)).unit_pieces() == validated


@settings(max_examples=100)
@given(cobordism_instances())
def test_border_reduce_matches_all_faces_scan(instance):
    spans, axis, domains, complex_ = instance
    cob = CobordismBox(spans, axis)
    pieces = border_reduce(complex_, cob, domains)
    scanned = [piece for dom in domains for piece in region_components(
        [domain_box(b, sign=s) for b, s in border_fragments(dom, cob)], ())]
    assert [list(p.cells) for p in pieces] == scanned
    assert [p.border_labels for p in pieces] == [
        labels for _, labels in border_reduce_oracle(complex_, cob, domains)]
