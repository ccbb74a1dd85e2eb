"""The open-face predicates of ``cells`` against brute-force pairwise oracles.

The oracles are the all-pairs box scans that ``is_regular``,
``is_saturated``, ``region_components``, ``Cell.unit_pieces``, ``covers``
and ``boundary_word`` are defined by; inputs are generated lattice
configurations in dimensions 1-3 with extents 1-3, both signs, mixed cell
dimensions and empty inputs.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from cobordseries.cells import (
    Cell, CellComplex, Cosurface, box_contains, box_dim, box_intersect,
    box_union, boundary_word, covers, dimension_extend, domain_box, edge_cell,
    is_regular, is_saturated, point_cell, region_components, _unit_boxes,
)
from cobordseries.groups import cyclic
from cobordseries.measures import ComplexMeasure, SemigroupDensity


# -- oracles -------------------------------------------------------------------

def unit_pieces_oracle(cell):
    """Unit cells of the box, offsets enumerated axis by axis."""
    out = []
    for offsets in itertools.product(*[range(e) for e in cell.extents]):
        base = list(cell.base)
        for axis, off in zip(cell.axes, offsets):
            base[axis] += off
        out.append(Cell(tuple(base), cell.axes, (1,) * cell.dim, cell.sign))
    return out


def meets_interior(cell, box):
    """True when the box intersects the relative interior of the cell."""
    inter = box_intersect(cell.box(), box)
    if inter is None:
        return False
    spans = dict(zip(cell.axes, cell.extents))
    for axis in cell.axes:
        lo, hi = inter[axis]
        olo = cell.base[axis]
        ohi = olo + spans[axis]
        if not (hi > olo and lo < ohi):
            return False
    return True


def regular_oracle(cells):
    """No pairwise intersection meets the relative interior of either cell."""
    cells = list(cells)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            inter = box_intersect(cells[i].box(), cells[j].box())
            if inter is None:
                continue
            if meets_interior(cells[i], inter) or meets_interior(cells[j], inter):
                return False
    return True


def box_volume_oracle(box):
    """dim-volume of a box; a point has volume 1."""
    vol = 1
    for lo, hi in box:
        vol *= hi - lo if hi > lo else 1
    return vol


def covers_oracle(target_box, cells, dim):
    """The dim-dimensional parts of the cells inside target_box fill its
    whole dim-volume (intersection volumes summed, so only sound for
    cells that do not overlap)."""
    total = 0
    for cell in cells:
        inter = box_intersect(cell.box(), target_box)
        if inter is not None and box_dim(inter) == dim:
            total += box_volume_oracle(inter)
    return total == box_volume_oracle(target_box)


def saturated_oracle(complex_, domains):
    """Regular cells and domains, every domain one dimension above the cells,
    each domain facet covered and each cell piece inside some facet."""
    cells = complex_.cells
    if not (regular_oracle(cells) and regular_oracle(domains)):
        return False
    if len({c.dim for c in cells} | {d.dim - 1 for d in domains}) > 1:
        return False
    k = cells[0].dim if cells else 0
    for dom in domains:
        for facet, _ in dom.facets():
            if not covers_oracle(facet.box(), cells, k):
                return False
    boundary = [f.box() for dom in domains for f, _ in dom.facets()]
    return all(any(box_contains(b, piece.box()) for b in boundary)
               for cell in cells for piece in unit_pieces_oracle(cell))


def boundary_word_oracle(domain, complex_):
    """Each cell against each domain facet: contained cells are read with
    the facet's sign, cells sharing a piece with a facet raise."""
    faces = [(f.box(), f.sign) for f, _ in domain.facets()]
    word = []
    for pos, cell in enumerate(complex_.cells):
        cbox = cell.box()
        matched = next((fsign for fbox, fsign in faces if box_contains(fbox, cbox)),
                       None)
        if matched is not None:
            word.append((pos, 1 if cell.sign == matched else -1))
            continue
        for fbox, _ in faces:
            inter = box_intersect(cbox, fbox)
            if inter is not None and box_dim(inter) == cell.dim:
                raise ValueError(
                    f"cell {cell!r} lies partially on the boundary of {domain!r}")
    return word


def components_oracle(region, blocked_boxes):
    """Union-find over every pair sharing an unblocked facet box."""
    n = len(region)
    facet_boxes = [[f.box() for f, _ in c.facets()] for c in region]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            shared = box_intersect(region[i].box(), region[j].box())
            if shared is None or box_dim(shared) != region[i].dim - 1:
                continue
            if shared not in facet_boxes[i] or shared not in facet_boxes[j]:
                continue
            if any(box_contains(b, shared) for b in blocked_boxes):
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(region[i])
    return list(groups.values())


# -- generated lattice configurations ---------------------------------------------

def window_cells(d, dim, size=3):
    """All unit cells of one dimension in the window [0, size]^d."""
    out = []
    for axes in itertools.combinations(range(d), dim):
        ranges = [range(size) if a in axes else range(size + 1) for a in range(d)]
        for base in itertools.product(*ranges):
            out.append(Cell(base, axes, (1,) * dim))
    return out


@st.composite
def boxes(draw, d, dim):
    """A dim-dimensional cell in [0, 5]^d with extents 1-3 and either sign."""
    axes = tuple(sorted(draw(st.permutations(range(d)))[:dim]))
    base = tuple(draw(st.integers(0, 2)) for _ in range(d))
    extents = tuple(draw(st.integers(1, 3)) for _ in axes)
    return Cell(base, axes, extents, draw(st.sampled_from((1, -1))))


@st.composite
def cell_lists(draw):
    """Distinct unit cells of a small window, of one dimension (then
    regular) or of mixed dimensions, and up to two longer boxes, in
    shuffled order."""
    d = draw(st.integers(1, 3))
    dims = [draw(st.integers(0, d))] if draw(st.booleans()) else range(d + 1)
    pool = [c for k in dims for c in window_cells(d, k, 2)]
    cells = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    extra = draw(st.lists(boxes(d, draw(st.sampled_from(list(dims)))), max_size=2))
    cells = [Cell(c.base, c.axes, c.extents, draw(st.sampled_from((1, -1))))
             for c in cells + extra]
    return draw(st.permutations(cells))


def distinct(cells):
    seen, out = set(), []
    for c in cells:
        if c.key() not in seen:
            seen.add(c.key())
            out.append(c)
    return out


@st.composite
def saturation_inputs(draw):
    """Domains and a complex built from their facets, then perturbed: a
    piece dropped, a stray cell added, adjacent pieces merged, cells of the
    wrong dimension, or an unrelated complex."""
    d = draw(st.integers(1, 3))
    dim = draw(st.integers(1, d))
    domains = draw(st.lists(boxes(d, dim), max_size=3))
    if draw(st.booleans()):
        domains = domains + draw(st.lists(boxes(d, draw(st.integers(0, d))),
                                          max_size=1))
    pieces = distinct(p for dom in domains for f, _ in dom.facets()
                      for p in unit_pieces_oracle(f))
    kind = draw(st.sampled_from(("exact", "drop", "stray", "merge", "vertices",
                                 "random")))
    if kind == "drop" and pieces:
        pieces.pop(draw(st.integers(0, len(pieces) - 1)))
    elif kind == "stray":
        pieces = distinct(pieces + [draw(st.sampled_from(window_cells(d, dim - 1)))])
    elif kind == "merge":
        for _ in range(draw(st.integers(1, 3))):
            pairs = [(a, b) for a, b in itertools.combinations(pieces, 2)
                     if box_union(a.box(), b.box()) not in (None, a.box())]
            if not pairs:
                break
            a, b = draw(st.sampled_from(pairs))
            pieces = [p for p in pieces if p not in (a, b)]
            pieces.append(domain_box(box_union(a.box(), b.box())))
    elif kind == "vertices":
        pieces = distinct(point_cell(v) for p in pieces
                          for v in itertools.product(*p.box()))
    elif kind == "random":
        k = draw(st.integers(0, d))
        pieces = draw(st.lists(st.sampled_from(window_cells(d, k)), max_size=6,
                               unique=True))
    pieces = [p for p in pieces if p.dim == pieces[0].dim]
    cells = [Cell(c.base, c.axes, c.extents, draw(st.sampled_from((1, -1))))
             for c in draw(st.permutations(pieces))]
    return CellComplex(cells), draw(st.permutations(domains))


@st.composite
def region_inputs(draw):
    """Top-dimensional unit cells of a window, occasionally a longer box or a
    repeated cell; blocked boxes are cell facets and a random lower box."""
    d = draw(st.integers(1, 3))
    dim = draw(st.integers(0, d))
    region = draw(st.lists(st.sampled_from(window_cells(d, dim)), max_size=10,
                           unique=True))
    region += draw(st.lists(boxes(d, dim), max_size=1))
    if region and draw(st.booleans()):
        region.append(draw(st.sampled_from(region)))
    facets = [f.box() for c in region for f, _ in c.facets()]
    blocked = draw(st.lists(st.sampled_from(facets), max_size=4)) if facets else []
    blocked += [c.box() for c in draw(st.lists(boxes(d, max(dim - 1, 0)), max_size=1))]
    return draw(st.permutations(region)), blocked


def merge_adjacent(draw, cells):
    """Replace up to three pairs of cells sharing a full facet by their
    union box; unions of interior-disjoint cells stay interior-disjoint."""
    for _ in range(draw(st.integers(0, 3))):
        pairs = [(a, b) for a, b in itertools.combinations(cells, 2)
                 if box_union(a.box(), b.box()) not in (None, a.box())]
        if not pairs:
            break
        a, b = draw(st.sampled_from(pairs))
        cells = [c for c in cells if c not in (a, b)]
        cells.append(domain_box(box_union(a.box(), b.box())))
    return cells


@st.composite
def coverage_inputs(draw):
    """A target box and regular cells of its dimension: some of its unit
    pieces and unit cells of the window around it, some merged into
    longer boxes."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    target = draw(boxes(d, k))
    pieces = distinct(target.unit_pieces()
                      + draw(st.lists(st.sampled_from(window_cells(d, k, 5)),
                                      max_size=4)))
    cells = draw(st.lists(st.sampled_from(pieces), unique=True))
    return target.box(), draw(st.permutations(merge_adjacent(draw, cells)))


@st.composite
def word_inputs(draw):
    """A domain and a complex one dimension below it: some of its facet
    pieces, merged pieces, and boxes that may lie partly on the boundary or
    overlap other cells, with either sign, in shuffled order."""
    d = draw(st.integers(1, 3))
    domain = draw(boxes(d, draw(st.integers(1, d))))
    k = domain.dim - 1
    pieces = distinct(p for f, _ in domain.facets() for p in f.unit_pieces())
    cells = merge_adjacent(draw, draw(st.lists(st.sampled_from(pieces), unique=True)))
    cells = distinct(cells + draw(st.lists(boxes(d, k), max_size=2)))
    cells = [Cell(c.base, c.axes, c.extents, draw(st.sampled_from((1, -1))))
             for c in cells]
    return domain, CellComplex(draw(st.permutations(cells)))


def word_or_error(read, domain, complex_):
    try:
        return read(domain, complex_)
    except ValueError as exc:
        return str(exc)


# -- agreement with the oracles ------------------------------------------------------

@given(cell_lists())
def test_is_regular_matches_pairwise_oracle(cells):
    assert is_regular(cells) == regular_oracle(cells)


@given(saturation_inputs())
def test_is_saturated_matches_pairwise_oracle(inputs):
    complex_, domains = inputs
    assert is_saturated(complex_, domains) == saturated_oracle(complex_, domains)


@given(region_inputs())
def test_region_components_match_pairwise_oracle(inputs):
    region, blocked = inputs
    assert region_components(region, blocked) == components_oracle(region, blocked)


@given(st.integers(1, 3).flatmap(
    lambda d: st.integers(0, d).flatmap(lambda k: boxes(d, k))))
def test_unit_pieces_match_offset_enumeration(cell):
    assert cell.unit_pieces() == unit_pieces_oracle(cell)


@given(coverage_inputs())
def test_covers_matches_volume_sum_on_regular_cells(inputs):
    target, cells = inputs
    assert regular_oracle(cells)
    expected = covers_oracle(target, cells, box_dim(target))
    assert covers(target, _unit_boxes(cells)) == expected
    assert covers(target, CellComplex(cells).pieces) == expected


@given(word_inputs())
def test_boundary_word_matches_cell_facet_scan(inputs):
    domain, complex_ = inputs
    assert (word_or_error(boundary_word, domain, complex_)
            == word_or_error(boundary_word_oracle, domain, complex_))


def test_coverage_and_word_inputs_reach_every_verdict():
    """Generated targets are covered and uncovered, and generated words
    are read, empty and refused, so agreement is not vacuous."""
    covered, words = set(), set()

    @given(coverage_inputs(), word_inputs())
    def collect(coverage, word):
        target, cells = coverage
        covered.add(covers(target, _unit_boxes(cells)))
        out = word_or_error(boundary_word, *word)
        words.add("error" if isinstance(out, str) else "word" if out else "empty")

    collect()
    assert covered == {True, False} and words == {"error", "word", "empty"}


@pytest.mark.parametrize("domains, expected", [
    ([], True),
    ([point_cell((0, 0))], True),          # a point has no boundary to cover
    ([domain_box(((0, 1),))], False),
], ids=["no-domains", "point-domain", "edge-domain"])
def test_empty_complex(domains, expected):
    empty = CellComplex([])
    assert is_saturated(empty, domains) == saturated_oracle(empty, domains) == expected


def test_empty_sequences():
    assert is_regular([]) and regular_oracle([])
    assert region_components([], [((0, 0),)]) == components_oracle([], []) == []


def test_generated_inputs_reach_both_verdicts():
    """The generators produce regular and non-regular sequences and
    saturated and unsaturated complexes, so agreement is not vacuous."""
    regular, saturated = set(), set()

    @given(cell_lists(), saturation_inputs())
    def collect(cells, inputs):
        regular.add(is_regular(cells))
        saturated.add(is_saturated(*inputs))

    collect()
    assert regular == {True, False} and saturated == {True, False}


# -- the mixed-dimension defect -----------------------------------------------------

def staircase_points():
    """Points on the boundary of [0,2]x[0,1] whose 0-volume per facet equals
    the facet's length; they do not cover the boundary edges."""
    return CellComplex([point_cell((0, 0)), point_cell((1, 0)),
                        point_cell((1, 1)), point_cell((2, 1))])


def test_points_do_not_saturate_a_rectangle():
    complex_, rectangle = staircase_points(), domain_box(((0, 2), (0, 1)))
    assert not is_saturated(complex_, [rectangle])
    with pytest.raises(ValueError, match="saturated"):
        ComplexMeasure(complex_, [rectangle], SemigroupDensity(cyclic(2)))
    cosurface = Cosurface(cyclic(2), [(c, 0) for c in complex_])
    with pytest.raises(ValueError, match="not covered"):
        dimension_extend(cosurface, complex_, rectangle)


def test_boundary_word_rejects_cells_of_another_dimension():
    complex_, rectangle = staircase_points(), domain_box(((0, 2), (0, 1)))
    # the facet scan read a word off four points on the rectangle's boundary
    assert boundary_word_oracle(rectangle, complex_) == [(0, -1), (1, 1), (2, -1), (3, 1)]
    with pytest.raises(ValueError, match="dimension 1"):
        boundary_word(rectangle, complex_)


# -- the overlap defect of the volume sum -------------------------------------------

def test_overlapping_cells_do_not_cover_a_gap():
    """[0,2]x{0} and [1,2]x{0} overlap on [1,2]x{0}; their summed length
    is 3, but [2,3]x{0} of the rectangle's lower side is missing."""
    complex_ = CellComplex([
        Cell((0, 0), (0,), (2,)), Cell((1, 0), (0,), (1,)), Cell((0, 1), (0,), (3,)),
        edge_cell((0, 0), 1), edge_cell((3, 0), 1)])
    rectangle = domain_box(((0, 3), (0, 1)))
    bottom = ((0, 3), (0, 0))
    assert covers_oracle(bottom, complex_.cells, 1)
    assert not covers(bottom, complex_.pieces)
    cosurface = Cosurface(cyclic(2), [(c, 1) for c in complex_])
    with pytest.raises(ValueError, match="not covered"):
        dimension_extend(cosurface, complex_, rectangle)
