"""The cobordism-border functions against pairwise box-arithmetic oracles.

``border_reduce`` joins a domain's border fragments with
``cells.region_components``, and ``is_adapted`` asks whether an interior
open unit face of a cell lies in the initial or final face.  The oracles
are the pairwise forms these replace: a BFS over fragments whose
intersection is (d-2)-dimensional, and a box-intersection test against
each cell's relative interior.  Instances are guillotine subdivisions of
boxes in 1-3 D with their shuffled, randomly oriented facet complex and a
random time axis (``lattice_instances``).
"""

from hypothesis import given, settings, strategies as st

from cobordseries.cells import (
    Cell, FINAL, INITIAL, boundary_word, box_contains, box_dim,
    box_intersect, covers, domain_box, is_saturated, _unit_boxes,
)
from cobordseries.measures import (
    CobordismBox, border_reduce, is_adapted, is_complex_for_cobordism,
)
from lattice_instances import cobordism_instances
from test_face_predicates import meets_interior


# -- oracles -----------------------------------------------------------------------

def border_fragments(dom, cob):
    """(box, border sign) of each (d-1)-dimensional intersection of a domain
    facet with a box face, in domain-facet order."""
    faces = [(f.box(), f.sign) for f, _ in cob.cell().facets()]
    out = []
    for facet, _ in dom.facets():
        for ybox, ysign in faces:
            inter = box_intersect(facet.box(), ybox)
            if inter is not None and box_dim(inter) == cob.dim - 1:
                out.append((inter, ysign))
    return out


def border_reduce_oracle(complex_, cob, domains):
    """(cells, border_labels) per piece: fragments joined by a BFS over
    pairs meeting in a (d-2)-dimensional box, cells in BFS order."""
    pieces = []
    for dom in domains:
        boundary = [complex_.cells[pos] for pos, _ in boundary_word(dom, complex_)]
        fragments = border_fragments(dom, cob)
        used = [False] * len(fragments)
        for start in range(len(fragments)):
            if used[start]:
                continue
            comp, queue = [start], [start]
            used[start] = True
            while queue:
                cur = queue.pop()
                for other in range(len(fragments)):
                    if used[other]:
                        continue
                    inter = box_intersect(fragments[cur][0], fragments[other][0])
                    if inter is not None and box_dim(inter) == cob.dim - 2:
                        used[other] = True
                        comp.append(other)
                        queue.append(other)
            boxes = [fragments[i][0] for i in comp]
            labels = set()
            for s in boundary:
                touched = [b for b in (box_intersect(s.box(), b) for b in boxes)
                           if b is not None]
                if not touched or any(box_dim(b) >= cob.dim - 1 for b in touched):
                    continue
                for facet, _ in s.facets():
                    for b in touched:
                        if box_contains(facet.box(), b):
                            labels.add((b, INITIAL if facet.sign < 0 else FINAL))
            cells = [domain_box(fragments[i][0], sign=fragments[i][1]) for i in comp]
            pieces.append((cells, tuple(sorted(labels))))
    return pieces


def is_adapted_oracle(cells, cob):
    """No cell of positive dimension meets the initial or final face in its
    relative interior, and facets on those faces carry their label."""
    alpha, beta = cob.alpha_box(), cob.beta_box()
    for cell in cells:
        if cell.dim == 0:
            continue
        if meets_interior(cell, alpha) or meets_interior(cell, beta):
            return False
        for facet, lbl in cell.facets():
            if box_contains(alpha, facet.box()) and lbl != INITIAL:
                return False
            if box_contains(beta, facet.box()) and lbl != FINAL:
                return False
    return True


def is_complex_for_cobordism_oracle(complex_, cob, domains):
    """Initial-face cells cover that face, final-face cells cover theirs, the
    rest passes the adapted oracle, and the complex saturates the domains."""
    alpha, beta = cob.alpha_box(), cob.beta_box()
    k_alpha = [c for c in complex_ if box_contains(alpha, c.box())]
    k_beta = [c for c in complex_ if box_contains(beta, c.box()) and c not in k_alpha]
    k_a = [c for c in complex_ if c not in k_alpha and c not in k_beta]
    return (covers(alpha, _unit_boxes(k_alpha)) and covers(beta, _unit_boxes(k_beta))
            and is_adapted_oracle(k_a, cob) and is_saturated(complex_, domains))


def transversal_part(complex_, cob):
    """The cells lying in neither the initial nor the final face."""
    return [c for c in complex_ if not (box_contains(cob.alpha_box(), c.box())
                                        or box_contains(cob.beta_box(), c.box()))]


@st.composite
def cells_near_a_box(draw):
    """A box cobordism in 1-3 D and up to three cells of any dimension and
    either sign with extents 1-3 around it, some crossing its faces."""
    d = draw(st.integers(1, 3))
    spans = tuple((0, draw(st.integers(1, 2))) for _ in range(d))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        axes = tuple(sorted(draw(st.permutations(range(d)))[:draw(st.integers(0, d))]))
        base = tuple(draw(st.integers(-1, 2)) for _ in range(d))
        extents = tuple(draw(st.integers(1, 3)) for _ in axes)
        cells.append(Cell(base, axes, extents, draw(st.sampled_from((1, -1)))))
    return CobordismBox(spans, draw(st.integers(0, d - 1))), cells


# -- agreement with the oracles ----------------------------------------------------

@settings(max_examples=100)
@given(cobordism_instances())
def test_border_reduce_matches_fragment_bfs(instance):
    spans, axis, domains, complex_ = instance
    cob = CobordismBox(spans, axis)
    pieces = border_reduce(complex_, cob, domains)
    expected = border_reduce_oracle(complex_, cob, domains)
    assert [p.border_labels for p in pieces] == [labels for _, labels in expected]
    assert [set(p.cells) for p in pieces] == [set(cells) for cells, _ in expected]
    # each piece lists its cells in fragment order
    order = [domain_box(b, sign=s) for dom in domains for b, s in border_fragments(dom, cob)]
    for piece in pieces:
        cells = set(piece.cells)
        assert [c for c in order if c in cells] == list(piece.cells)


@settings(max_examples=100)
@given(cobordism_instances(), cells_near_a_box())
def test_adapted_verdicts_match_interior_oracle(instance, near):
    spans, axis, domains, complex_ = instance
    cob = CobordismBox(spans, axis)
    part = transversal_part(complex_, cob)
    assert is_adapted(part, cob) == is_adapted_oracle(part, cob)
    assert is_adapted(complex_, cob) == is_adapted_oracle(complex_, cob)
    assert (is_complex_for_cobordism(complex_, cob, domains)
            == is_complex_for_cobordism_oracle(complex_, cob, domains))
    near_cob, cells = near
    assert is_adapted(cells, near_cob) == is_adapted_oracle(cells, near_cob)


def test_generated_instances_reach_both_verdicts_and_long_pieces():
    """Generated facet complexes saturate their domains; they are adapted
    and not adapted, the cells near a box are too, and some border pieces
    join three or more fragments, so agreement is not vacuous."""
    adapted, verdicts, crossing, longest = set(), set(), set(), 0

    @settings(max_examples=50)
    @given(cobordism_instances(), cells_near_a_box())
    def collect(instance, near):
        nonlocal longest
        spans, axis, domains, complex_ = instance
        assert is_saturated(complex_, domains)
        cob = CobordismBox(spans, axis)
        adapted.add(is_adapted(transversal_part(complex_, cob), cob))
        verdicts.add(is_complex_for_cobordism(complex_, cob, domains))
        crossing.add(is_adapted(near[1], near[0]))
        pieces = border_reduce(complex_, cob, domains)
        longest = max([longest] + [len(p.cells) for p in pieces])

    collect()
    assert adapted == verdicts == crossing == {True, False}
    assert longest >= 3
