"""Hypothesis strategies for generated saturated lattice instances.

A guillotine subdivision cuts a box into box domains by recursive
axis-parallel cuts at interior integer coordinates; the domains are
pairwise interior-disjoint and tile the box.  Its facet complex holds the
distinct unit facets of the domains in shuffled order with random (or all
+1) orientations, so it saturates the domains.  A relabelled group is a
built-in group whose non-identity elements are renumbered by a random
permutation.  Test modules import these strategies by module name
(``from lattice_instances import ...``).
"""

from hypothesis import strategies as st

from cobordseries.cells import Cell, CellComplex, domain_box
from cobordseries.groups import FiniteGroup, builtin_group

RELABEL_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "Q8")


def relabel(group, perm, name):
    """``group`` with element a renamed perm[a] (perm[0] == 0 keeps the
    identity at 0), labels carried along."""
    n = group.order
    table = [[None] * n for _ in range(n)]
    labels = [None] * n
    for a in range(n):
        labels[perm[a]] = group.labels[a]
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    return FiniteGroup(name, table, labels=labels)


@st.composite
def relabelled_groups(draw):
    """(built-in group, permutation, relabelled copy): the copy keeps the
    built-in name in half the draws and is called ``other`` otherwise."""
    group = builtin_group(draw(st.sampled_from(RELABEL_GROUPS)))
    perm = (0,) + tuple(draw(st.permutations(range(1, group.order))))
    name = group.name if draw(st.booleans()) else "other"
    return group, perm, relabel(group, perm, name)


@st.composite
def guillotine_domains(draw, spans):
    """Box domains of a guillotine subdivision of the box with the given
    (lo, hi) spans, in shuffled order."""
    pending, domains = [tuple(spans)], []
    while pending:
        box = pending.pop()
        cuttable = [a for a, (lo, hi) in enumerate(box) if hi - lo >= 2]
        if not cuttable or not draw(st.booleans()):
            domains.append(domain_box(box))
            continue
        axis = draw(st.sampled_from(cuttable))
        lo, hi = box[axis]
        at = draw(st.integers(lo + 1, hi - 1))
        pending += [box[:axis] + ((lo, at),) + box[axis + 1:],
                    box[:axis] + ((at, hi),) + box[axis + 1:]]
    return draw(st.permutations(domains))


@st.composite
def facet_complex(draw, domains, positive=False):
    """The distinct unit facets of the domains as a complex, shuffled, each
    oriented +1 when ``positive`` and by a random sign otherwise.  Order and
    signs come from one drawn ``Random``, which keeps large complexes cheap
    to generate."""
    rng = draw(st.randoms(use_true_random=True))
    units = sorted({piece.key() for dom in domains for facet, _ in dom.facets()
                    for piece in facet.unit_pieces()})
    cells = [Cell(*key, 1 if positive else rng.choice((1, -1))) for key in units]
    rng.shuffle(cells)
    return CellComplex(cells)


@st.composite
def cobordism_instances(draw):
    """(box spans, time axis, domains, facet complex): a guillotine
    subdivision of a box in dimension 1-3 (extents at most 4 in 1-2 D and 2
    in 3 D), a random time axis, and the facet complex, all +1 in half the
    draws."""
    limits = draw(st.sampled_from(((4,), (4, 4), (2, 2, 2))))
    spans = tuple((0, draw(st.integers(1, limit))) for limit in limits)
    axis = draw(st.integers(0, len(spans) - 1))
    domains = draw(guillotine_domains(spans))
    complex_ = draw(facet_complex(domains, positive=draw(st.booleans())))
    return spans, axis, domains, complex_
