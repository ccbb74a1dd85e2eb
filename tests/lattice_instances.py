"""Hypothesis strategies for generated saturated lattice instances, and
the fixed chain and strip measures that the test modules share.

A guillotine subdivision cuts a box into box domains by recursive
axis-parallel cuts at interior integer coordinates; the domains are
pairwise interior-disjoint and tile the box.  Its facet complex holds the
distinct unit facets of the domains in shuffled order with random (or all
+1) orientations, so it saturates the domains.  A relabelled group is a
built-in group whose non-identity elements are renumbered by a random
permutation.  The chain and the two-plaquette strip are the CLI's own
``chain_instance`` and ``strip_instance``.  The rectangle skeleton is the
boundary of a rectangle plus the edges of guillotine cuts; the row strip is
the skeleton of a 1 x n rectangle cut into unit squares.  ``region_cells``
is the region a Markov split separates: the domains' unit pieces.
The library evaluates a measure's densities through its word-factor
engine; the tests enumerate them.  ``enumerated_density`` is the one
enumerator of G^K: it reads the words off the Cayley table for every
configuration at once, and ``measure_densities`` applies it to every
configuration of a measure.  The Markov, reordering and factorization
oracles are built on it, never on the engine.  Test modules import these
by module name (``from lattice_instances import ...``).
"""

import numpy as np
from hypothesis import strategies as st

from cobordseries.cells import Cell, CellComplex, domain_box
from cobordseries.cli import chain_instance, strip_instance
from cobordseries.groups import FiniteGroup, builtin_group
from cobordseries.measures import ComplexMeasure, sigma_action

RELABEL_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "Q8")


def skeleton_cells(width, height, cuts, coarse=False):
    """Boundary edges of [0,w]x[0,h] plus the unit edges of the guillotine
    ``cuts``, a list of (axis, coordinate), sorted by (base, axis, extent).
    Outer sides are unit edges, or with ``coarse`` one long edge each, so
    cut pieces see them only in part."""
    edges = set()
    if coarse:
        edges |= {((0, 0), 0, width), ((0, height), 0, width),
                  ((0, 0), 1, height), ((width, 0), 1, height)}
    else:
        edges |= {((x, y), 0, 1) for x in range(width) for y in (0, height)}
        edges |= {((x, y), 1, 1) for x in (0, width) for y in range(height)}
    for axis, coord in cuts:
        if axis == 0:
            edges |= {((coord, y), 1, 1) for y in range(height)}
        else:
            edges |= {((x, coord), 0, 1) for x in range(width)}
    return [Cell(base, (axis,), (extent,)) for base, axis, extent in sorted(edges)]


def row_strip(n):
    """The 1 x n strip of unit squares: ``skeleton_cells`` cut at every
    interior x (3n + 1 edges), and its n unit squares as domains."""
    cells = skeleton_cells(n, 1, [(0, x) for x in range(1, n)])
    return cells, [domain_box(((x, x + 1), (0, 1))) for x in range(n)]


def chain_measure(length, density):
    """Points 0..length-1 with the unit intervals between them as domains."""
    return ComplexMeasure(*chain_instance(length), density)


def strip_cells():
    """The seven edges of two unit squares side by side, as a list; the
    shared middle edge is at position 3."""
    return list(strip_instance()[0].cells)


def strip_measure(density):
    """The two unit squares of ``strip_cells`` as domains."""
    return ComplexMeasure(*strip_instance(), density)


def region_cells(domains):
    """The unit top cells of the union of the domains (the region a Markov
    split separates), domain by domain."""
    return [piece for dom in domains for piece in dom.unit_pieces()]


def enumerated_density(group, configs, words, q_tables):
    """A measure's density on every column of ``configs`` (one row per cell),
    read off the Cayley table word by word, in word-list order."""
    table, inverse = np.array(group.table), np.array(group.inv_table)
    out = np.ones(configs.shape[1])
    for word, q in zip(words, q_tables):
        phi = np.full(configs.shape[1], group.identity)
        for pos, exp in word:
            phi = table[phi, configs[pos] if exp > 0 else inverse[configs[pos]]]
        out *= np.asarray(q)[phi]
    return out


def measure_densities(measure):
    """(configs, densities): every configuration of G^K as a column of
    ``configs`` (one row per cell, in lexicographic order) and the measure's
    density on each, its domains' factors multiplied in domain order."""
    size = len(measure.complex)
    configs = np.indices((measure.group.order,) * size).reshape(size, -1)
    return configs, enumerated_density(measure.group, configs, measure.words,
                                       measure.q_tables)


def markov_oracle(measure, sides, lo, hi, f_plus, f_minus):
    """``markov_check``'s table and residual from one pass over the
    (configuration, density) pairs of ``measure_densities``, in order;
    ``sides`` are the plus and minus side positions, cells[lo:hi+1] the
    conditioning cells."""
    configs, densities = measure_densities(measure)
    sums = {}
    for config, w in zip(map(tuple, configs.T.tolist()), densities.tolist()):
        fp = f_plus({i: config[i] for i in sides[0]})
        fm = f_minus({i: config[i] for i in sides[1]})
        acc = sums.setdefault(config[lo:hi + 1], [0.0, 0.0, 0.0, 0.0])
        acc[0] += w
        acc[1] += w * fp * fm
        acc[2] += w * fp
        acc[3] += w * fm
    table, residual = {}, 0.0
    for key, (mass, both, fp, fm) in sums.items():
        table[key] = None if mass == 0.0 else (both / mass, (fp / mass) * (fm / mass))
        if table[key] is not None:
            residual = max(residual, abs(table[key][0] - table[key][1]))
    return table, residual


def reorder_oracle(measure, perm):
    """|mu_K(C) - mu_{sigma K}(sigma C)| for every configuration C, in the
    order of ``measure_densities``: sigma K built as a complex, its words
    compiled from the geometry, and C moved along with the cells."""
    other = ComplexMeasure(sigma_action(perm, measure.complex), measure.domains,
                           measure.density)
    configs, densities = measure_densities(measure)
    moved = enumerated_density(measure.group, configs[list(perm)], other.words,
                               other.q_tables)
    return np.abs(densities - moved)


def factorization_oracle(k, k_prime, k_pp, later, earlier, density):
    """Each piece and the pasted complex measured on their own cells, the
    piece densities read at the pasted configuration's values on the piece's
    cells (found by key): 1.0 times the later piece's times the earlier's.
    Returns the worst residual and the largest pasted density."""
    pasted = ComplexMeasure(k_pp, tuple(earlier) + tuple(later), density)
    where = {c.key(): pos for pos, c in enumerate(k_pp.cells)}
    configs, densities = measure_densities(pasted)
    product = np.ones(configs.shape[1])
    for piece, doms in ((k, later), (k_prime, earlier)):
        rows = configs[[where[c.key()] for c in piece.cells]]
        at = np.ravel_multi_index(rows, (density.group.order,) * len(piece))
        product *= measure_densities(ComplexMeasure(piece, doms, density))[1][at]
    return float(np.max(np.abs(product - densities))), float(np.max(densities))


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
def relabelled_groups(draw, names=RELABEL_GROUPS):
    """(built-in group, permutation, relabelled copy) for a group drawn from
    ``names``: the copy keeps the built-in name in half the draws and is
    called ``other`` otherwise."""
    group = builtin_group(draw(st.sampled_from(names)))
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
