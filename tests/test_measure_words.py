"""Reordering and pasting as relabellings of boundary words, against the
geometric recompile.

``reorder_max_difference`` re-sorts each domain's word by the cells'
positions in sigma K, and ``factorization_check`` maps each piece's words
onto the pasted complex's positions.  The oracles here build sigma K, the
pieces and the pasted complex as complexes, let ``ComplexMeasure`` compile
their words from the geometry, and enumerate every configuration with
``density_of``; the relabelled checks must give the same floats exactly.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from lattice_instances import chain_instance, strip_cells, strip_instance

import cobordseries.cells as cells_mod
from cobordseries.cells import CellComplex, domain_box, point_cell
from cobordseries.groups import builtin_group
from cobordseries.measures import (
    CobordismBox, ComplexMeasure, SemigroupDensity, cut, factorization_check,
    reorder_max_difference, sigma_action,
)

GROUPS = ("Z2", "Z3", "S3", "Q8")
# enumeration stays cheap: at most this many configurations per oracle call
MAX_CONFIGS = 4096


def chain(length):
    complex_, domains = chain_instance(length)
    return list(complex_.cells), domains, ((0, length - 1),)


def plaquette():
    """The strip's left square, its edges bottom, right, top, left."""
    cells = strip_cells()
    return [cells[i] for i in (1, 3, 2, 0)], strip_instance()[1][:1], None


def strip():
    return strip_cells(), strip_instance()[1], ((0, 2), (0, 1))


INSTANCES = {"chain3": chain(3), "chain4": chain(4), "plaquette": plaquette(),
             "strip": strip()}


def fits(gname, name):
    return builtin_group(gname).order ** len(INSTANCES[name][0]) <= MAX_CONFIGS


CASES = [(g, name) for g in GROUPS for name in INSTANCES if fits(g, name)]
CUT_CASES = [(g, name) for g, name in CASES if INSTANCES[name][2] is not None]


def shuffled(items, keys):
    return [items[i] for i in sorted(range(len(items)), key=lambda i: keys[i])]


def reorder_oracle(measure, perm):
    """sigma K built as a complex; its words compiled from the geometry."""
    other = ComplexMeasure(sigma_action(perm, measure.complex), measure.domains,
                           measure.density)
    return max(abs(measure.density_of(c) - other.density_of(tuple(c[p] for p in perm)))
               for c in measure.configurations())


def factorization_oracle(k, k_prime, k_pp, later, earlier, density):
    """Each piece and the pasted complex measured on their own cells, the
    piece densities looked up by cell key: later product times earlier."""
    pasted = ComplexMeasure(k_pp, tuple(earlier) + tuple(later), density)
    where = {c.key(): pos for pos, c in enumerate(k_pp.cells)}
    pieces = []
    for piece, doms in ((k, later), (k_prime, earlier)):
        m = ComplexMeasure(piece, doms, density)
        pieces.append(([where[c.key()] for c in piece.cells],
                       {c: m.density_of(c) for c in m.configurations()}))
    worst = 0.0
    for config in pasted.configurations():
        product = 1.0
        for positions, dens in pieces:
            product *= dens[tuple(config[p] for p in positions)]
        worst = max(worst, abs(product - pasted.density_of(config)))
    return worst


def keys_for(size):
    return st.lists(st.integers(0, 1000), min_size=size, max_size=size)


@settings(max_examples=100)
@given(case=st.sampled_from(CASES), data=st.data())
def test_reorder_relabelled_words_match_the_recompiled_measure(case, data):
    gname, name = case
    cells, domains, _ = INSTANCES[name]
    cells = shuffled(cells, data.draw(keys_for(len(cells))))
    domains = shuffled(domains, data.draw(keys_for(len(domains))))
    measure = ComplexMeasure(CellComplex(cells), domains,
                             SemigroupDensity(builtin_group(gname)))
    perm = tuple(data.draw(st.permutations(range(len(cells)))))
    assert reorder_max_difference(measure, perm) == reorder_oracle(measure, perm)


@settings(max_examples=100)
@given(case=st.sampled_from(CUT_CASES), data=st.data())
def test_factorization_relabelled_words_match_the_recompiled_measures(case, data):
    gname, name = case
    cells, domains, spans = INSTANCES[name]
    complex_ = CellComplex(shuffled(cells, data.draw(keys_for(len(cells)))))
    domains = shuffled(domains, data.draw(keys_for(len(domains))))
    at = data.draw(st.integers(spans[0][0] + 1, spans[0][1] - 1))
    result = cut(CobordismBox(spans), complex_, at)
    later = [d for d in domains if d.box()[0][0] >= at]
    earlier = [d for d in domains if d.box()[0][1] <= at]
    # the pieces may also list their cells in an order K'' does not induce
    k = CellComplex(shuffled(result.k.cells, data.draw(keys_for(len(result.k)))))
    k_prime = CellComplex(shuffled(result.k_prime.cells,
                                   data.draw(keys_for(len(result.k_prime)))))
    density = SemigroupDensity(builtin_group(gname))
    ok, worst = factorization_check(k, k_prime, complex_, later, earlier, density)
    expected = factorization_oracle(k, k_prime, complex_, later, earlier, density)
    assert worst == expected
    assert ok == (expected <= 1e-12)


@pytest.mark.parametrize("gname,name", [(g, "chain4") for g in GROUPS] + [("Z3", "strip")])
def test_factorization_pieces_ordered_against_the_pasted_complex(gname, name):
    """Pieces whose cell orders reverse the one K'' induces: each word keeps
    its own order on K''s positions, so the check equals the oracle."""
    density = SemigroupDensity(builtin_group(gname))
    cells, domains, spans = INSTANCES[name]
    complex_ = CellComplex(cells)
    result = cut(CobordismBox(spans), complex_, 1)
    later = [d for d in domains if d.box()[0][0] >= 1]
    earlier = [d for d in domains if d.box()[0][1] <= 1]
    k = CellComplex(result.k.cells[::-1])
    k_prime = CellComplex(result.k_prime.cells[::-1])
    positions = [complex_.cells.index(c) for c in k.cells]
    assert positions == sorted(positions, reverse=True)
    ok, worst = factorization_check(k, k_prime, complex_, later, earlier, density)
    assert worst == factorization_oracle(k, k_prime, complex_, later, earlier, density)
    assert ok


def test_factorization_rejects_a_piece_cell_missing_from_the_pasted_complex():
    density = SemigroupDensity(builtin_group("Z2"))
    points = [point_cell((i,)) for i in range(4)]
    k = CellComplex(points[2:])
    k_prime = CellComplex(points[:2])
    k_pp = CellComplex(points[:3])
    pasted_domains = (domain_box(((0, 1),)), domain_box(((1, 2),)))
    with pytest.raises(ValueError, match="not in the pasted complex"):
        factorization_check(k, k_prime, k_pp, [domain_box(((2, 3),))],
                            [domain_box(((0, 1),))], density,
                            domains_pasted=pasted_domains)


def test_reorder_compiles_no_boundary_word(monkeypatch):
    compiled = []
    compile_word = cells_mod._compile_word

    def counting(domain, complex_, need_cover):
        compiled.append(domain)
        return compile_word(domain, complex_, need_cover)

    measures = [ComplexMeasure(CellComplex(cells), domains,
                               SemigroupDensity(builtin_group(gname)))
                for gname, (cells, domains, _) in (("S3", plaquette()),
                                                   ("Z3", strip()))]
    monkeypatch.setattr(cells_mod, "_compile_word", counting)
    for measure in measures:
        size = len(measure.complex)
        for perm in itertools.islice(itertools.permutations(range(size)), 30):
            reorder_max_difference(measure, perm)
    assert compiled == []
    # the counter does see compilation: building a measure compiles its words
    ComplexMeasure(CellComplex(plaquette()[0]), plaquette()[1],
                   SemigroupDensity(builtin_group("Z2")))
    assert len(compiled) == 1
