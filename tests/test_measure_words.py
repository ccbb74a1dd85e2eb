"""Reordering and pasting as relabellings of boundary words, against the
geometric recompile.

``reorder_max_difference`` re-sorts each domain's word by the cells'
positions in sigma K, and ``factorization_check`` maps each piece's words
onto the pasted complex's positions.  The oracles (``reorder_oracle`` and
``factorization_oracle`` from ``lattice_instances``) build sigma K, the
pieces and the pasted complex as complexes, let ``ComplexMeasure`` compile
their words from the geometry, and enumerate every configuration; where
the checks build arrays they must give the same floats exactly, and where
the words certify them they read 0.0, the oracle differing by its own
rounding.
"""

import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from lattice_instances import (
    chain_instance, factorization_oracle, reorder_oracle, row_strip, strip_cells,
    strip_instance,
)

import cobordseries.cells as cells_mod
import cobordseries.measures as measures_mod
from cobordseries.cells import CellComplex, domain_box, point_cell
from cobordseries.groups import builtin_group
from cobordseries.measures import (
    CobordismBox, ComplexMeasure, SemigroupDensity, cut, factorization_check,
    reorder_max_difference,
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


def checked_factorization(k, k_prime, k_pp, later, earlier, density):
    """``factorization_check`` against the oracle: with the word certificate
    refused, the arrays give the oracle's float exactly; where the words
    certify, the check reads 0.0 and the oracle differs by its own rounding."""
    args = (k, k_prime, k_pp, later, earlier, density)
    expected, largest = factorization_oracle(*args)
    with mock.patch.object(measures_mod, "_same_factor", return_value=False):
        assert factorization_check(*args)[1] == expected
    with mock.patch.object(measures_mod, "_word_product",
                           wraps=measures_mod._word_product) as products:
        ok, worst = factorization_check(*args)
    if products.called:
        assert worst == expected
    else:
        assert worst == 0.0 and expected <= 1e-15 * largest
    return ok, expected


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
    assert reorder_max_difference(measure, perm) == reorder_oracle(measure, perm).max()


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
    ok, expected = checked_factorization(k, k_prime, complex_, later, earlier, density)
    assert ok == (expected <= 1e-12)


@pytest.mark.parametrize("gname,name", [(g, "chain4") for g in GROUPS] + [("Z3", "strip")])
def test_factorization_pieces_ordered_against_the_pasted_complex(gname, name):
    """Pieces whose cell orders reverse the one K'' induces: each word keeps
    its own order on K''s positions, so the arrays equal the oracle; a reversed
    two-letter word is a rotation, and over Z3 any order certifies."""
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
    ok, _ = checked_factorization(k, k_prime, complex_, later, earlier, density)
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


def plaquette_measure(gname):
    cells, domains, _ = plaquette()
    return ComplexMeasure(CellComplex(cells), domains, SemigroupDensity(builtin_group(gname)))


def test_reorder_certifies_the_rotations_of_a_non_abelian_word():
    """The plaquette's word runs around the square, so over S3 exactly the 4
    rotations are certified (0.0, no array built) and the other 20 orders
    equal the oracle; over Z3 every order holds the same letters."""
    rotations = {tuple((i + j) % 4 for j in range(4)) for i in range(4)}
    for gname, expected in (("S3", rotations), ("Z3", set(itertools.permutations(range(4))))):
        measure, certified = plaquette_measure(gname), set()
        for perm in itertools.permutations(range(4)):
            with mock.patch.object(measures_mod, "_word_product",
                                   wraps=measures_mod._word_product) as products:
                difference = reorder_max_difference(measure, perm)
            if products.called:
                assert difference == reorder_oracle(measure, perm).max()
            else:
                certified.add(perm)
                assert difference == 0.0
        assert certified == expected


def test_an_unsound_reorder_certificate_disagrees_with_the_oracle():
    """A certificate that accepted any order of the letters would pass the
    S3 counterexample off as invariant; the oracle tests would catch it."""
    measure = plaquette_measure("S3")
    with mock.patch.object(measures_mod, "_same_factor",
                           lambda group, word, other: sorted(word) == sorted(other)):
        assert any(reorder_max_difference(measure, perm) != reorder_oracle(measure, perm).max()
                   for perm in itertools.permutations(range(4)))


def test_reorder_of_a_16_square_strip():
    """Over Z2 every re-sorted word holds the same letters, so 49 cells reorder
    without an array; over S3 the uncertified words would need one over 6**49
    configurations, which raises before allocating."""
    cells, domains = row_strip(16)
    assert len(cells) == 49
    perm = random.Random(5).sample(range(len(cells)), len(cells))
    z2 = ComplexMeasure(CellComplex(cells), domains, SemigroupDensity(builtin_group("Z2")))
    tracemalloc.start()
    try:
        assert reorder_max_difference(z2, perm) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    s3 = ComplexMeasure(CellComplex(cells), domains, SemigroupDensity(builtin_group("S3")))
    with pytest.raises(ValueError, match=r"n\*\*k = 6\*\*49 configurations, more than 2\*\*24"):
        reorder_max_difference(s3, perm)


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


@pytest.mark.parametrize("order", [(0, 2, 1, 3, 4, 5, 6), tuple(range(6, -1, -1))],
                         ids=["cells-1-2-swapped", "reversed"])
def test_factorization_of_the_s3_strip_against_a_reordered_paste(order):
    """The S3 strip cut at x = 1, checked against a K'' whose order the pieces
    do not induce: the words fail the certificate, so the arrays are built, and
    the worst residual matches the enumerating oracle on all 6**7
    configurations."""
    density = SemigroupDensity(builtin_group("S3"))
    cells, domains, spans = strip()
    complex_ = CellComplex(cells)
    result = cut(CobordismBox(spans), complex_, 1)
    later = [d for d in domains if d.box()[0][0] >= 1]
    earlier = [d for d in domains if d.box()[0][1] <= 1]
    k_pp = CellComplex([cells[i] for i in order])
    with mock.patch.object(measures_mod, "_word_product",
                           wraps=measures_mod._word_product) as products:
        ok, worst = factorization_check(result.k, result.k_prime, k_pp, later, earlier,
                                        density)
    assert products.called
    expected, _ = factorization_oracle(result.k, result.k_prime, k_pp, later, earlier,
                                       density)
    assert not ok and expected > 0.1
    assert abs(worst - expected) <= 1e-15 * expected
