"""Heat-kernel convolution semigroups and configuration measures on complexes.

The heat density q_t = exp(t L) delta_e steps over a generator set read off
the group's structure (``default_generators``), never its name, so a
relabelled Cayley table gets the relabelled kernel.  It is evaluated in
spectral form, with no matrix exponential: q_t = delta_e + sum_{mu < 0}
pi_mu expm1(mu t / |S|), where M = |S| L has the integer eigenvalues mu and
the pi_mu are exact rational class functions.  S is closed under
conjugation, so the pi_mu are character projections (Diaconis 1988), and
``heat_spectrum`` reads them off one of two closed forms, because
``default_generators`` makes only two kinds of S: G minus e (mu = 0, -|G|)
and the transpositions of S3 (mu = 0, -3, -6).
The density of a configuration C on a saturated complex K with domains
(A_1, ..., A_k) is the product over domains of q_{|A_i|} evaluated on the
ordered boundary product phi_{A_i}(C): each domain reads its boundary word
off the complex (in complex order, with orientation exponents) and feeds
the resulting group element to the heat density at time |A_i| = the cell
count of the domain.
Each domain is a factor that reads only its word's cells: ``word_factor``
tabulates q_{|A_i|}(phi_{A_i}) from the position word [(pos, +-1)] alone,
as one gather through its index phi, compiled once per Cayley table and
word (``_word_index``), and ``_word_product``, the one product kernel,
multiplies words' factors into an array over G^K (or over one side of it)
in place.  The Markov check reduces each side on its own: once L splits
the region (the domains' unit pieces; the complex compiles each split once,
whatever the group), every word reads one side only, so each conditional
sum is a product of two one-sided sums.
Reordering and pasting only relabel the words (sigma re-sorts each by its
cells' positions in sigma K; a piece's words keep their order on the pasted
positions); the factor products are built and compared as arrays over G^K
only when ``_same_factor`` fails to certify a relabelled word against its
partner (equal letters over an abelian group, a rotation over any group).
The module evaluates densities and never enumerates G^K one configuration
at a time; the tests do, as the oracle these checks are compared with.

The cobordism border is a set of open-face questions too: ``is_adapted``
asks whether an interior open unit face of a cell lies in the initial or
final face, and ``border_reduce`` joins each domain's border fragments
with ``region_components`` (a piece's cells follow fragment order).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import product as iter_product

import numpy as np

from ._checks import _finite_nonnegative, _int_in, _int_spans
from .cells import (
    Cell, CellComplex, boundary_word, box_contains, box_dim, box_intersect,
    covers, domain_box, is_saturated, region_components,
    INITIAL, FINAL, _complex_domains, _open_faces, _unit_boxes,
)
from .groups import FiniteGroup, GroupFunction, convolve, delta, is_class_function
from .series import FormalSeries


# ---------------------------------------------------------------------------
# convolution semigroups
# ---------------------------------------------------------------------------

def default_generators(group: FiniteGroup):
    """The heat generator set, read off the group's structure: the elements
    of order 2 (the transpositions) of the non-abelian group of order 6,
    every non-identity element of any other group.  Either set is
    symmetric, closed under conjugation and generates the group."""
    e = group.identity
    if group.order == 6 and not group.is_abelian:
        return tuple(g for g in group.elements() if g != e and group.mul(g, g) == e)
    return tuple(g for g in group.elements() if g != e)


def heat_spectrum(group: FiniteGroup):
    """(|S|, ((mu, pi_mu), ...)): q_t = sum_mu exp(mu t / |S|) pi_mu exactly,
    mu = 0 first and the rest descending, each pi_mu a tuple of Fractions.

    S = ``default_generators`` is closed under conjugation, so M = |S| L acts
    on each isotypic part of the group algebra by a scalar, and each pi_mu is
    a sum of character projections (Diaconis, *Group Representations in
    Probability and Statistics*, 1988).  Only two step sets occur.  For
    S = G minus e, M = J - n I (J all ones, n = |G|): mu is 0 or -n,
    pi_0 = 1/n and pi_{-n} = delta_e - 1/n.  For the three transpositions of
    S3, mu is 0, -3 or -6: pi_0 = 1/6, pi_{-6} = sign/6 (sign is -1 on the
    transpositions) and pi_{-3} = delta_e - pi_0 - pi_{-6}.
    """
    s, n, e = default_generators(group), group.order, group.identity
    if not s:
        raise ValueError(f"the trivial group {group.name} has no heat generators")
    trivial = (0, (Fraction(1, n),) * n)
    if len(s) == n - 1:
        return n - 1, (trivial, (-n, tuple(int(x == e) - Fraction(1, n)
                                           for x in group.elements())))
    sign = tuple(Fraction(-1 if x in s else 1, 6) for x in group.elements())
    standard = tuple(int(x == e) - Fraction(1, 6) - v for x, v in zip(group.elements(), sign))
    return 3, (trivial, (-3, standard), (-6, sign))


@cache
def _heat_terms(group: FiniteGroup):
    """The float form of ``heat_spectrum``: (delta_e, ((lambda, pi_lambda), ...)
    over lambda = mu / |S| < 0)."""
    size, spectrum = heat_spectrum(group)
    return (tuple(float(x) for x in delta(group).values),
            tuple((mu / size, tuple(map(float, pi))) for mu, pi in spectrum if mu))


class SemigroupDensity:
    """Heat family q_t = exp(t L) delta_e on a finite group.

    The generator averages left steps over the set S of
    ``default_generators``: (L f)(x) = (1/|S|) sum_{s in S} f(x s) - f(x).
    Densities are probability mass functions, so q_0 is the indicator of
    the identity and q_t * q_s = q_{t+s} under (counting) convolution.
    Each q_t is evaluated from the group's exact spectrum, cached per
    Cayley table, as q_t = delta_e + sum_{lambda < 0} pi_lambda
    expm1(lambda t): a few float multiply-adds per element, and exactly
    delta_e at t = 0.  ``heat_spectrum`` gives it in closed form: the
    eigenvalues 0 and -|G|/(|G| - 1) with pi_0 = 1/|G| for S = G minus e,
    and 0, -1 and -2 with the trivial, standard and sign character
    projections for the transpositions of S3 (Diaconis 1988).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._unit, self._terms = _heat_terms(group)
        self._cache: dict[float, GroupFunction] = {}

    def q(self, t) -> GroupFunction:
        """Density at time t >= 0 (a probability mass function)."""
        t = _finite_nonnegative("time", t)
        if t not in self._cache:
            values = self._unit
            for rate, pi in self._terms:
                growth = math.expm1(rate * t)
                values = [v + p * growth for v, p in zip(values, pi)]
            self._cache[t] = GroupFunction(self.group, values)
        return self._cache[t]


def semigroup_axiom_residuals(density: SemigroupDensity, times) -> dict:
    """Worst deviations from the four semigroup axioms over the given times."""
    group = density.group
    unit = delta(group)
    res = {"unit": max(abs(a - b) for a, b in zip(density.q(0).values, unit.values))}
    conv_err = 0.0
    central_err = 0.0
    mass_err = 0.0
    positivity_err = 0.0
    for t in times:
        qt = density.q(t)
        mass_err = max(mass_err, abs(sum(qt.values) - 1.0))
        positivity_err = max(positivity_err, max(0.0, -min(qt.values)))
        for cls in group.conjugacy_classes():
            vals = [qt.values[x] for x in cls]
            central_err = max(central_err, max(vals) - min(vals))
        for s in times:
            lhs = convolve(qt, density.q(s))
            rhs = density.q(t + s)
            conv_err = max(conv_err, max(abs(a - b)
                                         for a, b in zip(lhs.values, rhs.values)))
    # weak continuity at 0: q_t -> delta_e entrywise and monotone as t shrinks
    shrink = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    monotone = True
    for x in group.elements():
        vals = [density.q(t).values[x] for t in shrink]
        if x == group.identity:
            monotone &= all(vals[i] <= vals[i + 1] + 1e-15
                            for i in range(len(vals) - 1))
        else:
            monotone &= all(vals[i] >= vals[i + 1] - 1e-15
                            for i in range(len(vals) - 1))
    res.update({
        "semigroup": conv_err,
        "central": central_err,
        "mass": mass_err,
        "positivity": positivity_err,
        "weak_continuity_monotone": monotone,
    })
    return res


# ---------------------------------------------------------------------------
# the configuration measure
# ---------------------------------------------------------------------------

@cache
def _group_arrays(group: FiniteGroup):
    """The Cayley and inverse tables as read-only arrays, once per Cayley table."""
    arrays = np.array(group.table), np.array(group.inv_table)
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=1024)
def _word_index(group: FiniteGroup, word: tuple):
    """phi = ``cells.word_value`` of the word (same products, same order) on every
    assignment of its distinct positions (sorted), one axis each, as a read-only
    array, once per Cayley table and word (the 1024 last used, since words are
    inputs, not a fixed few)."""
    (table, inverse), n = _group_arrays(group), group.order
    axes = sorted({pos for pos, _ in word})
    phi = np.asarray(group.identity)
    for pos, exp in word:
        value = np.arange(n).reshape([n if a == pos else 1 for a in axes])
        phi = table[phi, value if exp > 0 else inverse[value]]
    phi.flags.writeable = False
    return phi


def word_factor(group: FiniteGroup, word, q):
    """(q[phi], axes): phi = ``_word_index`` of the word, over its distinct
    positions ``axes`` (sorted)."""
    return (np.asarray(q)[_word_index(group, tuple(word))],
            tuple(sorted({pos for pos, _ in word})))


def _word_product(group: FiniteGroup, positions: range, words, q_tables, out=None):
    """Product of the words' factors in word-list order, multiplied into ``out``
    in place; the trailing axes of ``out`` are the positions, and without
    ``out`` it starts from ones (length 1 where no word reads the position)."""
    if out is None:
        read = {pos for word in words for pos, _ in word}
        if group.order ** len(read) > 2 ** 24:
            raise ValueError(f"n**k = {group.order}**{len(read)} configurations, more than 2**24")
        out = np.ones([group.order if a in read else 1 for a in positions])
    for word, q in zip(words, q_tables):
        factor, axes = word_factor(group, word, q)
        out *= factor.reshape([group.order if a in axes else 1 for a in positions])
    return out


class ComplexMeasure:
    """Unnormalized density on G^K for a saturated complex with box domains."""

    def __init__(self, complex_: CellComplex, domains, density: SemigroupDensity):
        self.complex, self.domains = complex_, _complex_domains(complex_, domains)
        if not isinstance(density, SemigroupDensity):
            raise ValueError(f"density must be a SemigroupDensity, not {density!r}")
        self.density, self.group = density, density.group
        if not complex_._saturated(self.domains):
            raise ValueError("complex is not saturated for the domains")
        self.words = tuple(boundary_word(dom, complex_) for dom in self.domains)

    @cached_property
    def q_tables(self):
        """Each domain's heat table q_|A|, computed on first use."""
        return tuple(self.density.q(dom.volume).values for dom in self.domains)

    def density_array(self):
        """The density on every configuration of G^K, one axis per cell: each
        domain's factor multiplied in, in domain order."""
        return _word_product(self.group, range(len(self.complex)), self.words,
                             self.q_tables)


# ---------------------------------------------------------------------------
# Markov property
# ---------------------------------------------------------------------------

@cache
def _assignment_maker(positions):
    """t -> a fresh dict {positions[i]: t[i]}.  The source holds only int position
    literals (from ``range``) and the name t; no caller data ever reaches ``eval``."""
    return eval(f"lambda t: {{{', '.join(f'{p}: t[{i}]' for i, p in enumerate(positions))}}}")


def markov_check(measure: ComplexMeasure, lo: int, hi: int, f_plus, f_minus):
    """Both sides of the conditional-independence identity, per conditioning
    value on the splitting subcomplex L = cells[lo:hi+1].

    f_plus / f_minus are called with a fresh dict {position: value} for each
    assignment of the cells of their side (component closure plus L), in
    ``itertools.product`` order.  Once the complex's cached ``splits`` succeeds, the side
    functions read the contiguous runs cells[lo:] (plus) and cells[:hi+1]
    (minus): a cell in both closures would share a unit piece with L, which
    a saturated complex does not allow; they must return finite floats.
    Each domain word goes to the side whose run holds all its positions (the
    minus side if it reads only L); a word reading both sides raises.  Each
    side's table under a row of ones, times its words' factors, is summed
    over the non-L axes to rows M, S; the rows mass, plus, minus, both are
    M_-M_+, M_-S_+, S_-M_+, S_-S_+.  A side of k cells makes n**k calls, and
    n**k > 2**24 raises before any call.
    Returns (table, max_residual) where table maps each L-assignment to a
    (lhs, rhs) pair or None on zero-mass conditioning events.
    """
    if not (callable(f_plus) and callable(f_minus)):
        raise ValueError(f"side functions must be callable, got {f_plus!r}, {f_minus!r}")
    complex_ = measure.complex
    if complex_._split(lo, hi, measure.domains) is None:
        raise ValueError("the subcomplex does not split the region")
    n = measure.group.order
    sides = (("f_plus", f_plus, range(lo, len(complex_)), [], []),
             ("f_minus", f_minus, range(hi + 1), [], []))
    for word, q in zip(measure.words, measure.q_tables):
        read = [pos for pos, _ in word]
        if read and min(read) < lo and max(read) > hi:
            raise ValueError(f"domain word {word!r} reads both sides of cells[{lo}:{hi + 1}]")
        _, _, _, words, q_tables = sides[not read or max(read) <= hi]
        words.append(word)
        q_tables.append(q)
    for name, _, positions, _, _ in sides:
        if n ** len(positions) > 2 ** 24:
            raise ValueError(f"{name} would be called n**k = {n}**{len(positions)} = "
                             f"{n ** len(positions)} times, more than 2**24")

    def side_sums(name, f, positions, words, q_tables):
        """Rows (1, f) of f's side table times its words' factors, each summed
        over the side's non-L axes to n**|L| sums in product order."""
        k = len(positions)
        assignments = map(_assignment_maker(positions), iter_product(range(n), repeat=k))
        stack = np.ones((2,) + (n,) * k)
        stack[1] = np.fromiter(map(f, assignments), float, n ** k).reshape((n,) * k)
        if not np.isfinite(stack[1]).all():
            raise ValueError(f"{name} returned a non-finite value")
        _word_product(measure.group, positions, words, q_tables, out=stack)
        before_l = n ** (lo - positions.start)  # 1 on the plus side
        return stack.reshape(2, before_l, n ** (hi - lo + 1), -1).sum(axis=(1, 3))

    sums_plus, sums_minus = (side_sums(*side) for side in sides)
    sums = zip(iter_product(range(n), repeat=hi - lo + 1),
               *(sums_minus[:, None] * sums_plus).reshape(4, -1).tolist())
    table = {}
    max_residual = 0.0
    for key, mass, plus, minus, both in sums:
        if mass == 0.0:
            table[key] = None
            continue
        lhs = both / mass
        rhs = (plus / mass) * (minus / mass)
        table[key] = (lhs, rhs)
        max_residual = max(max_residual, abs(lhs - rhs))
    return table, max_residual


# ---------------------------------------------------------------------------
# reordering action
# ---------------------------------------------------------------------------

def _permutation(perm, complex_: CellComplex) -> tuple:
    perm = tuple(perm)
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(len(complex_))):
        raise ValueError(f"not a permutation of the complex indices: {perm!r}")
    return perm


def sigma_action(perm, complex_: CellComplex) -> CellComplex:
    """Reorder the complex by a permutation of its index set."""
    return CellComplex(tuple(complex_.cells[p] for p in _permutation(perm, complex_)))


def _same_factor(group: FiniteGroup, word: list, other: list) -> bool:
    """Whether two signed position words give the same q-value on every configuration:
    over an abelian group when they hold the same letters, over any group when ``other``
    is a cyclic rotation of ``word``: ba = a^-1 (ab) a is conjugate to ab, and q_t is a
    class function (Diaconis 1988) whose float table is equal across each class."""
    return (group.is_abelian and sorted(word) == sorted(other)) or any(
        word[i:] + word[:i] == other for i in range(len(word) or 1))


def reorder_max_difference(measure: ComplexMeasure, perm) -> float:
    """max over configurations of |mu_{sigma K}(C) - mu_K(C)| (C is attached
    to cells, so the configuration is permuted along); on K's positions, a word
    on sigma K is re-sorted by its cells' new positions (0.0 if all certify)."""
    moved_to = np.argsort(_permutation(perm, measure.complex)).tolist()
    words = [sorted(word, key=lambda e: moved_to[e[0]]) for word in measure.words]
    if all(_same_factor(measure.group, w, v) for w, v in zip(measure.words, words)):
        return 0.0
    difference = measure.density_array()
    difference -= _word_product(measure.group, range(len(moved_to)), words,
                                measure.q_tables)
    return float(np.max(np.abs(difference, out=difference)))


# ---------------------------------------------------------------------------
# adapted complexes, cutting and pasting
# ---------------------------------------------------------------------------

def _with_span(spans, axis, span):
    """The spans with the one on ``axis`` replaced by ``span``."""
    return spans[:axis] + (span,) + spans[axis + 1:]


class CobordismBox:
    """An axis-aligned box read as a cobordism along a time axis: the lower
    face in that axis is the initial part, the upper face the final part."""

    def __init__(self, spans, axis: int = 0):
        self.spans = _int_spans("box spans", spans)
        self.axis = _int_in("time axis", axis, 0, len(self.spans) - 1)

    @property
    def dim(self):
        return len(self.spans)

    def cell(self) -> Cell:
        return domain_box(self.spans)

    def alpha_box(self):
        lo = self.spans[self.axis][0]
        return _with_span(self.spans, self.axis, (lo, lo))

    def beta_box(self):
        hi = self.spans[self.axis][1]
        return _with_span(self.spans, self.axis, (hi, hi))

    def __repr__(self):
        return f"CobordismBox({self.spans}, axis={self.axis})"


def is_adapted(cells, cob: CobordismBox) -> bool:
    """Transversality at the cobordism border of the cells (a complex or any
    sequence of cells): no interior open unit face of a cell lies in the
    initial or final face (a closed lattice box meets an open unit face
    exactly when it contains it), and facets landing on the initial (final)
    face are labelled initial (final).  Point cells are trivially
    transversal, and cells along the lateral faces of the box (which a
    genuine cobordism does not have) are unconstrained."""
    alpha, beta = cob.alpha_box(), cob.beta_box()
    for cell in cells:
        if cell.dim == 0:
            continue
        if any(box_contains(face, f) for f in _open_faces(cell.box(), interior=True)
               for face in (alpha, beta)):
            return False
        for facet, lbl in cell.facets():
            if box_contains(alpha, facet.box()) and lbl != INITIAL:
                return False
            if box_contains(beta, facet.box()) and lbl != FINAL:
                return False
    return True


class BorderPiece:
    """One piece of the border reduction: the closure (in the box border) of
    the interior of a component of a domain boundary, with the orientation
    induced by the border and initial/final labels on its own border."""

    def __init__(self, cells, border_labels):
        self.cells = tuple(cells)
        self.border_labels = tuple(border_labels)

    def boxes(self):
        return [c.box() for c in self.cells]

    def __repr__(self):
        return f"BorderPiece({list(self.cells)!r})"


def _hyperplane(box):
    """(normal axis, coordinate) of the first axis on which the box is flat."""
    return next(((a, lo) for a, (lo, hi) in enumerate(box) if lo == hi), None)


def border_reduce(complex_: CellComplex, cob: CobordismBox, domains):
    """Unordered complex induced on the border of the box by the covering.

    For each domain, each connected component of (domain boundary) ∩ (box
    border) becomes one piece.  A fragment is the (d-1)-dimensional meet of
    a domain facet with the box face in the facet's hyperplane; fragments
    join by ``region_components``, so a piece's cells follow fragment
    order, which is domain-facet order.  Piece cells inherit the border
    orientation of the box, and the piece's own border gets initial/final
    labels from the induced orientation of the complex cells meeting it.
    The complex cells on a domain's boundary are the ones its
    ``boundary_word`` reads, so a cell partially on that boundary raises.
    """
    faces = {_hyperplane(f.box()): f for f, _ in cob.cell().facets()}
    pieces = []
    for dom in domains:
        boundary = [complex_.cells[pos] for pos, _ in boundary_word(dom, complex_)]
        fragments = []
        for facet, _ in dom.facets():
            face = faces.get(_hyperplane(facet.box()))
            inter = box_intersect(facet.box(), face.box()) if face else None
            if inter is not None and box_dim(inter) == cob.dim - 1:
                fragments.append(domain_box(inter, sign=face.sign))
        for piece in region_components(fragments, ()):
            labels = set()
            boxes = [cell.box() for cell in piece]
            for s in boundary:
                touched = [b for b in (box_intersect(s.box(), c) for c in boxes) if b is not None]
                if not touched:
                    continue
                if any(box_dim(b) >= cob.dim - 1 for b in touched):
                    continue  # s lies inside the piece, not on its border
                for facet, _ in s.facets():
                    for b in touched:
                        if box_contains(facet.box(), b):
                            labels.add((b, INITIAL if facet.sign < 0 else FINAL))
            pieces.append(BorderPiece(piece, sorted(labels)))
    return pieces


def is_complex_for_cobordism(complex_: CellComplex, cob: CobordismBox, domains) -> bool:
    """The complex partitions into an alpha-face covering, a beta-face
    covering, and an adapted part, and it saturates the domains."""
    alpha, beta = cob.alpha_box(), cob.beta_box()
    k_alpha, k_beta, k_a = [], [], []
    for cell in complex_.cells:
        if box_contains(alpha, cell.box()):
            k_alpha.append(cell)
        elif box_contains(beta, cell.box()):
            k_beta.append(cell)
        else:
            k_a.append(cell)
    return (covers(alpha, _unit_boxes(k_alpha)) and covers(beta, _unit_boxes(k_beta))
            and is_adapted(k_a, cob)
            and is_saturated(complex_, domains))


class CutResult:
    def __init__(self, k, k_prime, k_b, y, y_prime):
        self.k = k
        self.k_prime = k_prime
        self.k_b = k_b
        self.y = y
        self.y_prime = y_prime


def cut(cob: CobordismBox, complex_: CellComplex, interface: int) -> CutResult:
    """Cut the box at a time coordinate: the later part keeps the final-face
    covering, the earlier part the initial-face covering, and both share
    the interface covering; orders (and compiled geometry) come from the ambient complex."""
    lo, hi = cob.spans[cob.axis]
    _int_in("interface", interface, lo + 1, hi - 1)
    y = CobordismBox(_with_span(cob.spans, cob.axis, (interface, hi)), cob.axis)
    y_prime = CobordismBox(_with_span(cob.spans, cob.axis, (lo, interface)), cob.axis)
    plane = y.alpha_box()
    in_later, in_earlier, shared = [], [], []
    for pos, cell in enumerate(complex_.cells):
        if box_contains(plane, cell.box()):
            shared.append(pos)
            in_later.append(pos)
            in_earlier.append(pos)
        elif box_contains(y.spans, cell.box()):
            in_later.append(pos)
        elif box_contains(y_prime.spans, cell.box()):
            in_earlier.append(pos)
        else:
            raise ValueError(f"cell {cell!r} crosses the cutting interface")
    if not covers(plane, _unit_boxes(complex_.cells[pos] for pos in shared)):
        raise ValueError("the interface is not covered by complex cells")
    return CutResult(*(CellComplex._sub(complex_, run) for run in (in_later, in_earlier, shared)),
                     y, y_prime)


def paste(k: CellComplex, k_prime: CellComplex, cos=None, cos_prime=None) -> CellComplex:
    """Interleave two complexes sharing an ordered interface covering.

    The shared cells must occur in the same relative order with equal
    orientations and facet labels (condition A); when cosurfaces are given
    their values must agree on the shared cells (condition B).  The merge
    walks the shared cells in order, inserting the strictly-between runs of
    the first complex and then of the second, so that re-extracting either
    complex from the result preserves its order.
    """
    if (cos is None) != (cos_prime is None):
        raise ValueError("condition B needs both cosurfaces or neither, got one")
    if len(k_prime) == 0:
        return k
    if len(k) == 0:
        return k_prime
    keys_k = {c.key(): i for i, c in enumerate(k.cells)}
    shared = []
    for j, cell in enumerate(k_prime.cells):
        i = keys_k.get(cell.key())
        if i is None:
            continue
        if k.cells[i] != cell:
            raise ValueError(f"shared cell {cell!r} differs in orientation or labels")
        shared.append((i, j))
    if not shared:
        raise ValueError("complexes share no interface covering")
    if [i for i, _ in shared] != sorted(i for i, _ in shared):
        raise ValueError("shared cells occur in different orders")
    if cos is not None:
        for i, _ in shared:
            cell = k.cells[i]
            if cos.value(cell) != cos_prime.value(cell):
                raise ValueError(f"cosurface values differ on shared cell {cell!r}")
    out = []
    prev_i, prev_j = -1, -1
    for i, j in shared:
        out.extend(k.cells[prev_i + 1:i])
        out.extend(k_prime.cells[prev_j + 1:j])
        out.append(k.cells[i])
        prev_i, prev_j = i, j
    out.extend(k.cells[prev_i + 1:])
    out.extend(k_prime.cells[prev_j + 1:])
    return CellComplex(out)


def extract(k_pasted: CellComplex, original: CellComplex) -> CellComplex:
    """Subsequence of the pasted complex consisting of the original's cells
    (each of which must be in the pasted complex, with the same orientation
    and labels)."""
    pasted = {c.key(): c for c in k_pasted.cells}
    for cell in original.cells:
        if cell.key() not in pasted:
            raise ValueError(f"{cell!r} is not in the pasted complex")
        if pasted[cell.key()] != cell:
            raise ValueError(f"{cell!r} differs in orientation or labels from "
                             f"{pasted[cell.key()]!r} in the pasted complex")
    keys = {c.key() for c in original.cells}
    return CellComplex([c for c in k_pasted.cells if c.key() in keys])


def factorization_check(k: CellComplex, k_prime: CellComplex, k_pp: CellComplex,
                        domains_later, domains_earlier, density: SemigroupDensity,
                        tol=1e-12, domains_pasted=None):
    """Verify mu_K(C) * mu_K'(C') = mu_K''(C'') on G^{K''}, each piece's words
    kept in their order on their cells' positions in K'' (missing cells raise);
    0.0 when ``_same_factor`` pairs each (domain, word) off with a pasted one.

    ``domains_later`` cover the later piece (whose complex is k) and
    ``domains_earlier`` the earlier one.  The pasted measure must list the
    earlier domains first; a ``domains_pasted`` ordering violating that is
    rejected for non-abelian groups rather than silently reordered.
    """
    _finite_nonnegative("tol", tol)
    group = density.group
    if domains_pasted is None:
        domains_pasted = tuple(domains_earlier) + tuple(domains_later)
    elif not group.is_abelian:
        earlier_keys = {dom.key() for dom in domains_earlier}
        earlier = [dom.key() in earlier_keys for dom in domains_pasted]
        if earlier != sorted(earlier, reverse=True):
            raise ValueError("non-abelian pasting requires the earlier-piece domains "
                             "at the beginning of the list")
    measure_pp = ComplexMeasure(k_pp, tuple(domains_pasted), density)
    pasted_at = {cell.key(): pos for pos, cell in enumerate(k_pp.cells)}
    pieces = []  # each piece's words on K''s positions, with its measure
    for piece, doms in ((k, domains_later), (k_prime, domains_earlier)):
        measure = ComplexMeasure(piece, doms, density)
        moved_to = [pasted_at.get(cell.key()) for cell in piece.cells]
        if None in moved_to:
            raise ValueError(f"{piece.cells[moved_to.index(None)]!r} is not in the pasted complex")
        pieces.append(([[(moved_to[pos], exp) for pos, exp in word] for word in measure.words],
                       measure))
    keyed = sorted((d.key(), w) for words, m in pieces for d, w in zip(m.domains, words))
    pasted = sorted((d.key(), w) for d, w in zip(measure_pp.domains, measure_pp.words))
    if len(keyed) == len(pasted) and all(
            a == b and _same_factor(group, u, v) for (a, u), (b, v) in zip(keyed, pasted)):
        return 0.0 <= tol, 0.0
    difference = 1.0  # the later piece's product times the earlier one's
    for words, measure in pieces:
        difference = difference * _word_product(group, range(len(k_pp)), words,
                                                 measure.q_tables)
    difference -= measure_pp.density_array()
    worst = float(np.max(np.abs(difference, out=difference)))
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# the lattice Gibbs density (evaluation only, no partition function)
# ---------------------------------------------------------------------------

def gibbs_density(cosurface, complex_: CellComplex, beta: float,
                  action: GroupFunction, plaquettes) -> float:
    """exp(-beta * sum over plaquettes of U(boundary holonomy)); U must be
    a class function (invariant action)."""
    if not is_class_function(action):
        raise ValueError("the action must be a class function")
    beta = _finite_nonnegative("coupling constant", beta)
    total = 0.0
    for plaq in plaquettes:
        word = boundary_word(plaq, complex_)
        total += action.values[cosurface.evaluate_word(complex_, word)]
    return math.exp(-beta * total)


# ---------------------------------------------------------------------------
# measure-valued series
# ---------------------------------------------------------------------------

def measure_series(groupoid, density: SemigroupDensity, order: int) -> FormalSeries:
    """The series assigning to each index its heat density at the index
    volume; multiplicative under composition because the family is a
    convolution semigroup."""
    coeffs = {elem: density.q(groupoid._ord(elem)) for elem in groupoid.elements_up_to(order)}
    return FormalSeries._trusted(groupoid, order, coeffs, delta(density.group))


def measure_series_multiplicativity(series: FormalSeries, tol=1e-12):
    """Worst |coefficient(i∘j) - coefficient(i) * coefficient(j)| over all
    composable pairs inside the truncation window, each distinct triple of
    coefficient objects (as a ``measure_series`` repeats q_t by volume) once."""
    _finite_nonnegative("tol", tol)
    gpd, coeffs, zero = series.groupoid, series.coeffs, series.zero_coeff
    elems, worst, seen = gpd.elements_up_to(series.order), 0.0, set()
    for i in elems:
        for j in elems:
            k = gpd._compose(i, j)
            if k is None or gpd._ord(k) > series.order:
                continue
            lhs, left, right = coeffs.get(k, zero), coeffs.get(i, zero), coeffs.get(j, zero)
            if (key := (id(lhs), id(left), id(right))) not in seen:
                seen.add(key)
                rhs = left * right
                worst = max(worst, max(abs(a - b) for a, b in zip(lhs.values, rhs.values)))
    return worst <= tol, worst
