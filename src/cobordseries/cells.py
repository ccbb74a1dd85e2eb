"""Oriented lattice box cells, ordered complexes, and group-valued cosurfaces.

A cell is an axis-aligned integer box of dimension k inside Z^d: a base
point, the k spanned axes, an extent per spanned axis, and an orientation
sign.  Facets follow the cubical boundary rule with alternating signs
(position i in the sorted axis list contributes (-1)^i on the upper side);
by default negative facets are initial and positive facets final, which can
be overridden per facet.  Reversing a cell flips the sign and swaps the
initial/final assignment.  Base coordinates, axes, extents and the sign are
Python ``int`` (``bool`` and floats are rejected) held in tuples, so every
cell lies on the integer lattice.  A cell is immutable, so it compiles its
``key`` and ``box`` at construction and its ``facets`` and ``unit_pieces`` on
the first call; facets and pieces skip re-validation, as a valid cell's are.

Every closed lattice box is the disjoint union of its open unit faces: the
boxes with (c, c) or (c, c + 1) on each axis.  The geometric predicates
are set questions about these faces.  Two cells overlap in their interiors
exactly when a face of one is an interior face of the other
(``is_regular``); a complex saturates its domains when the cells and the
domain facets have the same top-dimensional faces (``is_saturated``); and
cells of one dimension are adjacent when they share a facet box from
opposite sides (``region_components``); ``splits`` returns the two
components (M_plus, M_minus) of a region that a contiguous run of a
complex separates.  ``measures.is_adapted`` and ``measures.border_reduce``
ask the cobordism-border questions the same way.  Coverage and boundary
words are questions about unit pieces (top-dimensional faces), answered
through ``CellComplex.pieces``, which maps each unit piece of a complex to
the cells containing it.  A complex is immutable, so it compiles each
domain's boundary word and coverage, its own regularity, each split and each
domain tuple's saturation (``CellComplex.word``, ``.regular``, ``._split``,
``._saturated``) once.  A piece (``CellComplex._sub``, as returned by
``measures.cut``) is not re-validated; it takes over what its parent has
compiled (regularity; index and covered words renumbered), compiling the rest.

A complex is an ordered sequence of distinct cells of equal dimension; the
order is semantically relevant for every non-abelian product taken along
it.  The bridge between complexes and measures is ``boundary_word``: the
ordered, signed list of complex positions a domain boundary reads off.
``word_value`` evaluates such a word on one assignment of values (cosurface
extension, holonomy); ``measures.word_factor`` evaluates it on every
assignment at once, which gives the configuration densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod

from ._checks import _int_in, _int_spans


# ---------------------------------------------------------------------------
# box arithmetic (boxes are tuples of (lo, hi) per ambient axis, lo <= hi)
# ---------------------------------------------------------------------------

def box_intersect(a, b):
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def box_contains(outer, inner) -> bool:
    return all(olo <= ilo and ihi <= ohi
               for (olo, ohi), (ilo, ihi) in zip(outer, inner))


def box_dim(box) -> int:
    return sum(1 for lo, hi in box if hi > lo)


def _open_faces(box, interior=False):
    """The open unit faces of an integer box, in lexicographic order: boxes
    with (c, c) or (c, c + 1) on each axis, whose disjoint union is the
    closed box, or with ``interior`` its relative interior.  In doubled
    coordinates j, the faces along one axis are (j // 2, (j + 1) // 2)."""
    trim = 1 if interior else 0
    return product(*[[(j // 2, (j + 1) // 2)
                      for j in range(2 * lo + trim, 2 * hi + 1 - trim)]
                     if hi > lo else [(lo, lo)] for lo, hi in box])


def _unit_faces(box):
    """The top-dimensional open unit faces of an integer box (its unit
    pieces), in lexicographic order."""
    return product(*[[(c, c + 1) for c in range(lo, hi)] if hi > lo else [(lo, lo)]
                     for lo, hi in box])


def box_union(a, b):
    """Union of two boxes when it is again a box (shared full facet), else None."""
    diff_axes = [i for i, (ia, ib) in enumerate(zip(a, b)) if ia != ib]
    if len(diff_axes) != 1:
        return None if diff_axes else a
    ax = diff_axes[0]
    (alo, ahi), (blo, bhi) = a[ax], b[ax]
    if ahi == blo or bhi == alo:
        merged = list(a)
        merged[ax] = (min(alo, blo), max(ahi, bhi))
        return tuple(merged)
    return None


INITIAL = "initial"
FINAL = "final"


@dataclass(frozen=True)
class Cell:
    """Oriented box cell; ``labels`` overrides the default facet assignment.
    ``key``, ``box``, ``facets`` and unit pieces are compiled once; facets and unit
    pieces skip validation."""

    base: tuple
    axes: tuple
    extents: tuple
    sign: int = 1
    labels: tuple = field(default=(), compare=True)

    def __post_init__(self):
        if any(type(t) is not tuple for t in (self.base, self.axes, self.extents, self.labels)):
            raise ValueError("base, axes, extents and labels must be tuples")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        if any(type(x) is not int for x in (*self.base, *self.axes, *self.extents)):
            raise ValueError("base, axes and extents must be integers")
        if tuple(sorted(set(self.axes))) != tuple(self.axes):
            raise ValueError("axes must be sorted and distinct")
        if len(self.extents) != len(self.axes):
            raise ValueError("one extent per spanned axis")
        if any(e < 1 for e in self.extents):
            raise ValueError("extents must be >= 1")
        if any(not 0 <= a < len(self.base) for a in self.axes):
            raise ValueError("axis outside the ambient dimension")
        self._compile()
        keys = self.labels and [f.key() for f, _ in _trusted_cell(*self._key, self.sign).facets()]
        if any(type(p) is not tuple or len(p) != 2 or p[0] not in keys
               or p[1] not in (INITIAL, FINAL) for p in self.labels):
            raise ValueError(f"labels must pair facet keys with {INITIAL!r} or {FINAL!r}")

    def _compile(self):
        """Fixed-order stores, never through ``__dict__``: attribute reads stay fast."""
        spans = dict(zip(self.axes, self.extents))
        box = tuple((b, b + spans.get(a, 0)) for a, b in enumerate(self.base))
        object.__setattr__(self, "_key", (self.base, self.axes, self.extents))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_facets", None)
        object.__setattr__(self, "_pieces", None)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def volume(self) -> int:
        return prod(self.extents)

    def key(self):
        """Unoriented geometry key."""
        return self._key

    def box(self):
        return self._box

    def reverse(self) -> "Cell":
        swapped = tuple((k, FINAL if lbl == INITIAL else INITIAL)
                        for k, lbl in self.labels)
        return Cell(self.base, self.axes, self.extents, -self.sign, swapped)

    def facets(self):
        """All facet cells with their induced absolute sign and label."""
        if self._facets is None:
            out, overrides = [], dict(self.labels)
            for pos, axis in enumerate(self.axes):
                rest_axes = self.axes[:pos] + self.axes[pos + 1:]
                rest_exts = self.extents[:pos] + self.extents[pos + 1:]
                for upper in (0, 1):  # relative sign (-1)^pos upper, -(-1)^pos lower
                    base = list(self.base)
                    base[axis] += upper * self.extents[pos]
                    facet = _trusted_cell(tuple(base), rest_axes, rest_exts,
                                          self.sign * (-1) ** (pos + 1 - upper))
                    out.append((facet, overrides.get(facet._key)
                                or (INITIAL if facet.sign < 0 else FINAL)))
            object.__setattr__(self, "_facets", tuple(out))
        return self._facets

    def alpha(self):
        """Initial facets (each carried with its induced sign)."""
        return tuple(f for f, lbl in self.facets() if lbl == INITIAL)

    def beta(self):
        return tuple(f for f, lbl in self.facets() if lbl == FINAL)

    def with_labels(self, labels) -> "Cell":
        return Cell(self.base, self.axes, self.extents, self.sign,
                    tuple(sorted(labels)))

    def unit_pieces(self):
        """Decompose the box into unit cells of the same dimension and sign:
        its top-dimensional open faces, in lexicographic order (a new list of
        the cells compiled on the first call)."""
        if self._pieces is None:
            object.__setattr__(self, "_pieces", tuple(
                _trusted_cell(tuple(lo for lo, _ in face), self.axes, (1,) * self.dim, self.sign)
                for face in _unit_faces(self._box)))
        return list(self._pieces)

    def __repr__(self):
        spans = dict(zip(self.axes, self.extents))
        span = "x".join(f"{b}..{b + spans[a]}" if a in spans else str(b)
                        for a, b in enumerate(self.base))
        sgn = "+" if self.sign > 0 else "-"
        return f"Cell[{sgn}{span}]"


def _trusted_cell(base, axes, extents, sign) -> Cell:
    """Unlabelled ``Cell`` from valid fields (a facet or unit piece), unchecked."""
    cell = object.__new__(Cell)
    for name, value in (("base", base), ("axes", axes), ("extents", extents),
                        ("sign", sign), ("labels", ())):
        object.__setattr__(cell, name, value)
    cell._compile()
    return cell


def point_cell(base, sign=1) -> Cell:
    return Cell(tuple(base), (), (), sign)


def edge_cell(base, axis, sign=1) -> Cell:
    return Cell(tuple(base), (axis,), (1,), sign)


def domain_box(spans, sign=1) -> Cell:
    """Full box on the given per-axis spans; degenerate axes stay unspanned."""
    spans = _int_spans("box spans", spans, degenerate=True)
    base = tuple(lo for lo, hi in spans)
    axes = tuple(a for a, (lo, hi) in enumerate(spans) if hi > lo)
    extents = tuple(hi - lo for lo, hi in spans if hi > lo)
    return Cell(base, axes, extents, sign)


class CellComplex:
    """Ordered sequence of pairwise-distinct cells of one dimension."""

    _parent = None  # a piece's (parent, {parent position: own position})

    def __init__(self, cells):
        cells = tuple(cells)
        if len({c.dim for c in cells}) > 1:
            raise ValueError("complex cells must share one dimension")
        if len({c.key() for c in cells}) != len(cells):
            raise ValueError("complex cells must be pairwise distinct")
        self.cells = cells
        self._words, self._splits, self._saturates = {}, {}, {}

    @classmethod
    def _sub(cls, parent, positions):
        """The parent's cells at the increasing ``positions``: valid, so unvalidated."""
        piece = object.__new__(cls)
        piece.cells = tuple(parent.cells[pos] for pos in positions)
        piece._words, piece._splits, piece._saturates = {}, {}, {}
        piece._parent = parent, {pos: i for i, pos in enumerate(positions)}
        return piece

    @cached_property
    def pieces(self) -> dict:
        """Unit-piece index: each unit piece (box) of a cell mapped to the
        positions of the cells containing it, in complex order."""
        if self._parent and "pieces" in vars(self._parent[0]):
            parent, new = self._parent
            kept = ((face, tuple(new[p] for p in hits if p in new))
                    for face, hits in parent.pieces.items())
            return {face: hits for face, hits in kept if hits}
        pieces = {}
        for pos, cell in enumerate(self.cells):
            for face in _unit_faces(cell.box()):
                pieces[face] = pieces.get(face, ()) + (pos,)
        return pieces

    @cached_property
    def regular(self) -> bool:
        """``is_regular`` of the cells, true of every piece of a regular complex."""
        return bool(self._parent and vars(self._parent[0]).get("regular")) or is_regular(self.cells)

    def word(self, domain: Cell, need_cover=False) -> tuple:
        """``boundary_word`` as a tuple, compiled once per domain, or renumbered from the
        parent's when it is covered and the piece keeps its cells; failures are not cached."""
        entry = self._words.get(domain)
        if entry is None and self._parent:
            parent, new = self._parent
            word, covered = parent._words.get(domain, ((), False))
            if covered and all(pos in new for pos, _ in word):
                entry = self._words[domain] = tuple((new[p], e) for p, e in word), True
        if entry is None or (need_cover and not entry[1]):
            entry = self._words[domain] = _compile_word(domain, self, need_cover)
        return entry[0]

    def _split(self, lo, hi, domains):
        """``splits`` of cells[lo:hi+1] over the unit pieces of the domains (a tuple),
        once per (lo, hi, domains); lo and hi are checked first, as True hashes like 1."""
        _int_in("hi", hi, _int_in("lo", lo, 0, len(self) - 1), len(self) - 1)
        key = lo, hi, domains
        if key not in self._splits:
            self._splits[key] = splits(self, lo, hi, [piece for dom in domains
                                                      for piece in dom.unit_pieces()])
        return self._splits[key]

    def _saturated(self, domains):
        """``is_saturated`` of the domains (a tuple of cells), once per tuple; one hash a hit."""
        if (verdict := self._saturates.get(domains)) is None:
            verdict = self._saturates[domains] = is_saturated(self, domains)
        return verdict

    def __reduce__(self):  # pickled as the plain complex of its cells: no parent, no cache
        return CellComplex, (self.cells,)

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __getitem__(self, i):
        return self.cells[i]

    def __eq__(self, other):
        return isinstance(other, CellComplex) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"CellComplex({list(self.cells)!r})"


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_regular(cells) -> bool:
    """The cells (a complex or any sequence of cells) meet only along shared
    boundary pieces: no face of one cell is an interior face of another."""
    if isinstance(cells, CellComplex):
        return cells.regular
    boxes = [cell.box() for cell in cells]
    owner = {face: i for i, box in enumerate(boxes)
             for face in _open_faces(box, interior=True)}
    return all(owner.get(face, i) == i
               for i, box in enumerate(boxes) for face in _open_faces(box))


def covers(target_box, pieces) -> bool:
    """Every unit piece of the target box is one of ``pieces``: a complex's
    ``pieces`` index or the ``_unit_boxes`` of some cells."""
    return all(face in pieces for face in _unit_faces(target_box))


def _unit_boxes(cells):
    """Boxes of the cells' unit pieces."""
    return {face for cell in cells for face in _unit_faces(cell.box())}


def _complex_domains(complex_, domains) -> tuple:
    """The domains as a tuple, if ``complex_`` is a CellComplex and each domain a Cell."""
    if not isinstance(complex_, CellComplex):
        raise ValueError(f"complex_ must be a CellComplex, not {complex_!r}")
    cells = tuple(domains) if hasattr(domains, "__iter__") else None
    if cells is None or not all(isinstance(d, Cell) for d in cells):
        raise ValueError(f"domains must be an iterable of Cells, not {domains!r}")
    return cells


def is_saturated(complex_: CellComplex, domains) -> bool:
    """The cells exactly tile the boundaries of the (pairwise interior-
    disjoint) domain boxes: every domain is one dimension above the cells,
    both are regular, and the cells and the domain facets have the same
    unit pieces."""
    domains = _complex_domains(complex_, domains)
    dims = {c.dim for c in complex_.cells} | {d.dim - 1 for d in domains}
    if len(dims) > 1 or not (is_regular(complex_) and is_regular(domains)):
        return False
    return complex_.pieces.keys() == _unit_boxes(f for dom in domains for f, _ in dom.facets())


def region_components(region_cells, blocked_boxes):
    """Connected components of box cells of one dimension (a region's unit
    top cells, or a domain's border fragments), each in input order; two
    cells are adjacent when they share a facet not contained in a blocked
    box.

    Each facet box lists the cells it bounds by side: the cell's axis
    across the facet and the end of that axis the facet sits at.  Cells on
    one side overlap rather than meet, so a facet joins its cells only when
    they lie on two sides."""
    region = list(region_cells)
    sides = {}
    for i, cell in enumerate(region):
        box = cell.box()
        for axis in cell.axes:
            for upper, end in enumerate(box[axis]):
                facet = box[:axis] + ((end, end),) + box[axis + 1:]
                sides.setdefault(facet, {}).setdefault((axis, upper), []).append(i)
    parent = list(range(len(region)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for facet, by_side in sides.items():
        if len(by_side) < 2 or any(box_contains(b, facet) for b in blocked_boxes):
            continue
        first, *rest = [i for members in by_side.values() for i in members]
        for i in rest:
            parent[find(i)] = find(first)
    groups = {}
    for i in range(len(region)):
        groups.setdefault(find(i), []).append(region[i])
    return list(groups.values())


def splits(complex_: CellComplex, lo: int, hi: int, region):
    """The two components (M_plus, M_minus) into which the contiguous
    subcomplex cells[lo:hi+1] separates the region, with the after cells on
    the plus side and the before cells on the minus side, or None.  The
    region is a list of top-dimensional unit cells (one dimension above the
    complex cells); lo and hi are ints, never bools."""
    _int_in("hi", hi, _int_in("lo", lo, 0, len(complex_) - 1), len(complex_) - 1)
    comps = region_components(region, [c.box() for c in complex_.cells[lo:hi + 1]])
    if len(comps) != 2:
        return None
    before, after = complex_.cells[:lo], complex_.cells[hi + 1:]
    closures = [{face for c in comp for face in _open_faces(c.box())} for comp in comps]
    fits_before, fits_after = ([i for i, faces in enumerate(closures) if pieces <= faces]
                               for pieces in (_unit_boxes(before), _unit_boxes(after)))
    for minus_idx in (fits_before if before else (0, 1)):
        for plus_idx in (fits_after if after else (0, 1)):
            if minus_idx != plus_idx:
                return tuple(comps[plus_idx]), tuple(comps[minus_idx])
    return None


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

class Composite:
    """Ordered gluing of cells whose union is not a box; embedded point set."""

    def __init__(self, parts, alpha, beta):
        parts = tuple(parts)
        if not is_regular(parts):
            raise ValueError("composite point set must be embedded")
        self.parts = parts
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)

    def __repr__(self):
        return f"Composite({list(self.parts)!r})"


def glue(s1, s2, mode="*"):
    """Glue two cells along the facet boxes they share; returns a Cell (box
    union), a Composite, or None.

    Mode "v" shares the facets of opposite induced orientation, mode "*" those
    of alpha(s1) ∩ beta(s2).  Without the shared boxes, the new initial part is
    alpha(s2) then alpha(s1) in mode "*" (alpha(s1) then alpha(s2) in mode
    "v"), and the new final part beta(s1) then beta(s2).
    """
    if mode not in ("*", "v"):
        raise ValueError("mode must be '*' or 'v'")
    if s1.dim != s2.dim:
        return None
    if mode == "v":
        initial_first, accept = (s1, s2), lambda f1, l1, f2, l2: f1.sign == -f2.sign
    else:
        initial_first, accept = (s2, s1), lambda f1, l1, f2, l2: l1 == INITIAL and l2 == FINAL
    shared = _matching_facets(s1, s2, accept)
    if not shared:
        return None
    alpha = [f for s in initial_first for f in s.alpha() if f.key() not in shared]
    beta = [f for s in (s1, s2) for f in s.beta() if f.key() not in shared]
    union = box_union(s1.box(), s2.box())
    if union is not None and s1.sign == s2.sign:
        boxed = _labelled_box(union, s1.sign, alpha, beta)
        if boxed is not None:
            return boxed
    try:
        return Composite((s1, s2), alpha, beta)
    except ValueError:
        return None


def _matching_facets(s1: Cell, s2: Cell, accept):
    """Keys of the facet boxes of s1 and s2 that coincide and pass ``accept``."""
    f2map = {f2.key(): (f2, l2) for f2, l2 in s2.facets()}
    return {f1.key() for f1, l1 in s1.facets()
            if f1.key() in f2map and accept(f1, l1, *f2map[f1.key()])}


def _labelled_box(union_box, sign, alpha, beta):
    """Box cell with facet labels read off the alpha/beta piece lists, or
    None when some facet mixes both labels (the union is not a plain box
    cobordism)."""
    cell = domain_box(union_box, sign)
    alpha_pieces, beta_pieces = _unit_boxes(alpha), _unit_boxes(beta)
    labels = []
    for facet, default_lbl in cell.facets():
        in_alpha = covers(facet.box(), alpha_pieces)
        in_beta = covers(facet.box(), beta_pieces)
        if in_alpha == in_beta:
            return None
        lbl = INITIAL if in_alpha else FINAL
        if lbl != default_lbl:
            labels.append((facet.key(), lbl))
    return cell.with_labels(labels)


# ---------------------------------------------------------------------------
# boundary words and cosurfaces
# ---------------------------------------------------------------------------

def boundary_word(domain: Cell, complex_: CellComplex):
    """Ordered signed word the domain boundary reads along the complex.

    Returns [(position, exponent)] in complex order: exponent +1 when the
    listed cell's orientation agrees with the induced boundary orientation
    of the domain, -1 when opposite.  The cells are the ones the facets'
    unit pieces find in ``complex_.pieces``; each must lie inside the facet
    it was found from, else it is partially on the boundary and raises
    (non-adapted).  The cells must be one dimension below the domain.  Each
    call gets a new list of the word the complex compiled once.
    """
    return list(complex_.word(domain))


def _compile_word(domain: Cell, complex_: CellComplex, need_cover: bool):
    """(word tuple, whether the complex covers the boundary) from one facet
    pass.  Raises, in this order, for an uncovered boundary when
    ``need_cover``, for cells of the wrong dimension or partially on it."""
    found, covered = {}, True
    for facet, _ in domain.facets():
        for face in _unit_faces(facet.box()):
            hits = complex_.pieces.get(face, ())
            covered = covered and bool(hits)
            for pos in hits:
                found[pos] = facet
    if need_cover and not covered:
        raise ValueError(f"boundary of {domain!r} is not covered by the complex")
    if complex_.cells and complex_.cells[0].dim != domain.dim - 1:
        raise ValueError(f"boundary words of {domain!r} read cells of dimension "
                         f"{domain.dim - 1}, not {complex_.cells[0].dim}")
    word = []
    for pos in sorted(found):
        cell = complex_.cells[pos]
        if not box_contains(found[pos].box(), cell.box()):
            raise ValueError(
                f"cell {cell!r} lies partially on the boundary of {domain!r}")
        word.append((pos, 1 if cell.sign == found[pos].sign else -1))
    return tuple(word), covered


def word_value(group, word, values) -> int:
    """Ordered product of values[pos] ** exp along a signed word
    [(pos, +-1)]; ``values`` is indexed by the word's positions."""
    table, inv = group.table, group.inv_table
    out = group.identity
    for pos, exp in word:
        value = values[pos]
        out = table[out][value if exp > 0 else inv[value]]
    return out


class Cosurface:
    """Group-valued assignment on oriented cells: value(reversed) = inverse.

    Values are stored for the positively oriented representative of each
    generating cell; evaluation on composites multiplies in the given
    order.
    """

    def __init__(self, group, assignments):
        self.group = group
        values = {}
        for cell, value in assignments:
            _int_in("value", value, 0, group.order - 1)
            stored = value if cell.sign > 0 else group.inv_table[value]
            if values.setdefault(cell.key(), stored) != stored:
                raise ValueError(f"conflicting values for {cell!r}")
        self.values = values

    def value(self, cell: Cell) -> int:
        if cell.key() not in self.values:
            raise ValueError(f"no value assigned on {cell!r}")
        v = self.values[cell.key()]
        return v if cell.sign > 0 else self.group.inv_table[v]

    def evaluate_word(self, complex_: CellComplex, word) -> int:
        """Ordered product of the word's cell values, cell signs folded into
        the exponents; only the cells the word reads need a value."""
        cells = complex_.cells
        signed = [(cells[pos].key(), exp * cells[pos].sign) for pos, exp in word]
        try:
            return word_value(self.group, signed, self.values)
        except KeyError:
            for pos, _ in word:
                self.value(cells[pos])  # raises on the first unassigned cell
            raise


def holonomy_cosurface(field: Cosurface, path) -> int:
    """Holonomy read against the path orientation: the path is reversed
    (each edge flipped, order inverted) and the field values are multiplied
    in traversal order; reversing the path inverts the result."""
    values = [field.value(edge) for edge in path]
    word = [(i, -1) for i in reversed(range(len(values)))]
    return word_value(field.group, word, values)


def dimension_extend(cosurface: Cosurface, complex_: CellComplex, domain: Cell) -> int:
    """Value on a (k+1)-cell as the ordered product of the boundary word,
    which the complex must cover."""
    return cosurface.evaluate_word(complex_, complex_.word(domain, need_cover=True))


def extend_abelian(cosurface: Cosurface, complex_: CellComplex, domains) -> Cosurface:
    """Dimension extension for abelian groups: ``extend_nonabelian`` with no extra cells."""
    if not cosurface.group.is_abelian:
        raise ValueError("extend_abelian requires an abelian group")
    return extend_nonabelian(cosurface, complex_, domains)


def extend_nonabelian(cosurface: Cosurface, complex_: CellComplex, domains,
                      center_assignment=None) -> Cosurface:
    """Dimension extension with central values on cells outside the complex.

    ``center_assignment`` maps extra k-cells (not in the complex) to central
    group elements; the default assigns the identity.  Domains whose
    boundary needs an unassigned, uncovered cell raise.
    """
    group, extended, full = cosurface.group, cosurface, complex_
    if center_assignment:
        center = set(group.center())
        for cell, value in center_assignment.items():
            if value not in center:
                raise ValueError(f"value {value} for {cell!r} is not central")
        extended = Cosurface(group, center_assignment.items())
        extended.values.update(cosurface.values)
        full = CellComplex(complex_.cells + tuple(center_assignment))
    pairs = [(dom, dimension_extend(extended, full, dom)) for dom in domains]
    return Cosurface(group, pairs)
