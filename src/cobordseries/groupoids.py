"""Graded index groupoids: partial composition, additive grade, unique neutral.

Three concrete instances are provided:

* ``NatMonoid``        — natural numbers under addition (elements are ints,
                         neutral is 0).
* ``IntervalGroupoid`` — integer intervals [a', b'] inside a window, composed
                         by endpoint matching: compose(i, j) glues j (earlier)
                         to i (later) when the initial point of i equals the
                         final point of j.
* ``BoxGroupoid``      — axis-aligned integer boxes inside a window, composed
                         by stacking along a designated axis when the shared
                         full face matches exactly.

Every instance satisfies: grade 0 only at the neutral element, grade
additivity, associativity (if either nested composite is defined, both are
and they agree), and absence of inverses.  Each k is i o j in finitely many
ways, since both factors lie in the finite window of grades up to ord(k).

All three test integer coordinates with ``type(x) is int`` (``bool`` is an
``int`` subclass but never an element): inline in the membership check every
``ord``/``compose`` makes, through ``_checks`` (each scalar input rule stated
once) for the windows, the axis and the grade bound.

``compose`` and ``ord`` validate their arguments and delegate to ``_compose``
and ``_ord``, the same maps unchecked, which an instance implements; callers
whose elements are known members (series supports, window elements) call those.
``axiom_violations`` reads the public maps, so an override is checked as it
behaves, and tests associativity only where a nested composite can be defined.
"""

from __future__ import annotations

from itertools import product as iter_product

from ._checks import _int_in, _int_spans


class _Neutral:
    """Shared neutral element for the interval and box groupoids."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "e"


NEUTRAL = _Neutral()


class GradedGroupoid:
    """Base interface; instances are immutable and safe to share."""

    name = "groupoid"

    @property
    def neutral(self):
        raise NotImplementedError

    def __contains__(self, element) -> bool:
        raise NotImplementedError

    def ord(self, element) -> int:
        """Grade of an element; raises ValueError on elements outside the groupoid."""
        self._require(element)
        return self._ord(element)

    def _ord(self, element) -> int:
        """``ord`` of a member, without checking that it is one."""
        raise NotImplementedError

    def compose(self, i, j):
        """i after j, validated; returns the composite or None when undefined."""
        self._require(i)
        self._require(j)
        return self._compose(i, j)

    def _compose(self, i, j):
        """``compose`` on two members, without checking that they are."""
        raise NotImplementedError

    def elements_up_to(self, max_grade: int):
        """All elements of grade <= max_grade, neutral first, grade-sorted;
        max_grade must be an int (not a bool) >= 0."""
        raise NotImplementedError

    def element_id(self, element) -> str:
        """Stable string id used in serialized series."""
        raise NotImplementedError

    def _require(self, element):
        if element not in self:
            raise ValueError(f"{element!r} is not an element of {self.name}")


class NatMonoid(GradedGroupoid):
    """(N, +) with grade the number itself; composition is total."""

    name = "nat"

    @property
    def neutral(self):
        return 0

    def __contains__(self, element):
        return type(element) is int and element >= 0

    def _ord(self, element):
        return element

    def _compose(self, i, j):
        return i + j

    def elements_up_to(self, max_grade):
        return list(range(_int_in("grade bound", max_grade) + 1))

    def element_id(self, element):
        return f"n:{element}"

    def __eq__(self, other):
        return isinstance(other, NatMonoid)

    def __hash__(self):
        return hash("nat")

    def __repr__(self):
        return "NatMonoid()"


class IntervalGroupoid(GradedGroupoid):
    """Integer intervals (a', b') with a <= a' < b' <= b inside window (a, b).

    An interval runs from its initial point a' to its final point b'; the
    grade is the length b' - a'.  compose(i, j) is defined when the initial
    point of i equals the final point of j (j happens first).
    """

    def __init__(self, a: int, b: int):
        (self.window,) = _int_spans("interval window", ((a, b),))
        self.name = f"interval:{a}..{b}"

    @property
    def neutral(self):
        return NEUTRAL

    def __contains__(self, element):
        if element is NEUTRAL:
            return True
        if not (isinstance(element, tuple) and len(element) == 2):
            return False
        a, b = self.window
        lo, hi = element
        return type(lo) is int and type(hi) is int and a <= lo < hi <= b

    def _ord(self, element):
        if element is NEUTRAL:
            return 0
        return element[1] - element[0]

    def _compose(self, i, j):
        if i is NEUTRAL:
            return j
        if j is NEUTRAL:
            return i
        if i[0] != j[1]:
            return None
        return (j[0], i[1])

    def elements_up_to(self, max_grade):
        a, b = self.window
        max_grade, out = _int_in("grade bound", max_grade), [NEUTRAL]
        for lo in range(a, b):
            for hi in range(lo + 1, min(b, lo + max_grade) + 1):
                out.append((lo, hi))
        out.sort(key=lambda x: (self._ord(x), (0, 0) if x is NEUTRAL else x))
        return out

    def element_id(self, element):
        if element is NEUTRAL:
            return "e"
        return f"i:{element[0]}..{element[1]}"

    def __eq__(self, other):
        return isinstance(other, IntervalGroupoid) and self.window == other.window

    def __hash__(self):
        return hash(("interval", self.window))

    def __repr__(self):
        return f"IntervalGroupoid{self.window}"


class BoxGroupoid(GradedGroupoid):
    """Axis-aligned integer boxes in a window, graded by cell-count volume.

    A box is a tuple of per-axis (lo, hi) pairs with lo < hi.  Composition
    stacks along ``axis``: compose(i, j) is defined when the lower face of i
    along that axis equals the upper face of j exactly (all other axes have
    identical extents), the face-matching form of the cut-into-two-pieces
    condition.  Restricting the gluing to one designated axis is what keeps
    the partial composition associative in the strong sense.
    """

    def __init__(self, window, axis: int = 0):
        self.window = window = _int_spans("box window spans", window)
        self.dim = len(window)
        self.axis = _int_in("composition axis", axis, 0, self.dim - 1)  # an empty window has none
        spans = "x".join(f"{lo}..{hi}" for lo, hi in window)
        self.name = f"box:{self.dim}:{spans}"

    @property
    def neutral(self):
        return NEUTRAL

    def __contains__(self, element):
        if element is NEUTRAL:
            return True
        if not (isinstance(element, tuple) and len(element) == self.dim):
            return False
        for (lo, hi), (wlo, whi) in zip(element, self.window):
            if not (type(lo) is int and type(hi) is int and wlo <= lo < hi <= whi):
                return False
        return True

    def _ord(self, element):
        if element is NEUTRAL:
            return 0
        vol = 1
        for lo, hi in element:
            vol *= hi - lo
        return vol

    def _compose(self, i, j):
        if i is NEUTRAL:
            return j
        if j is NEUTRAL:
            return i
        t = self.axis
        if j[t][1] != i[t][0]:
            return None
        for a in range(self.dim):
            if a != t and i[a] != j[a]:
                return None
        merged = list(i)
        merged[t] = (j[t][0], i[t][1])
        return tuple(merged)

    def elements_up_to(self, max_grade):
        max_grade, out = _int_in("grade bound", max_grade), [NEUTRAL]
        ranges = [[(lo2, hi2) for lo2 in range(lo, hi) for hi2 in range(lo2 + 1, hi + 1)]
                  for lo, hi in self.window]
        for combo in iter_product(*ranges):
            if self._ord(combo) <= max_grade:
                out.append(combo)
        out.sort(key=lambda x: (self._ord(x), () if x is NEUTRAL else x))
        return out

    def element_id(self, element):
        if element is NEUTRAL:
            return "e"
        return "b:" + "x".join(f"{lo}..{hi}" for lo, hi in element)

    def __eq__(self, other):
        return (isinstance(other, BoxGroupoid)
                and self.window == other.window and self.axis == other.axis)

    def __hash__(self):
        return hash(("box", self.window, self.axis))

    def __repr__(self):
        return f"BoxGroupoid({self.window}, axis={self.axis})"


def make_nat_monoid() -> NatMonoid:
    return NatMonoid()


def make_interval_groupoid(a: int, b: int) -> IntervalGroupoid:
    return IntervalGroupoid(a, b)


def make_box_groupoid(dim: int, window, axis: int = 0) -> BoxGroupoid:
    window = tuple(window)
    if len(window) != _int_in("dim", dim, 1):
        raise ValueError("window must provide one span per axis")
    return BoxGroupoid(window, axis=axis)


def from_spec(text: str) -> GradedGroupoid:
    """Parse 'nat', 'interval:a..b', or 'box:d:a..bxc..d,...' (axes comma- or x-separated);
    a spec that is not a str, or does not parse, raises ValueError naming it."""
    if not isinstance(text, str):
        raise ValueError(f"groupoid spec must be a str, not {text!r}")
    spec = text.strip()
    if spec == "nat":
        return NatMonoid()
    try:
        if spec.startswith("interval:"):
            a, b = spec[len("interval:"):].split("..")
            return IntervalGroupoid(int(a), int(b))
        if spec.startswith("box:"):
            dim_str, _, spans = spec[len("box:"):].partition(":")
            parts = spans.replace(",", "x").split("x")
            window = tuple(tuple(int(v) for v in part.split("..")) for part in parts)
            return make_box_groupoid(int(dim_str), window)
    except ValueError as exc:  # a bad count of fields, a non-integer bound, a bad window
        raise ValueError(f"malformed groupoid spec {text!r}: {exc}") from None
    raise ValueError(f"unknown groupoid spec {text!r}")


def axiom_violations(groupoid: GradedGroupoid, max_grade: int) -> list[str]:
    """Exhaustively check the groupoid laws up to a grade bound.

    Returns human-readable violation strings (empty means all laws hold):
    neutral laws, grade additivity, strong associativity and absence of
    inverses.  The laws read one table of the public ``compose`` on all
    pairs of window elements.  A triple (i, j, k) is visited where the table
    defines j o k or (i o j) o k, and for every k where i o j lies outside the
    window (its composites then taken afresh); any other triple has both nested
    composites undefined, so it cannot fail.  Violations come in (i, j, k)
    window order, as if every triple were visited.
    """
    bad = []
    e = groupoid.neutral
    elems = groupoid.elements_up_to(max_grade)
    compose = groupoid.compose
    table = {i: {j: compose(i, j) for j in elems} for i in elems}
    if groupoid.ord(e) != 0:
        bad.append("neutral element has nonzero grade")
    for i in elems:
        if groupoid.ord(i) == 0 and i != e and i is not e:
            bad.append(f"grade-0 element {i!r} differs from the neutral element")
        if compose(e, i) != i or compose(i, e) != i:
            bad.append(f"neutral law fails at {i!r}")
    for i in elems:
        for j, k in table[i].items():
            if k is None:
                continue
            if groupoid.ord(k) != groupoid.ord(i) + groupoid.ord(j):
                bad.append(f"grade not additive on ({i!r}, {j!r})")
            if k == e and not (i == e and j == e):
                bad.append(f"unexpected inverse pair ({i!r}, {j!r})")
    pos = {x: n for n, x in enumerate(elems)}
    after = {x: [k for k, xk in row.items() if xk is not None] for x, row in table.items()}
    for i in elems:
        row_i = table[i]
        for j, ij in row_i.items():
            row_ij, row_j = table.get(ij), table[j]
            ks = (after[j] if ij is None else elems if row_ij is None
                  else sorted({*after[j], *after[ij]}, key=pos.__getitem__))
            for k in ks:
                jk = row_j[k]
                left = None if ij is None else row_ij[k] if row_ij is not None else compose(ij, k)
                right = None if jk is None else row_i[jk] if jk in row_i else compose(i, jk)
                if (left is None) != (right is None) or left != right:
                    bad.append(f"associativity fails on ({i!r}, {j!r}, {k!r})")
    return bad
