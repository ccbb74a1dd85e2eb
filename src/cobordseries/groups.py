"""Finite groups given by Cayley tables, and the function algebra on them.

Elements are integers 0..n-1 with 0 the identity.  The group law is
validated on construction, so a FiniteGroup that exists is a group, and its
inverse table is read off the validated table (where 0 sits in each row).
Functions G -> scalar are represented densely; their product is group
convolution with the counting measure, (f*g)(x) = sum_y f(x y^-1) g(y),
whose unit is the indicator of e.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from ._checks import _int_in


class FiniteGroup:
    """A finite group: order, labels, multiplication table, inverses, classes."""

    def __init__(self, name, table, labels=None):
        self.name = str(name)
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        n = self.order
        if n == 0:
            raise ValueError("group must be non-empty")
        if any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be square")
        if any(type(x) is not int or not 0 <= x < n for row in self.table for x in row):
            raise ValueError("Cayley table entries must be int element indices")
        if labels is None:
            labels = [str(i) for i in range(n)]
        self.labels = tuple(str(x) for x in labels)
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ValueError("labels must be distinct and match the order")
        self._validate()
        self.inv_table = tuple(row.index(0) for row in self.table)
        self._classes = None
        self._abelian = None

    def _validate(self):
        n = self.order
        t = self.table
        if any(t[0][a] != a or t[a][0] != a for a in range(n)):
            raise ValueError("element 0 must be the identity")
        for a in range(n):
            if len(set(t[a])) != n or len({t[x][a] for x in range(n)}) != n:
                raise ValueError("Cayley table rows/columns must be permutations")
        for a in range(n):
            for b in range(n):
                tab = t[a][b]
                for c in range(n):
                    if t[tab][c] != t[a][t[b][c]]:
                        raise ValueError("Cayley table is not associative")

    def mul(self, a: int, b: int) -> int:
        n = self.order - 1
        return self.table[_int_in("a", a, 0, n)][_int_in("b", b, 0, n)]

    def inv(self, a: int) -> int:
        return self.inv_table[_int_in("a", a, 0, self.order - 1)]

    @property
    def identity(self) -> int:
        return 0

    def elements(self):
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(t[a][b] == t[b][a]
                                for a in range(self.order) for b in range(a))
        return self._abelian

    def conjugacy_classes(self):
        """Partition of elements into conjugacy classes, identity class first."""
        if self._classes is None:
            seen = set()
            classes = []
            for a in self.elements():
                if a in seen:
                    continue
                orbit = {self.table[self.table[g][a]][self.inv_table[g]]
                         for g in self.elements()}
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    def center(self):
        t = self.table
        return tuple(a for a in self.elements()
                     if all(t[a][b] == t[b][a] for b in self.elements()))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    """Z_n with additive notation, element k labelled by its residue."""
    _int_in("cyclic group order", n, 1)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"Z{n}", table, labels=[str(k) for k in range(n)])


def symmetric3() -> FiniteGroup:
    """S_3 on {0,1,2}; element 0 is the identity, 1..3 transpositions."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    # (p q)(x) = p(q(x))
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    labels = ["e", "(01)", "(02)", "(12)", "(012)", "(021)"]
    return FiniteGroup("S3", table, labels=labels)


def quaternion8() -> FiniteGroup:
    """Q_8 = {1, -1, i, -i, j, -j, k, -k} in that element order: the signed
    unit quaternions, as (w, x, y, z) coordinate tuples, under the Hamilton
    product."""
    units = [tuple(sign * (a == axis) for a in range(4))
             for axis in range(4) for sign in (1, -1)]

    def hamilton(p, q):
        (a, b, c, d), (e, f, g, h) = p, q
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    table = [[units.index(hamilton(p, q)) for q in units] for p in units]
    return FiniteGroup("Q8", table, labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


_BUILTIN_CACHE: dict[str, FiniteGroup] = {}


def builtin_group(name: str) -> FiniteGroup:
    """Look up Z2..Z12, S3, Q8 by name (case-insensitive)."""
    if type(name) is not str:
        raise ValueError(f"a group name is a str, not {name!r}")
    key = name.strip().upper()
    if key not in _BUILTIN_CACHE:
        if key.startswith("Z") and key[1:].isdigit():
            n = int(key[1:])
            if not 2 <= n <= 12:
                raise ValueError("built-in cyclic groups cover Z2..Z12")
            _BUILTIN_CACHE[key] = cyclic(n)
        elif key == "S3":
            _BUILTIN_CACHE[key] = symmetric3()
        elif key == "Q8":
            _BUILTIN_CACHE[key] = quaternion8()
        else:
            raise ValueError(f"unknown group {name!r}")
    return _BUILTIN_CACHE[key]


def load_cayley_file(path) -> FiniteGroup:
    """Load a group from a JSON document with fields order/labels/table[/inverses]."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a Cayley table file holds a JSON object, not {doc!r}")
    unknown = set(doc) - {"name", "order", "labels", "table", "inverses"}
    if unknown:
        raise ValueError(f"unknown fields in Cayley table file: {sorted(unknown)}")
    for field in ("order", "labels", "table"):
        if field not in doc:
            raise ValueError(f"Cayley table file is missing field {field!r}")
    order = doc["order"]
    if type(order) is not int:
        raise ValueError(f"declared order must be an int, not {order!r}")
    table, labels = doc["table"], doc["labels"]
    if not isinstance(table, list) or any(not isinstance(row, list) for row in table):
        raise ValueError(f"table must be a list of lists, not {table!r}")
    if not isinstance(labels, list) or any(type(x) is not str for x in labels):
        raise ValueError(f"labels must be a list of strings, not {labels!r}")
    if len(table) != order:
        raise ValueError("table size does not match declared order")
    name = doc.get("name", Path(path).stem)
    if type(name) is not str:
        raise ValueError(f"name must be a string, not {name!r}")
    group = FiniteGroup(name, table, labels=labels)
    if "inverses" in doc:
        declared = doc["inverses"]
        if not isinstance(declared, list) or any(type(x) is not int for x in declared):
            raise ValueError(f"declared inverses must be a list of ints, not {declared!r}")
        if tuple(declared) != group.inv_table:
            raise ValueError("declared inverses are inconsistent with the table")
    return group


class GroupFunction:
    """A function G -> scalar; the algebra product is counting convolution,
    with unit 1_e.  Values may be exact (int/Fraction) or float.
    """

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(values)
        if len(values) != group.order:
            raise ValueError("value vector length must equal the group order")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GroupFunction is immutable")

    def __call__(self, g: int):
        return self.values[_int_in("g", g, 0, self.group.order - 1)]

    def _check_compatible(self, other):
        if self.group != other.group:
            raise ValueError("group mismatch")

    def __add__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        self._check_compatible(other)
        return GroupFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        self._check_compatible(other)
        return GroupFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return GroupFunction(self.group, tuple(-a for a in self.values))

    def __mul__(self, other):
        if isinstance(other, GroupFunction):
            return convolve(self, other)
        if type(other) is bool:
            raise ValueError("cannot scale a group function by a bool")
        if isinstance(other, (int, float, Fraction)):
            return GroupFunction(self.group, tuple(a * other for a in self.values))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GroupFunction):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.values))

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        vals = ", ".join(f"{lbl}:{v}" for lbl, v in zip(self.group.labels, self.values))
        return f"GroupFunction[{self.group.name}]({vals})"


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = sum_y f(x y^-1) g(y)."""
    f._check_compatible(g)
    grp = f.group
    out = tuple(sum(f.values[grp.table[x][grp.inv_table[y]]] * g.values[y]
                    for y in grp.elements())
                for x in grp.elements())
    return GroupFunction(grp, out)


def delta(group: FiniteGroup, g: int = 0) -> GroupFunction:
    """The convolution unit translated to g: the indicator of g."""
    _int_in("g", g, 0, group.order - 1)
    return GroupFunction(group, tuple(1 if x == g else 0 for x in group.elements()))


def is_class_function(f: GroupFunction) -> bool:
    return all(len({f.values[x] for x in cls}) == 1
               for cls in f.group.conjugacy_classes())
