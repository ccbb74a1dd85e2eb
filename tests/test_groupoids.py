import re
from collections import Counter

import pytest

from cobordseries.groupoids import (
    NEUTRAL, BoxGroupoid, IntervalGroupoid, axiom_violations, from_spec,
    make_box_groupoid, make_interval_groupoid, make_nat_monoid,
)


def test_ord_neutral_is_zero():
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 3),
                make_box_groupoid(2, ((0, 2), (0, 2)))):
        assert gpd.ord(gpd.neutral) == 0


def test_ord_interval_is_length():
    gpd = make_interval_groupoid(0, 3)
    assert gpd.ord((0, 3)) == 3


def test_ord_box_is_volume():
    gpd = make_box_groupoid(2, ((0, 2), (0, 3)))
    assert gpd.ord(((0, 2), (0, 3))) == 6


def test_ord_rejects_foreign_elements():
    gpd = make_interval_groupoid(0, 3)
    with pytest.raises(ValueError):
        gpd.ord((0, 5))
    with pytest.raises(ValueError):
        gpd.ord("nonsense")


def test_compose_interval_endpoint_matching():
    gpd = make_interval_groupoid(0, 5)
    assert gpd.compose((2, 5), (0, 2)) == (0, 5)
    assert gpd.compose((0, 2), (3, 5)) is None
    assert gpd.compose(NEUTRAL, (0, 2)) == (0, 2)
    assert gpd.compose((0, 2), NEUTRAL) == (0, 2)


def test_bools_are_not_elements():
    nat = make_nat_monoid()
    interval = make_interval_groupoid(0, 3)
    box = make_box_groupoid(2, ((0, 2), (0, 2)))
    assert True not in nat and False not in nat
    assert (True, 2) not in interval and (0, True) not in interval
    assert ((False, 1), (0, 1)) not in box
    with pytest.raises(ValueError):
        nat.ord(True)
    with pytest.raises(ValueError):
        nat.compose(True, True)
    with pytest.raises(ValueError):
        interval.ord((True, 2))
    with pytest.raises(ValueError):
        interval.compose((1, 2), (False, 1))
    with pytest.raises(ValueError):
        box.ord(((False, 1), (0, 1)))
    with pytest.raises(ValueError):
        make_interval_groupoid(False, 3)


def test_compose_nat():
    gpd = make_nat_monoid()
    assert gpd.compose(2, 3) == 5
    assert gpd.compose(0, 7) == 7


def test_box_full_face_composition():
    gpd = make_box_groupoid(2, ((0, 2), (0, 2)))
    tall_left = ((0, 1), (0, 2))
    tall_right = ((1, 2), (0, 2))
    assert gpd.compose(tall_right, tall_left) == ((0, 2), (0, 2))
    # mismatched cross-sections do not glue
    assert gpd.compose(((1, 2), (0, 1)), tall_left) is None


def test_interval_element_count():
    gpd = make_interval_groupoid(0, 3)
    elems = gpd.elements_up_to(3)
    assert len(elems) == 7  # six intervals plus the neutral element
    assert elems[0] is NEUTRAL


def test_elements_sorted_by_grade():
    gpd = make_box_groupoid(2, ((0, 2), (0, 2)))
    grades = [gpd.ord(e) for e in gpd.elements_up_to(4)]
    assert grades == sorted(grades)


@pytest.mark.parametrize("gpd", [
    make_nat_monoid(),
    make_interval_groupoid(0, 4),
    make_box_groupoid(2, ((0, 2), (0, 2))),
    make_box_groupoid(3, ((0, 2), (0, 1), (0, 2)), axis=1),
], ids=["nat", "interval", "box2", "box3-axis1"])
def test_axioms_exhaustive_up_to_grade_four(gpd):
    assert axiom_violations(gpd, 4) == []


@pytest.mark.parametrize("gpd", [
    make_nat_monoid(),
    make_interval_groupoid(0, 4),
    make_box_groupoid(2, ((0, 2), (0, 2))),
], ids=["nat", "interval", "box"])
@pytest.mark.parametrize("bad", [-1, True, False, 2.0, "2", None])
def test_grade_bound_must_be_a_non_negative_int(gpd, bad):
    with pytest.raises(ValueError, match="grade bound"):
        gpd.elements_up_to(bad)
    with pytest.raises(ValueError, match="grade bound"):
        axiom_violations(gpd, bad)
    assert gpd.elements_up_to(0) == [gpd.neutral]


def test_window_bounds_are_enforced():
    with pytest.raises(ValueError):
        make_interval_groupoid(3, 3)
    with pytest.raises(ValueError):
        make_box_groupoid(2, ((0, 0), (0, 2)))
    gpd = make_box_groupoid(2, ((0, 2), (0, 2)))
    with pytest.raises(ValueError):
        gpd.ord(((0, 3), (0, 1)))


def test_from_spec_strings():
    assert from_spec("nat") == make_nat_monoid()
    assert from_spec("interval:0..3") == make_interval_groupoid(0, 3)
    assert from_spec("box:2:0..2,0..2") == make_box_groupoid(2, ((0, 2), (0, 2)))
    with pytest.raises(ValueError):
        from_spec("circle:1")


@pytest.mark.parametrize("spec", [5, None, b"nat", "interval:0..2..3", "interval:3",
                                  "interval:0..x", "box:2:0..2x", "box:two:0..2x0..2",
                                  "box:2:0..2", "box:2:0..1..2x0..2"],
                         ids=["int", "none", "bytes", "three-bounds", "one-bound",
                              "non-int-bound", "empty-span", "non-int-dim", "dim-mismatch",
                              "three-bound-span"])
def test_from_spec_rejects_a_malformed_spec_naming_it(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        from_spec(spec)


WINDOW_GROUPOIDS = [make_nat_monoid(), make_interval_groupoid(-1, 4),
                    make_box_groupoid(2, ((0, 2), (0, 3))),
                    make_box_groupoid(3, ((0, 2), (0, 1), (0, 2)), axis=2)]
WINDOW_IDS = ["nat", "interval", "box2", "box3"]


@pytest.mark.parametrize("gpd", WINDOW_GROUPOIDS, ids=WINDOW_IDS)
def test_unchecked_ord_agrees_on_every_window_element(gpd):
    elems = gpd.elements_up_to(12)
    assert len(elems) > 1
    assert all(gpd._ord(x) == gpd.ord(x) for x in elems)


@pytest.mark.parametrize("gpd,bad", [
    (make_nat_monoid(), True), (make_nat_monoid(), False), (make_nat_monoid(), -1),
    (make_nat_monoid(), 2.0),
    (make_interval_groupoid(0, 3), (True, 2)), (make_interval_groupoid(0, 3), (0, True)),
    (make_interval_groupoid(0, 3), (-1, 2)), (make_interval_groupoid(0, 3), (1, 4)),
    (make_interval_groupoid(0, 3), (0, 1, 2)), (make_interval_groupoid(0, 3), 0),
    (make_box_groupoid(2, ((0, 2), (0, 2))), ((False, 1), (0, 2))),
    (make_box_groupoid(2, ((0, 2), (0, 2))), ((-1, 1), (0, 2))),
    (make_box_groupoid(2, ((0, 2), (0, 2))), ((0, 1), (0, 3))),
    (make_box_groupoid(2, ((0, 2), (0, 2))), ((0, 1),)),
    (make_box_groupoid(2, ((0, 2), (0, 2))), ((0, 1), (0, 1), (0, 1))),
], ids=["nat-true", "nat-false", "nat-negative", "nat-float", "interval-bool-lo",
        "interval-bool-hi", "interval-negative", "interval-out-of-window",
        "interval-triple", "interval-int", "box-bool", "box-negative", "box-out-of-window",
        "box-one-axis", "box-three-axes"])
def test_ord_still_validates(gpd, bad):
    with pytest.raises(ValueError, match="is not an element of"):
        gpd.ord(bad)


def test_element_id_round_trip():
    """Distinct elements get distinct ids, so an id names one element."""
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 3),
                make_box_groupoid(2, ((0, 2), (0, 2)))):
        elems = gpd.elements_up_to(3)
        by_id = {gpd.element_id(elem): elem for elem in elems}
        assert [by_id[gpd.element_id(elem)] for elem in elems] == elems


class AnyFaceBoxes(BoxGroupoid):
    """Boxes glued along any shared full face, not only the designated axis."""

    def compose(self, i, j):
        if i is NEUTRAL:
            return j
        if j is NEUTRAL:
            return i
        for axis in range(self.dim):
            if j[axis][1] != i[axis][0]:
                continue
            if all(a == axis or i[a] == j[a] for a in range(self.dim)):
                merged = list(i)
                merged[axis] = (j[axis][0], i[axis][1])
                return tuple(merged)
        return None


def test_axiom_checker_rejects_any_face_box_gluing():
    """Gluing boxes along an arbitrary shared full face is not strongly
    associative: i*(j*k) can exist while (i*j)*k does not.  The designated
    composition axis is what keeps the box instance lawful; the checker
    must flag the any-face variant."""
    loose = AnyFaceBoxes(((0, 2), (0, 2)))
    violations = axiom_violations(loose, 4)
    assert any("associativity" in v for v in violations)
    # the witness triple: i the top slab, j the lower-right square, k the
    # lower-left square; i*(j*k) is the full window, (i*j) is undefined
    i = ((0, 2), (1, 2))
    j = ((1, 2), (0, 1))
    k = ((0, 1), (0, 1))
    jk = loose.compose(j, k)
    assert jk is not None and loose.compose(i, jk) == ((0, 2), (0, 2))
    assert loose.compose(i, j) is None


# -- the tabled axiom checker against the all-compose oracle --------------------

def all_compose_axiom_violations(groupoid, max_grade):
    """Oracle: the axiom checker that calls ``compose`` afresh for every
    pair and every triple."""
    bad = []
    e = groupoid.neutral
    elems = groupoid.elements_up_to(max_grade)
    if groupoid.ord(e) != 0:
        bad.append("neutral element has nonzero grade")
    for i in elems:
        if groupoid.ord(i) == 0 and i != e and i is not e:
            bad.append(f"grade-0 element {i!r} differs from the neutral element")
        if groupoid.compose(e, i) != i or groupoid.compose(i, e) != i:
            bad.append(f"neutral law fails at {i!r}")
    for i in elems:
        for j in elems:
            k = groupoid.compose(i, j)
            if k is None:
                continue
            if groupoid.ord(k) != groupoid.ord(i) + groupoid.ord(j):
                bad.append(f"grade not additive on ({i!r}, {j!r})")
            if k == e and not (i == e and j == e):
                bad.append(f"unexpected inverse pair ({i!r}, {j!r})")
    for i in elems:
        for j in elems:
            ij = groupoid.compose(i, j)
            for k in elems:
                jk = groupoid.compose(j, k)
                left = groupoid.compose(ij, k) if ij is not None else None
                right = groupoid.compose(i, jk) if jk is not None else None
                if (left is None) != (right is None) or left != right:
                    bad.append(f"associativity fails on ({i!r}, {j!r}, {k!r})")
    return bad


class SkewGrades(IntervalGroupoid):
    """Intervals whose grade is off by one above length 2: additivity fails."""

    def ord(self, element):
        grade = super().ord(element)
        return grade + 1 if grade > 2 else grade


@pytest.mark.parametrize("gpd", [
    make_nat_monoid(),
    make_interval_groupoid(0, 4),
    make_box_groupoid(2, ((0, 2), (0, 2))),
    make_box_groupoid(2, ((0, 3), (0, 2)), axis=1),
    AnyFaceBoxes(((0, 2), (0, 2))),
    AnyFaceBoxes(((0, 3), (0, 2)), axis=1),
    SkewGrades(0, 4),
], ids=["nat", "interval", "box-axis0", "box-axis1", "any-face", "any-face-axis1",
        "skew-grades"])
@pytest.mark.parametrize("max_grade", range(5))
def test_axiom_violations_match_the_all_compose_oracle(gpd, max_grade):
    assert axiom_violations(gpd, max_grade) == all_compose_axiom_violations(gpd, max_grade)


@pytest.mark.parametrize("gpd", [
    make_interval_groupoid(0, 4),
    make_box_groupoid(2, ((0, 3), (0, 2)), axis=1),
], ids=["interval", "box-axis1"])
def test_axiom_violations_composes_each_window_pair_once(gpd, monkeypatch):
    """Besides the table, a window pair reaches ``compose`` again only
    from the two neutral laws: (e, e) meets both, so three calls at most."""
    calls = Counter()
    compose = gpd.compose

    def counted(i, j):
        calls[(i, j)] += 1
        return compose(i, j)

    monkeypatch.setattr(gpd, "compose", counted)
    elems = gpd.elements_up_to(4)
    assert axiom_violations(gpd, 4) == []
    assert all(calls[(i, j)] >= 1 for i in elems for j in elems)
    assert max(n for (i, j), n in calls.items() if i in elems and j in elems) <= 3


def test_oracle_flags_the_broken_groupoids():
    assert all_compose_axiom_violations(AnyFaceBoxes(((0, 2), (0, 2))), 4)
    assert all_compose_axiom_violations(SkewGrades(0, 4), 4)


def test_compose_validates_and_unchecked_compose_agrees():
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 3),
                make_box_groupoid(2, ((0, 2), (0, 2)), axis=1)):
        elems = gpd.elements_up_to(4)
        for i in elems:
            for j in elems:
                assert gpd.compose(i, j) == gpd._compose(i, j)
    with pytest.raises(ValueError):
        make_interval_groupoid(0, 3).compose((0, 1), (1, 9))


# -- box windows take ints only -------------------------------------------------

@pytest.mark.parametrize("window", [
    ((0, 2.7), (0, 2)),
    ((True, 2), (0, 2)),
    ((0, 2), (0, "2")),
    ((0, 2, 3), (0, 2)),
    ((0,), (0, 2)),
    (5, (0, 2)),
], ids=["float", "bool", "str", "triple", "single", "bare-int"])
def test_box_window_rejects_non_int_spans(window):
    with pytest.raises(ValueError, match="pairs of ints"):
        BoxGroupoid(window)


@pytest.mark.parametrize("axis", [1.0, True, "0", -1, 2])
def test_box_axis_must_be_an_int_axis_index(axis):
    with pytest.raises(ValueError, match="composition axis"):
        BoxGroupoid(((0, 2), (0, 2)), axis=axis)


@pytest.mark.parametrize("dim", [True, 1.0, 0], ids=["bool", "float", "zero"])
def test_box_dim_must_be_an_int_of_at_least_one(dim):
    # len(window) != dim is False for True and 1.0 on a one-span window
    with pytest.raises(ValueError, match="dim must be an int >= 1"):
        make_box_groupoid(dim, ((0, 1),))
