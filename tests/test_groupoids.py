import pytest

from cobordseries.groupoids import (
    NEUTRAL, axiom_violations, from_spec, make_box_groupoid,
    make_interval_groupoid, make_nat_monoid,
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


def test_decompositions_neutral():
    gpd = make_nat_monoid()
    assert gpd.decompositions(0) == [(0, 0)]


def test_decompositions_interval():
    gpd = make_interval_groupoid(0, 3)
    decs = set(map(tuple, gpd.decompositions((0, 3))))
    assert decs == {(NEUTRAL, (0, 3)), ((0, 3), NEUTRAL),
                    ((1, 3), (0, 1)), ((2, 3), (0, 2))}


def test_decompositions_nat_grade_two():
    gpd = make_nat_monoid()
    assert set(gpd.decompositions(2)) == {(0, 2), (1, 1), (2, 0)}


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


def test_decomposition_grade_additivity():
    gpd = make_interval_groupoid(0, 4)
    for k in gpd.elements_up_to(4):
        for i, j in gpd.decompositions(k):
            assert gpd.compose(i, j) == k
            assert gpd.ord(i) + gpd.ord(j) == gpd.ord(k)


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


def test_element_id_round_trip():
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 3),
                make_box_groupoid(2, ((0, 2), (0, 2)))):
        for elem in gpd.elements_up_to(3):
            assert gpd.parse_element(gpd.element_id(elem)) == elem


def test_axiom_checker_rejects_any_face_box_gluing():
    """Gluing boxes along an arbitrary shared full face is not strongly
    associative: i*(j*k) can exist while (i*j)*k does not.  The designated
    composition axis is what keeps the box instance lawful; the checker
    must flag the any-face variant."""
    base = make_box_groupoid(2, ((0, 2), (0, 2)))

    class AnyFaceBoxes(type(base)):
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

        def decompositions(self, k):
            if k is NEUTRAL:
                return [(NEUTRAL, NEUTRAL)]
            out = [(NEUTRAL, k), (k, NEUTRAL)]
            for axis in range(self.dim):
                lo, hi = k[axis]
                for cutpoint in range(lo + 1, hi):
                    upper = list(k)
                    upper[axis] = (cutpoint, hi)
                    lower = list(k)
                    lower[axis] = (lo, cutpoint)
                    out.append((tuple(upper), tuple(lower)))
            return out

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
