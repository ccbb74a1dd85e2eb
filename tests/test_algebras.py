import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from lattice_instances import relabelled_groups

from cobordseries.groups import (
    FiniteGroup, GroupFunction, builtin_group, convolve, cyclic, delta, is_class_function, load_cayley_file, quaternion8, symmetric3,
)
from cobordseries.matrices import RationalMatrix


def dump_cayley_file(group, path, **overrides):
    """Write the group as the JSON document ``load_cayley_file`` reads."""
    doc = {"name": group.name, "order": group.order, "labels": list(group.labels),
           "table": [list(row) for row in group.table],
           "inverses": list(group.inv_table)}
    path.write_text(json.dumps({**doc, **overrides}))


def haar_uniform(group):
    """The uniform probability mass function: constant 1/|G|."""
    return GroupFunction(group, (Fraction(1, group.order),) * group.order)


def random_group_function(group, rng):
    """Random rational values."""
    return GroupFunction(group, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                      for _ in group.elements()))


# -- exact matrices ---------------------------------------------------------

def test_matrix_inverse_hand_example():
    m = RationalMatrix([[1, 1], [0, 1]])
    assert m.inverse() == RationalMatrix([[1, -1], [0, 1]])


def test_matrix_inverse_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        m = RationalMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for _ in range(3)] for _ in range(3)])
        try:
            inv = m.inverse()
        except ValueError:
            continue
        assert m * inv == RationalMatrix.identity(3)
        assert inv * m == RationalMatrix.identity(3)


def test_matrix_singular_raises():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


def test_matrix_ring_axioms_random():
    rng = random.Random(2)

    def rand():
        return RationalMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(2)]
                               for _ in range(2)])

    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == a * 0


def test_matrix_noncommutativity_witness():
    a = RationalMatrix.unit(2, 0, 1)
    b = RationalMatrix.unit(2, 1, 0)
    assert a * b != b * a


def test_matrix_scalar_and_power():
    m = RationalMatrix([[2, 0], [0, 3]])
    assert m * Fraction(1, 2) == RationalMatrix([[1, 0], [0, Fraction(3, 2)]])
    assert m ** 3 == RationalMatrix([[8, 0], [0, 27]])


# -- finite groups ----------------------------------------------------------

def test_builtin_groups_are_groups():
    for name in ["Z2", "Z5", "Z12", "S3", "Q8"]:
        g = builtin_group(name)
        assert g.mul(g.identity, 1) == 1
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == g.identity


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup("broken", [[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup("shifted", [[1, 0], [0, 1]])


def test_s3_conjugacy_classes():
    s3 = symmetric3()
    classes = {frozenset(c) for c in s3.conjugacy_classes()}
    assert classes == {frozenset({0}), frozenset({1, 2, 3}), frozenset({4, 5})}
    assert s3.center() == (0,)
    assert not s3.is_abelian


def test_q8_structure():
    q8 = quaternion8()
    assert sorted(q8.center()) == [0, 1]  # {1, -1}
    assert len(q8.conjugacy_classes()) == 5
    i, j, k = 2, 4, 6
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.inv(k)
    minus_one = 1
    assert q8.mul(i, i) == q8.mul(j, j) == q8.mul(k, k) == minus_one
    assert q8.mul(q8.mul(i, j), k) == minus_one


@pytest.mark.parametrize("name", [3, None, b"Z2", ["S3"]])
def test_builtin_group_rejects_a_name_that_is_not_a_str(name):
    with pytest.raises(ValueError, match="group name is a str"):
        builtin_group(name)


def assert_two_sided_inverses(group):
    inv = group.inv_table
    assert all(group.table[a][inv[a]] == group.table[inv[a]][a] == 0
               for a in group.elements())


@pytest.mark.parametrize("name", [f"Z{n}" for n in range(2, 13)] + ["S3", "Q8"])
def test_inverse_table_is_two_sided_on_builtin_groups(name):
    assert_two_sided_inverses(builtin_group(name))


@given(relabelled_groups())
def test_inverse_table_is_two_sided_on_relabelled_groups(drawn):
    assert_two_sided_inverses(drawn[2])


def test_cayley_file_round_trip(tmp_path):
    path = tmp_path / "s3.json"
    dump_cayley_file(symmetric3(), path)
    loaded = load_cayley_file(path)
    assert loaded.table == symmetric3().table
    assert loaded.labels == symmetric3().labels


@pytest.mark.parametrize("field, value", [("order", 2.9), ("order", True),
                                          ("inverses", [0.0, "1"])],
                         ids=["float-order", "bool-order", "non-int-inverses"])
def test_cayley_file_fields_are_not_coerced(tmp_path, field, value):
    path = tmp_path / "coerced.json"
    group = cyclic(1) if value is True else cyclic(2)
    dump_cayley_file(group, path, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be"):
        load_cayley_file(path)


@pytest.mark.parametrize("field, value", [("labels", "eg"), ("table", 5)],
                         ids=["string-labels", "int-table"])
def test_cayley_file_labels_and_table_must_be_lists(tmp_path, field, value):
    path = tmp_path / "z2.json"
    dump_cayley_file(cyclic(2), path, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be a list"):
        load_cayley_file(path)


def test_cayley_file_must_hold_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="JSON object"):
        load_cayley_file(path)


def test_cayley_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump({"order": 2, "labels": ["e", "g"], "table": [[0, 1], [1, 0]],
                   "inverses": [1, 0]}, fh)
    with pytest.raises(ValueError):
        load_cayley_file(path)
    with open(path, "w") as fh:
        json.dump({"order": 2, "labels": ["e", "g"], "table": [[0, 1], [1, 0]],
                   "extra": 1}, fh)
    with pytest.raises(ValueError):
        load_cayley_file(path)


# -- convolution algebra ----------------------------------------------------

def test_delta_is_unit_probability():
    g = symmetric3()
    rng = random.Random(3)
    f = random_group_function(g, rng)
    assert convolve(delta(g), f) == f
    assert convolve(f, delta(g)) == f


def test_delta_squared_counting_z2():
    z2 = cyclic(2)
    d1 = delta(z2, 1)
    assert convolve(d1, d1) == delta(z2, 0)


def test_uniform_convolution_averages():
    g = cyclic(5)
    rng = random.Random(4)
    f = random_group_function(g, rng)
    mean = sum(f.values, Fraction(0)) / g.order
    assert convolve(haar_uniform(g), f) == GroupFunction(g, (mean,) * g.order)


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "Q8"])
def test_convolution_associativity_small_groups(name):
    g = builtin_group(name)
    rng = random.Random(g.order)
    for _ in range(3):
        f1 = random_group_function(g, rng)
        f2 = random_group_function(g, rng)
        f3 = random_group_function(g, rng)
        assert convolve(convolve(f1, f2), f3) == convolve(f1, convolve(f2, f3))


def test_class_functions_are_central_on_s3():
    s3 = symmetric3()
    rng = random.Random(5)
    class_fn_values = {}
    for cls in s3.conjugacy_classes():
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for x in cls:
            class_fn_values[x] = v
    f = GroupFunction(s3, tuple(class_fn_values[x] for x in s3.elements()))
    assert is_class_function(f)
    for _ in range(5):
        g = random_group_function(s3, rng)
        assert convolve(f, g) == convolve(g, f)


def test_is_class_function_examples():
    s3 = symmetric3()
    assert is_class_function(delta(s3))
    not_class = GroupFunction(s3, (0, 1, 0, 0, 0, 0))
    assert not is_class_function(not_class)


def test_group_mismatch_raises():
    f = delta(cyclic(2))
    g = delta(cyclic(3))
    with pytest.raises(ValueError):
        convolve(f, g)


@pytest.mark.parametrize("entry", [1.0, "1", True])
def test_cayley_entries_must_be_int_indices(entry):
    with pytest.raises(ValueError, match="int element indices"):
        FiniteGroup("coerced", [[0, 1], [entry, 0]])


@pytest.mark.parametrize("entry", [1.0, "1", True])
def test_cayley_file_entries_must_be_int_indices(tmp_path, entry):
    import json

    path = tmp_path / "coerced.json"
    with open(path, "w") as fh:
        json.dump({"order": 2, "labels": ["e", "g"], "table": [[0, 1], [entry, 0]]}, fh)
    with pytest.raises(ValueError, match="int element indices"):
        load_cayley_file(path)


@pytest.mark.parametrize("g", [7, -1, True, 1.0, "1"])
def test_delta_rejects_a_non_element(g):
    with pytest.raises(ValueError, match="not an element of Z3"):
        delta(cyclic(3), g)


@pytest.mark.parametrize("n", [True, 2.5, 2.0, "3", 0])
def test_cyclic_order_must_be_a_positive_int(n):
    with pytest.raises(ValueError, match="int >= 1"):
        cyclic(n)


@pytest.mark.parametrize("name", [5, None, ["Z2"]], ids=["int", "null", "list"])
def test_cayley_file_name_must_be_a_string(tmp_path, name):
    path = tmp_path / "z2.json"
    dump_cayley_file(cyclic(2), path, name=name)
    with pytest.raises(ValueError, match="name must be a string"):
        load_cayley_file(path)
