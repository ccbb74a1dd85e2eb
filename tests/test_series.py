import json
import random
from fractions import Fraction

import pytest

from cobordseries.groupoids import make_interval_groupoid, make_nat_monoid
from cobordseries.matrices import RationalMatrix
from cobordseries.series import FormalSeries, SemidirectElement


def q_series(order=3, value=Fraction(1)):
    nat = make_nat_monoid()
    return FormalSeries(nat, order, {1: value})


def random_matrix_series(groupoid, order, rng, support=4):
    unit = RationalMatrix.identity(2)
    elems = [e for e in groupoid.elements_up_to(order) if groupoid.ord(e) >= 1]
    picked = rng.sample(elems, min(support, len(elems)))
    coeffs = {e: RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(2)] for _ in range(2)])
              for e in picked}
    return FormalSeries(groupoid, order, coeffs, unit)


# -- multiplication ---------------------------------------------------------

def test_one_plus_q_times_one_minus_q():
    nat = make_nat_monoid()
    one = FormalSeries.one(nat, 3)
    q = q_series()
    assert (one + q) * (one - q) == one - FormalSeries(nat, 3, {2: Fraction(1)})


def test_interval_unique_composable_pair():
    gpd = make_interval_groupoid(0, 2)
    a = FormalSeries(gpd, 2, {(1, 2): Fraction(3)})
    b = FormalSeries(gpd, 2, {(0, 1): Fraction(5)})
    assert a * b == FormalSeries(gpd, 2, {(0, 2): Fraction(15)})
    # the opposite order has no composable pair at all
    assert b * a == FormalSeries.zero(gpd, 2)


def test_bool_index_rejected():
    with pytest.raises(ValueError):
        FormalSeries(make_nat_monoid(), 3, {True: Fraction(1)})
    with pytest.raises(ValueError):
        FormalSeries(make_interval_groupoid(0, 3), 3, {(False, 2): Fraction(1)})


def test_float_coefficients_rejected_over_an_exact_unit():
    with pytest.raises(ValueError, match="algebra"):
        FormalSeries(make_nat_monoid(), 4, {1: 0.1, 2: 0.7})


def test_bool_coefficient_rejected():
    with pytest.raises(ValueError, match="algebra"):
        FormalSeries(make_nat_monoid(), 3, {1: True})


def test_coefficients_of_the_unit_type_or_exact_scalars_accepted():
    nat = make_nat_monoid()
    a = FormalSeries(nat, 4, {1: 2, 2: Fraction(1, 3)})
    assert a.exp().log() == a
    with pytest.raises(ValueError, match="algebra"):
        FormalSeries(nat, 2, {1: RationalMatrix.identity(2)})
    with pytest.raises(ValueError, match="algebra"):
        FormalSeries(nat, 2, {1: Fraction(1)}, RationalMatrix.identity(2))


def test_scale_rejects_a_float():
    with pytest.raises(ValueError, match="int or a Fraction"):
        q_series().scale(0.5)


@pytest.mark.parametrize("order", [6.7, "6", True, -1])
def test_order_must_be_a_non_negative_int(order):
    with pytest.raises(ValueError, match="truncation order"):
        FormalSeries(make_nat_monoid(), order)


def test_power_rejects_bool_exponent():
    with pytest.raises(ValueError):
        q_series() ** True


def test_scalar_product_rejects_bool_on_the_right():
    with pytest.raises(ValueError):
        q_series() * True


def test_scalar_product_rejects_bool_on_the_left():
    with pytest.raises(ValueError):
        True * q_series()


def test_truncation_drops_high_grades():
    nat = make_nat_monoid()
    q = q_series(order=2)
    assert (q * q * q) == FormalSeries.zero(nat, 2)


def test_structure_mismatch_raises():
    nat = make_nat_monoid()
    with pytest.raises(ValueError):
        q_series(order=3) * FormalSeries(nat, 4, {1: Fraction(1)})
    with pytest.raises(ValueError):
        q_series() * FormalSeries(make_interval_groupoid(0, 3), 3,
                                  {(0, 1): Fraction(1)})


def test_ring_axioms_random_exact():
    rng = random.Random(7)
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 4)):
        for _ in range(10):
            a = random_matrix_series(gpd, 4, rng)
            b = random_matrix_series(gpd, 4, rng)
            c = random_matrix_series(gpd, 4, rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


# -- inverse ----------------------------------------------------------------

def test_inverse_of_one():
    nat = make_nat_monoid()
    one = FormalSeries.one(nat, 3)
    assert one.inverse() == one


def test_inverse_geometric_series():
    nat = make_nat_monoid()
    one = FormalSeries.one(nat, 3)
    u = one + q_series()
    expected = FormalSeries(nat, 3, {0: Fraction(1), 1: Fraction(-1),
                                     2: Fraction(1), 3: Fraction(-1)})
    assert u.inverse() == expected
    assert u * u.inverse() == one


def test_inverse_with_matrix_coefficient():
    nat = make_nat_monoid()
    unit = RationalMatrix.identity(2)
    a = RationalMatrix([[0, 1], [1, 1]])
    u = FormalSeries(nat, 2, {0: unit, 1: a}, unit)
    expected = FormalSeries(nat, 2, {0: unit, 1: -a, 2: a * a}, unit)
    assert u.inverse() == expected


def test_inverse_requires_unital():
    with pytest.raises(ValueError):
        q_series().inverse()


# -- exp and log ------------------------------------------------------------

def test_exp_zero_is_one():
    nat = make_nat_monoid()
    assert FormalSeries.zero(nat, 3).exp() == FormalSeries.one(nat, 3)


def test_exp_q_power_series():
    expected = FormalSeries(make_nat_monoid(), 3,
                            {0: Fraction(1), 1: Fraction(1),
                             2: Fraction(1, 2), 3: Fraction(1, 6)})
    assert q_series().exp() == expected


def test_log_one_plus_q():
    nat = make_nat_monoid()
    u = FormalSeries.one(nat, 3) + q_series()
    expected = FormalSeries(nat, 3, {1: Fraction(1), 2: Fraction(-1, 2),
                                     3: Fraction(1, 3)})
    assert u.log() == expected


def test_exp_log_bijection_exact():
    rng = random.Random(11)
    for gpd in (make_nat_monoid(), make_interval_groupoid(0, 6)):
        for _ in range(10):
            a = random_matrix_series(gpd, 6, rng)
            assert a.exp().log() == a
            one = FormalSeries.one(gpd, 6, a.unit)
            u = one + a
            assert u.log().exp() == u


def test_exp_inverse_is_exp_of_negative():
    rng = random.Random(13)
    a = random_matrix_series(make_nat_monoid(), 4, rng)
    assert a.exp() * (-a).exp() == FormalSeries.one(make_nat_monoid(), 4, a.unit)


def test_bch_obstruction_witness():
    # non-commuting coefficients break exp(a+b) = exp(a) exp(b)
    nat = make_nat_monoid()
    unit = RationalMatrix.identity(2)
    a = FormalSeries(nat, 2, {1: RationalMatrix.unit(2, 0, 1)}, unit)
    b = FormalSeries(nat, 2, {1: RationalMatrix.unit(2, 1, 0)}, unit)
    assert (a + b).exp() != a.exp() * b.exp()


def test_exp_requires_zero_e_part():
    nat = make_nat_monoid()
    with pytest.raises(ValueError):
        FormalSeries.one(nat, 3).exp()
    with pytest.raises(ValueError):
        q_series().log()


# -- nilpotency --------------------------------------------------------------

def test_positive_grade_series_is_nilpotent():
    gpd = make_interval_groupoid(0, 3)
    rng = random.Random(17)
    a = random_matrix_series(gpd, 3, rng)
    assert a ** 4 == FormalSeries.zero(gpd, 3, a.unit)


# -- serialization ------------------------------------------------------------

def test_payload_round_trip_scalar_and_matrix():
    """The payload survives a JSON round trip in its documented format:
    element id -> "p/q" string, or a matrix as row lists of such strings."""
    gpd = make_interval_groupoid(0, 3)
    a = FormalSeries(gpd, 3, {(0, 2): Fraction(3, 7), (2, 3): 2})
    assert json.loads(json.dumps(a.to_payload())) == {"i:0..2": "3/7", "i:2..3": "2"}
    b = FormalSeries(gpd, 3, {gpd.neutral: RationalMatrix.identity(2),
                              (1, 3): RationalMatrix([[1, Fraction(-1, 2)], [0, 2]])},
                     RationalMatrix.identity(2))
    assert json.loads(json.dumps(b.to_payload())) == {
        "e": [["1", "0"], ["0", "1"]], "i:1..3": [["1", "-1/2"], ["0", "2"]]}


# -- semidirect product -------------------------------------------------------

def rand_semidirect(rng, order=3):
    nat = make_nat_monoid()
    while True:
        g = RationalMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(2)] for _ in range(2)])
        try:
            g.inverse()
            break
        except ValueError:
            continue
    return SemidirectElement(g, random_matrix_series(nat, order, rng))


def test_semidirect_identity_law():
    rng = random.Random(23)
    x = rand_semidirect(rng)
    e = SemidirectElement.identity(2, x.a.groupoid, x.a.order)
    assert e * x == x
    assert x * e == x


def test_semidirect_conjugation_action():
    nat = make_nat_monoid()
    unit = RationalMatrix.identity(2)
    g = RationalMatrix([[2, 0], [0, 1]])
    a = FormalSeries(nat, 2, {1: RationalMatrix.unit(2, 0, 1)}, unit)
    conj = SemidirectElement._conjugate(a, g, g.inverse())
    assert conj.coefficient(1) == RationalMatrix.unit(2, 0, 1, 2)


def test_semidirect_inverse_law():
    rng = random.Random(29)
    for _ in range(10):
        x = rand_semidirect(rng)
        e = SemidirectElement.identity(2, x.a.groupoid, x.a.order)
        assert x * x.inverse() == e
        assert x.inverse() * x == e


def test_semidirect_associativity():
    rng = random.Random(31)
    for _ in range(5):
        x, y, z = (rand_semidirect(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_semidirect_rejects_singular():
    nat = make_nat_monoid()
    unit = RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        SemidirectElement(RationalMatrix.zeros(2),
                          FormalSeries.zero(nat, 2, unit))
