import json
import random
from fractions import Fraction

import pytest

from nsvertex.scalars import ONE, ZERO, I, Scalar, rational


def test_sum_of_conjugate_surds():
    a = rational(1) + Scalar.root(2)
    b = rational(1) - Scalar.root(2)
    assert a + b == rational(2)


def test_root_two_squares_to_two():
    r = Scalar.root(2)
    assert r * r == rational(2)


def test_products_equal_to_one_share_the_one_scalar():
    assert Scalar.root(2) * Scalar.sqrt_fraction(Fraction(1, 2)) is ONE
    assert rational(1, 3) * 3 is ONE
    assert I * -I is ONE


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == rational(-1)


def test_difference_of_squares():
    a = rational(1) + Scalar.root(2)
    b = rational(1) - Scalar.root(2)
    assert a * b == rational(-1)


def test_inverse_of_root_two():
    assert Scalar.root(2).inverse() == Scalar({2: Fraction(1, 2)})


def test_inverse_of_i():
    assert I.inverse() == -I


def test_conjugation():
    z = rational(2) + 3 * I
    assert z.conjugate() == rational(2) - 3 * I
    w = Scalar.root(-2)
    assert w.conjugate() == -w


def test_zero_is_canonical_empty_sum():
    z = Scalar.root(2) - Scalar.root(2)
    assert z.terms == {}
    assert z == ZERO
    assert not z


def test_radicand_normalization():
    assert Scalar.root(8) == 2 * Scalar.root(2)
    assert Scalar.root(12) == 2 * Scalar.root(3)
    assert Scalar.root(-8).terms == {-2: Fraction(2)}
    assert Scalar.root(4) == rational(2)
    assert Scalar.root(0) == ZERO


def test_combined_radicands():
    assert Scalar.root(2) * Scalar.root(3) == Scalar.root(6)
    assert Scalar.root(6) * Scalar.root(2) == 2 * Scalar.root(3)
    # i*sqrt(2) times i*sqrt(3) = -sqrt(6)
    assert Scalar.root(-2) * Scalar.root(-3) == -Scalar.root(6)
    assert I * Scalar.root(2) == Scalar.root(-2)


def test_sqrt_of_fraction():
    assert Scalar.sqrt_fraction(Fraction(9, 4)) == rational(3, 2)
    assert Scalar.sqrt_fraction(Fraction(1, 2)) == Scalar({2: Fraction(1, 2)})
    s = Scalar.sqrt_fraction(Fraction(-1, 4))
    assert s == Scalar({-1: Fraction(1, 2)})
    assert s * s == rational(-1, 4)


def test_inverse_in_composite_field():
    a = rational(1) + Scalar.root(2) + Scalar.root(3)
    assert a * a.inverse() == ONE
    b = I + Scalar.root(2) - rational(1, 3)
    assert b * b.inverse() == ONE
    # four or more independent radicals, among them i, sqrt5 and sqrt7
    rng = random.Random(7)
    rads = [1, -1, 2, 3, 5, 7, -5, 10, 14, -21, 35, 30]
    for _ in range(40):
        t = {r: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for r in rng.sample(rads, rng.randint(4, 7))}
        a = Scalar(t) + I + Scalar.root(5) + Scalar.root(7)
        assert a * a.inverse() == ONE
        assert a.inverse().inverse() == a


def test_division():
    assert (rational(3) / rational(2)) == rational(3, 2)
    assert (Scalar.root(2) / Scalar.root(2)) == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    phi = rational(1, 2) + Scalar({5: Fraction(1, 2)})
    # golden ratio: phi^2 = phi + 1
    assert phi ** 2 == phi + 1
    assert (Scalar.root(2) ** -2) == rational(1, 2)


def _random_scalar(rng):
    rads = [1, 1, 1, -1, 2, 3, -2, 6]
    t = {}
    for _ in range(rng.randint(0, 3)):
        r = rng.choice(rads)
        t[r] = t.get(r, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return Scalar(t)


def test_field_axioms_random_sweep():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a
        if a:
            assert a * a.inverse() == ONE


def test_json_round_trip():
    z = rational(2) - rational(3, 4) * Scalar.root(2) + I * 5
    data = z.to_json()
    assert data == [
        {"num": 5, "den": 1, "rad": -1},
        {"num": 2, "den": 1, "rad": 1},
        {"num": -3, "den": 4, "rad": 2},
    ]
    assert Scalar.from_json(json.loads(json.dumps(data))) == z
    assert Scalar.from_json([]) == ZERO
    assert ZERO.to_json() == []


def test_from_json_rejects_floats_bools_and_other_forms():
    for bad in (1.5, True, False, None, {"num": 1, "rad": 2}):
        with pytest.raises(ValueError, match="a term list, an integer or "
                                             "a fraction string"):
            Scalar.from_json(bad)
    assert Scalar.from_json(3) == rational(3)
    assert Scalar.from_json("-3/4") == rational(-3, 4)


def test_as_fraction():
    assert rational(7, 3).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        Scalar.root(2).as_fraction()


def test_rejects_non_squarefree_radicand():
    with pytest.raises(ValueError):
        Scalar({8: Fraction(1)})
    # a radicand 0 would spell the zero scalar as a nonempty sum
    with pytest.raises(ValueError, match="radicand 0"):
        Scalar({0: Fraction(1)})
    with pytest.raises(ValueError, match="radicand 0"):
        Scalar.from_json([{"num": 1, "rad": 0}])


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(rational(1) + Scalar.root(2)) == "1 + √2"
    assert str(-Scalar.root(-2)) == "-i·√2"
    assert str(rational(2) - 3 * I) == "2 - 3·i"
