from fractions import Fraction

import pytest

from nsvertex.linalg import (Echelon, _add, _integer_matrix,
                             inertia_with_witness)
from nsvertex.scalars import ONE, Coefficients, Scalar


def s(x):
    return Scalar.of(x)


def echelon(matrix):
    """An Echelon holding the rows of a dense matrix."""
    ech = Echelon()
    for row in matrix:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech


def test_add_passes_unit_factors_through_unchanged():
    table = Coefficients()
    one, c = table.handle(ONE), table.handle(Scalar.root(3))
    assert one == 1
    out = {}
    _add(out, {"a": one, "b": c}, c, table)
    assert out["a"] == c and out["b"] == table.handle(3)
    _add(out, {"b": c}, one, table)
    _add(out, {"c": c}, 1, table)
    assert out["c"] == c
    assert table.values[out["b"]] == Scalar.of(3) + Scalar.root(3)
    _add(out, {"d": one}, table.handle(2), table)
    assert table.values[out["d"]] == Scalar.of(2)


def test_kernel_of_rank_one_matrix_with_radicals():
    m = [[s(1), Scalar.root(2)], [Scalar.root(2), s(2)]]
    ech = echelon(m)
    assert len(ech) == 1
    ker = ech.kernel(2)
    assert len(ker) == 1
    v = ker[0]
    for row in m:
        assert sum((row[j] * x for j, x in v.items()), s(0)) == s(0)


def test_kernel_of_invertible_matrix_is_trivial():
    m = [[s(2), s(1)], [s(1), s(1)]]
    ech = echelon(m)
    assert ech.kernel(2) == []
    assert len(ech) == 2


def test_echelon_pivots():
    m = [[s(0), s(1), s(2)], [s(0), s(2), s(4)]]
    ech = echelon(m)
    assert sorted(ech.rows) == [1]
    assert ech.kernel(3) == [{0: s(1)}, {1: s(-2), 2: s(1)}]
    assert ech.row(1) == {1: s(1), 2: s(2)}


def test_kernel_back_substitutes_last_pivot_first():
    # row 0 is added before the rows whose pivots it still holds
    m = [[s(1), s(1), s(1), s(1)], [s(0), s(1), s(2), s(0)],
         [s(0), s(0), s(1), s(3)]]
    ech = echelon(m)
    assert sorted(ech.rows) == [0, 1, 2]
    [v] = ech.kernel(4)
    assert v == {0: s(-4), 1: s(6), 2: s(-3), 3: s(1)}
    assert {p: ech.row(p) for p in ech.rows} == {
        0: {0: s(1), 3: s(4)}, 1: {1: s(1), 3: s(-6)}, 2: {2: s(1), 3: s(3)}}


def test_inertia_diagonal():
    m = [[s(3), s(0), s(0)], [s(0), s(-2), s(0)], [s(0), s(0), s(0)]]
    assert inertia_with_witness(m)[:3] == (1, 1, 1)


def test_inertia_hyperbolic_block():
    m = [[s(0), s(1)], [s(1), s(0)]]
    pos, zero, neg, w = inertia_with_witness(m)
    assert (pos, zero, neg) == (1, 0, 1)
    val = sum(w[i] * Fraction(1) * w[j] * m[i][j].as_fraction()
              for i in range(2) for j in range(2))
    assert val < 0


def test_inertia_witness_on_indefinite_gram():
    m = [[s(1), s(2)], [s(2), s(1)]]
    pos, zero, neg, w = inertia_with_witness(m)
    assert (pos, zero, neg) == (1, 0, 1)
    val = sum(w[i] * w[j] * m[i][j].as_fraction() for i in range(2) for j in range(2))
    assert val < 0


def test_inertia_positive_definite_has_no_witness():
    m = [[s(2), s(1)], [s(1), s(2)]]
    pos, zero, neg, w = inertia_with_witness(m)
    assert (pos, zero, neg) == (2, 0, 0)
    assert w is None


def test_inertia_rejects_radicals():
    with pytest.raises(ValueError):
        inertia_with_witness([[Scalar.root(2)]])


def test_integer_matrix_reads_scalars_ints_and_fractions():
    m = [[s(Fraction(1, 2)), 3], [Fraction(3), s(Fraction(-2, 3))]]
    assert _integer_matrix(m) == [[3, 18], [18, -4]]
    with pytest.raises(ValueError, match="not rational: "):
        _integer_matrix([[s(1), Scalar.root(3) + 1]])


def test_integer_matrix_of_ns_grams_matches_fractions():
    from math import lcm
    from nsvertex.modules import VermaModule
    module = VermaModule("ns", s(Fraction(7, 10)), s(Fraction(1, 10)))
    for n2 in range(1, 7):
        gram = module.gram(n2)[1]
        q = [[x.as_fraction() for x in row] for row in gram]
        den = lcm(*(x.denominator for row in q for x in row))
        assert _integer_matrix(gram) == [[int(x * den) for x in row]
                                         for row in q]


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 0)])
def test_inertia_rejects_non_square(shape):
    rows, cols = shape
    m = [[s(i + j) for j in range(cols)] for i in range(rows)]
    with pytest.raises(ValueError, match="not square"):
        inertia_with_witness(m)


def test_inertia_zero_matrix():
    m = [[s(0), s(0)], [s(0), s(0)]]
    assert inertia_with_witness(m)[:3] == (0, 2, 0)


def test_inertia_matches_elimination_on_random_symmetric():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = [[s(raw[i][j] + raw[j][i]) for j in range(n)] for i in range(n)]
        pos, zero, neg, w = inertia_with_witness(m)
        assert pos + zero + neg == n
        assert pos + neg == len(echelon(m))
        if w is not None:
            val = sum(w[i] * w[j] * m[i][j].as_fraction()
                      for i in range(n) for j in range(n))
            assert val < 0
        else:
            assert neg == 0
