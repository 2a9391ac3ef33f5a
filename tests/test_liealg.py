from fractions import Fraction

import pytest

from nsvertex.liealg import (
    CATALOG,
    LieAlgebra,
    casimir_constant_sl2,
    catalog_entry,
    sl2,
    sl2_floor,
)
from nsvertex.scalars import Scalar


def test_sl2_validates_with_dual_coxeter_two():
    report = sl2().validate()
    assert report["valid"]
    assert report["checks"] == {
        "real": True, "antisymmetric": True, "jacobi": True, "normalized": True,
    }
    assert report["dual_coxeter"] == Scalar.of(2)


def test_gamma_total_antisymmetry():
    g = sl2()
    root2 = Scalar.root(2)
    assert g.gamma_entry(0, 1, 2) == root2
    assert g.gamma_entry(1, 2, 0) == root2
    assert g.gamma_entry(2, 0, 1) == root2
    assert g.gamma_entry(1, 0, 2) == -root2
    assert g.gamma_entry(0, 2, 1) == -root2
    assert g.gamma_entry(0, 0, 2) == Scalar.of(0)


def test_bracket_coeffs():
    g = sl2()
    assert g.bracket_coeffs(0, 1) == [(2, Scalar.root(2))]
    assert g.bracket_coeffs(1, 0) == [(2, -Scalar.root(2))]
    assert g.bracket_coeffs(0, 0) == []


def test_catalog_formulas():
    assert catalog_entry("A", 1) == (3, 2)
    assert catalog_entry("A", 4) == (24, 5)
    assert catalog_entry("B", 3) == (21, 5)
    assert catalog_entry("C", 3) == (21, 4)
    assert catalog_entry("D", 4) == (28, 6)
    assert catalog_entry("E", 8) == (248, 30)
    assert catalog_entry("F", 4) == (52, 9)
    assert catalog_entry("G", 2) == (14, 4)
    assert len(CATALOG) == 9
    with pytest.raises(ValueError):
        catalog_entry("H", 2)


def test_casimir_constants():
    assert casimir_constant_sl2(0) == Scalar.of(0)
    assert casimir_constant_sl2(Fraction(1, 2)) == Scalar.of(Fraction(3, 2))
    assert casimir_constant_sl2(1) == Scalar.of(4)
    assert casimir_constant_sl2(Fraction(3, 2)) == Scalar.of(Fraction(15, 2))


def _mat_mul(a, b, dim):
    out = {}
    for (i, k), va in a.items():
        for (k2, j), vb in b.items():
            if k == k2:
                acc = out.get((i, j), Scalar.of(0)) + va * vb
                if acc:
                    out[(i, j)] = acc
                elif (i, j) in out:
                    del out[(i, j)]
    return out


def test_sl2_floor_matrices_satisfy_brackets():
    g = sl2()
    for j2 in (0, 1, 2, 3):
        dim, mats, _ = sl2_floor(j2)
        for a in range(3):
            for b in range(3):
                comm = _mat_mul(mats[a], mats[b], dim)
                for pos, v in _mat_mul(mats[b], mats[a], dim).items():
                    acc = comm.get(pos, Scalar.of(0)) - v
                    if acc:
                        comm[pos] = acc
                    elif pos in comm:
                        del comm[pos]
                expected = {}
                for c, coeff in g.bracket_coeffs(a, b):
                    for pos, v in mats[c].items():
                        term = Scalar({-1: 1}) * coeff * v
                        acc = expected.get(pos, Scalar.of(0)) + term
                        if acc:
                            expected[pos] = acc
                        elif pos in expected:
                            del expected[pos]
                assert comm == expected, (j2, a, b)


def test_sl2_floor_casimir_is_scalar():
    for j2 in (0, 1, 2, 3):
        dim, mats, _ = sl2_floor(j2)
        total = {}
        for a in range(3):
            sq = _mat_mul(mats[a], mats[a], dim)
            for pos, v in sq.items():
                acc = total.get(pos, Scalar.of(0)) + v
                if acc:
                    total[pos] = acc
                elif pos in total:
                    del total[pos]
        expected = casimir_constant_sl2(Fraction(j2, 2))
        for i in range(dim):
            assert total.get((i, i), Scalar.of(0)) == expected
        assert all(i == j for (i, j) in total)


def test_sl2_floor_matrices_self_adjoint_for_gram():
    # <X v_k, v_l> = <v_k, X v_l> with the diagonal invariant form
    for j2 in (1, 2, 3):
        dim, mats, gram = sl2_floor(j2)
        for m in mats:
            for k in range(dim):
                for l in range(dim):
                    lhs = m.get((l, k), Scalar.of(0)) * gram[l]
                    rhs = m.get((k, l), Scalar.of(0)).conjugate() * gram[k]
                    assert lhs == rhs


def test_json_round_trip():
    g = sl2()
    data = g.to_json()
    assert data["gamma"] == [{"a": 1, "b": 2, "c": 3, "val": Scalar.root(2).to_json()}]
    g2 = LieAlgebra.from_json(data)
    assert g2.dim == 3
    assert g2.gamma_entry(2, 0, 1) == Scalar.root(2)


def test_json_accepts_permuted_entries():
    data = {
        "name": "x", "dim": 3,
        "gamma": [{"a": 1, "b": 3, "c": 2, "val": [{"num": -1, "den": 1, "rad": 2}]}],
    }
    g = LieAlgebra.from_json(data)
    assert g.gamma_entry(0, 1, 2) == Scalar.root(2)


def test_invalid_algebra_is_flagged():
    bad = LieAlgebra("bad", 4, {(0, 1, 2): Scalar.of(1), (0, 1, 3): Scalar.of(1)})
    report = bad.validate()
    assert not report["valid"]
    assert not report["checks"]["normalized"]


def test_complex_gamma_fails_real_check():
    bad = LieAlgebra("badc", 3, {(0, 1, 2): Scalar({-1: 1})})
    report = bad.validate()
    assert not report["checks"]["real"]


def test_dual_coxeter_validates_once(monkeypatch):
    g = sl2()
    calls = []
    validate = LieAlgebra.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(LieAlgebra, "validate", counting)
    assert g.dual_coxeter() == Scalar.of(2)
    assert g.dual_coxeter() == Scalar.of(2)
    assert len(calls) == 1


def test_invalid_algebra_raises_on_every_call():
    # sl2 plus a central direction: Jacobi holds, the normalization fails
    bad = LieAlgebra("bad", 4, {(0, 1, 2): Scalar.root(2)})
    assert not bad.validate()["valid"]
    for _ in range(2):
        with pytest.raises(ValueError, match="for bad: normalized$"):
            bad.dual_coxeter()


def test_empty_algebra_has_no_dual_coxeter_number():
    empty = LieAlgebra("x", 0, {})
    assert empty.validate() == {
        "name": "x", "dim": 0, "valid": True, "checks": {
            "real": True, "antisymmetric": True, "jacobi": True,
            "normalized": True}}
    with pytest.raises(ValueError, match="invariant form is empty"):
        empty.dual_coxeter()


@pytest.mark.parametrize("dim", [-2, -1, True, 2.0, "3", None])
def test_dim_must_be_a_nonnegative_int(dim):
    with pytest.raises(ValueError, match="dim must be a nonnegative integer"):
        LieAlgebra("x", dim, {})


def test_validate_names_the_failing_points_of_a_corrupted_table():
    lie = sl2()
    assert "failures" not in lie.validate()
    # Gamma_21^3 doubled in the expanded tensor: the transpositions of
    # the entries that meet it no longer negate them
    lie._tensor[1, 0, 2] = lie._tensor[1, 0, 2] * 2
    report = lie.validate()
    assert report["checks"] == {"real": True, "antisymmetric": False,
                                "jacobi": True, "normalized": True}
    assert report["valid"] is False
    assert report["failures"] == {"antisymmetric": [
        {"a": 1, "b": 2, "c": 3}, {"a": 2, "b": 1, "c": 3},
        {"a": 2, "b": 3, "c": 1}]}
    # a complex entry names its sorted triple
    bad = LieAlgebra("badc", 3, {(0, 1, 2): Scalar({-1: 1})})
    assert bad.validate()["failures"]["real"] == [{"a": 1, "b": 2, "c": 3}]
