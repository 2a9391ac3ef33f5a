"""Graded module engine: dimensions, pairings, Gram kernels, operators.

Dimension oracles are independent knapsack DPs over creation-mode
grades; character oracles for the affine quotients are theta series over
a partition generating function.  Gram entries quoted as literals were
computed by hand from the commutation relations.
"""

import random
from fractions import Fraction

import pytest

import inertia_oracle as oracle
from nsvertex.constructions import super_construction, susy_report
from nsvertex.liealg import LieAlgebra, sl2
from nsvertex.modules import (BasisState, FockModule, Mode, StateVector,
                              VermaModule, adjoint_mode,
                              module_from_descriptor, state_parity)
from nsvertex.scalars import ONE, ZERO, I, Scalar


# -- oracles ----------------------------------------------------------------

def series_dims(depth2, factors):
    """Coefficients of prod over (g2, odd, mult) of (1+x^g2)^mult or
    (1-x^g2)^-mult, up to x^depth2."""
    coeffs = [1] + [0] * depth2
    for g2, odd, mult in factors:
        for _ in range(mult):
            if odd:
                for k in range(depth2, g2 - 1, -1):
                    coeffs[k] += coeffs[k - g2]
            else:
                for k in range(g2, depth2 + 1):
                    coeffs[k] += coeffs[k - g2]
    return coeffs


def fermion_dims(depth2, colors=1):
    return series_dims(depth2, [(m2, True, colors) for m2 in range(1, depth2 + 1, 2)])


def ns_verma_dims(depth2):
    factors = [(m2, True, 1) for m2 in range(1, depth2 + 1, 2)]
    factors += [(m2, False, 1) for m2 in range(2, depth2 + 1, 2)]
    return series_dims(depth2, factors)


def affine_sl2_dims(depth2, floor_dim=1):
    coeffs = series_dims(depth2, [(m2, False, 3) for m2 in range(2, depth2 + 1, 2)])
    return [floor_dim * c for c in coeffs]


def partition_counts(depth):
    return series_dims(depth, [(g, False, 1) for g in range(1, depth + 1)])


def su2_level1_character(depth, spin_half):
    """Integer-grade dims of the level-1 irreducible: theta series over
    the partition function."""
    parts = partition_counts(depth)
    theta = [0] * (depth + 1)
    n = -depth - 1
    while n <= depth + 1:
        e = n * n + (n if spin_half else 0)
        if 0 <= e <= depth:
            theta[e] += 1
        n += 1
    return [sum(theta[j] * parts[k - j] for j in range(k + 1)) for k in range(depth + 1)]


def ising_vacuum_dims(depth):
    """chi(L(1/2, 0)): the integer-grade half of the fermion character."""
    f = fermion_dims(2 * depth)
    return [f[2 * k] for k in range(depth + 1)]


# -- state vectors ----------------------------------------------------------

PSI = lambda n2, color=0: Mode("psi", color, n2)
LL = lambda n2: Mode("L", 0, n2)
GG = lambda n2: Mode("G", 0, n2)
XX = lambda color, n2: Mode("x", color, n2)


def test_state_vector_arithmetic():
    a = BasisState((PSI(-1),), 0)
    b = BasisState((PSI(-3),), 0)
    u = StateVector({a: 2, b: 1})
    v = StateVector({a: -2})
    w = u + v
    assert w.get(a, ZERO) == ZERO
    assert w.get(b, ZERO) == ONE
    assert len(w) == 1
    assert not u - u
    assert not u.scaled(0)
    assert u.scaled(I).get(a, ZERO) == I * 2
    assert (-u).get(b, ZERO) == Scalar.of(-1)
    # a vector is the dict of its nonzero coefficients, from pairs or a dict
    pairs = StateVector([(a, 1), (b, 0), (a, Fraction(1, 2)), (b, 2),
                         (b, -2)])
    assert isinstance(pairs, dict) and pairs == {a: Scalar.of(Fraction(3, 2))}
    assert StateVector({a: 0, b: ZERO}) == {}
    assert StateVector({a: 3, b: 0}) == {a: Scalar.of(3)}
    assert b.grade2 == 3
    assert state_parity(b) == 1


# -- fermion Fock -----------------------------------------------------------

def test_fermion_dims_match_partition_oracle():
    mod = FockModule(colors=1)
    assert mod.dims(12) == fermion_dims(12)
    mod2 = FockModule(colors=2)
    assert mod2.dims(9) == fermion_dims(9, colors=2)


def test_fermion_frozen_small_dims():
    mod = FockModule(colors=1)
    # grade 1 is empty, grade 2 is spanned by psi(-3/2)psi(-1/2)
    assert len(mod.level_basis(2)) == 0
    assert mod.level_basis(4) == [BasisState((PSI(-3), PSI(-1)), 0)]


def test_fermion_mode_algebra():
    mod = FockModule(colors=1)
    vac = mod.vacuum()
    st = mod.apply(PSI(-1), vac)
    assert mod.apply(PSI(1), st) == vac
    assert not mod.apply(PSI(-1), st)
    two = mod.apply(PSI(-3), st)
    assert two == StateVector.basis(BasisState((PSI(-3), PSI(-1)), 0))
    # anticommutator {psi(3/2), psi(-3/2)} = 1 across an occupied slot
    assert mod.apply(PSI(3), two) == st


def test_fermion_gram_is_identity():
    mod = FockModule(colors=1)
    for n2 in range(10):
        basis, matrix = mod.gram(n2)
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert matrix[i][j] == (ONE if i == j else ZERO)


def test_two_color_anticommutator_vanishes():
    mod = FockModule(colors=2)
    vac = mod.vacuum()
    a = mod.apply(PSI(-1, 0), mod.apply(PSI(-1, 1), vac))
    b = mod.apply(PSI(-1, 1), mod.apply(PSI(-1, 0), vac))
    assert not a + b


# -- Verma modules ----------------------------------------------------------

def test_ns_dims_match_oracle():
    mod = VermaModule("ns", Scalar.of(Fraction(1, 2)),
                      Scalar.of(Fraction(1, 3)))
    assert mod.dims(9) == ns_verma_dims(9)
    assert len(mod.level_basis(16)) == 70


def test_ns_level_three_halves_basis_and_gram():
    c, h = Scalar.of(Fraction(7, 10)), Scalar.of(Fraction(2, 5))
    mod = VermaModule("ns", c, h)
    basis, matrix = mod.gram(3)
    assert basis == [BasisState((GG(-3),), 0),
                     BasisState((LL(-2), GG(-1)), 0)]
    assert matrix[0][0] == 2 * h + Scalar.of(Fraction(2, 3)) * c
    assert matrix[0][1] == 4 * h
    assert matrix[1][0] == 4 * h
    assert matrix[1][1] == 4 * h * h + 2 * h


def test_virasoro_diagonal_norms():
    c, h = Scalar.of(Fraction(1, 2)), Scalar.of(Fraction(1, 16))
    mod = VermaModule("virasoro", c, h)
    vac = mod.vacuum()
    for n in range(1, 5):
        st = mod.apply(LL(-2 * n), vac)
        expect = 2 * n * h + c * Fraction(n * (n * n - 1), 12)
        assert mod.inner(st, st) == expect


def test_ns_half_mode_norm():
    c, h = Scalar.of(Fraction(3, 2)), Scalar.of(Fraction(1, 4))
    mod = VermaModule("ns", c, h)
    st = mod.apply(GG(-1), mod.vacuum())
    assert mod.inner(st, st) == 2 * h


def test_g_square_is_virasoro_mode():
    mod = VermaModule("ns", Scalar.of(1), Scalar.of(0))
    vac = mod.vacuum()
    st = mod.apply(GG(-3), mod.apply(GG(-3), vac))
    assert st == StateVector.basis(BasisState((LL(-6),), 0))


def test_virasoro_has_no_odd_levels():
    mod = VermaModule("virasoro", Scalar.of(Fraction(1, 2)), Scalar.of(0))
    assert all(len(mod.level_basis(n2)) == 0 for n2 in (1, 3, 5, 7))


def test_ising_kernel_and_quotient_dims():
    mod = VermaModule("virasoro", Scalar.of(Fraction(1, 2)), Scalar.of(0))
    kers = mod.kernel_vectors(2)
    assert kers == [StateVector.basis(BasisState((LL(-2),), 0))]
    # the level-1 state is L(-1) acting on the floor and it is null
    st = mod.apply(LL(-2), mod.vacuum())
    assert mod.inner(st, st) == ZERO
    dims = mod.irreducible_dims(10)
    assert [dims[2 * k] for k in range(6)] == ising_vacuum_dims(5)
    assert ising_vacuum_dims(5) == [1, 0, 1, 1, 2, 2]


def test_ns_kernel_roots_of_level_three_halves_determinant():
    # det = (2h + 2c/3)(4h^2 + 2h) - 16h^2 vanishes at c = 7/10 for
    # h = 1/10 and h = 7/6, and at h = 0 for any c
    for h in (Fraction(1, 10), Fraction(7, 6)):
        mod = VermaModule("ns", Scalar.of(Fraction(7, 10)), h)
        assert len(mod.level_basis(3)) == 2
        assert len(mod.kernel_vectors(3)) == 1
    generic = VermaModule("ns", Scalar.of(Fraction(7, 10)), Scalar.of(1))
    assert len(generic.kernel_vectors(3)) == 0
    zero = VermaModule("ns", Scalar.of(Fraction(7, 10)), Scalar.of(0))
    assert len(zero.kernel_vectors(1)) == 1
    assert len(zero.kernel_vectors(3)) == 1


# -- affine modules ---------------------------------------------------------

def test_affine_induced_dims():
    mod = FockModule(sl2(), 1)
    dims = mod.dims(8)
    assert dims == affine_sl2_dims(8)
    assert [dims[2 * k] for k in range(5)] == [1, 3, 9, 22, 51]


def test_affine_level_one_gram_is_identity():
    mod = FockModule(sl2(), 1)
    basis, matrix = mod.gram(2)
    assert len(basis) == 3
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == (ONE if i == j else ZERO)


def test_affine_level_two_gram():
    mod = FockModule(sl2(), 2)
    _, matrix = mod.gram(2)
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == (Scalar.of(2) if i == j else ZERO)


def test_affine_quotient_characters_vacuum():
    mod = FockModule(sl2(), 1)
    dims = mod.irreducible_dims(6)
    assert [dims[2 * k] for k in range(4)] == su2_level1_character(3, False)
    assert su2_level1_character(5, False) == [1, 3, 4, 7, 13, 19]


def test_affine_quotient_characters_spin_half():
    mod = FockModule(sl2(), 1, spin2=1)
    dims = mod.irreducible_dims(4)
    assert [dims[2 * k] for k in range(3)] == su2_level1_character(2, True)
    assert su2_level1_character(5, True) == [2, 2, 6, 8, 14, 20]


def test_spin_floors_are_decided_by_the_structure_constants():
    # sl2's constants under another name give sl2's floor; the flipped
    # sign under sl2's name has no floor whose zero modes represent it
    renamed = LieAlgebra("su2", 3, sl2().gamma)
    assert FockModule(renamed, 1, spin2=1).irreducible_dims(2) == \
        FockModule(sl2(), 1, spin2=1).irreducible_dims(2) == [2, 0, 2]
    flipped = LieAlgebra("sl2", 3, {(0, 1, 2): -Scalar.root(2)})
    assert flipped.validate()["valid"]
    with pytest.raises(ValueError, match="'sl2' has other structure"):
        FockModule(flipped, 1, spin2=1)
    assert FockModule(flipped, 1).irreducible_dims(2) == \
        FockModule(sl2(), 1).irreducible_dims(2)


def test_affine_floor_action():
    mod = FockModule(sl2(), 1, spin2=1)
    top = mod.vacuum(0)
    # X3 = H/sqrt(2) acts diagonally on the spin-1/2 floor
    out = mod.apply(XX(2, 0), top)
    root_half = Scalar.sqrt_fraction(Fraction(1, 2))
    assert out == top.scaled(root_half)
    bot = mod.vacuum(1)
    assert mod.apply(XX(2, 0), bot) == bot.scaled(-root_half)


def test_affine_central_term():
    level = 3
    mod = FockModule(sl2(), level)
    vac = mod.vacuum()
    st = mod.apply(XX(0, -2), vac)
    # <X_{-1} v, X_{-1} v> = level for the trivial floor
    assert mod.inner(st, st) == Scalar.of(level)
    # [X^1_2, X^1_{-2}] picks up 2 * level on the vacuum
    st2 = mod.apply(XX(0, -4), vac)
    assert mod.apply(XX(0, 4), st2) == vac.scaled(2 * level)


# -- tensor products --------------------------------------------------------

def test_tensor_dims():
    mod = FockModule(sl2(), 1, 3)
    factors = [(m2, False, 3) for m2 in range(2, 7, 2)]
    factors += [(m2, True, 3) for m2 in range(1, 7, 2)]
    assert mod.dims(6) == series_dims(6, factors)


def test_tensor_factors_commute():
    mod = FockModule(sl2(), 1, 3)
    vac = mod.vacuum()
    a = mod.apply(XX(1, -2), mod.apply(PSI(-1, 2), vac))
    b = mod.apply(PSI(-1, 2), mod.apply(XX(1, -2), vac))
    assert a == b
    assert len(a) == 1
    (state, coeff), = a.items()
    assert coeff == ONE
    assert state.word == (XX(1, -2), PSI(-1, 2))


def test_spin_floor_with_fermions_dims():
    mod = FockModule(sl2(), 1, 3, spin2=1)
    assert mod.dims(4) == [2, 6, 12, 26, 54]
    factors = [(m2, False, 3) for m2 in range(2, 5, 2)]
    factors += [(m2, True, 3) for m2 in range(1, 5, 2)]
    assert mod.dims(4) == [2 * d for d in series_dims(4, factors)]


def test_currents_and_fermions_bracket_by_kind():
    mod = FockModule(sl2(), 2, 3)
    # [x^a_1, x^a_{-1}] = level, {psi^a_{1/2}, psi^a_{-1/2}} = 1, and the
    # two families commute
    assert mod.bracket(XX(0, 2), XX(0, -2)) == [(Scalar.of(2), None)]
    assert mod.bracket(PSI(1, 0), PSI(-1, 0)) == [(ONE, None)]
    assert mod.bracket(PSI(1, 0), PSI(-1, 1)) == []
    assert mod.bracket(XX(0, 2), PSI(-1, 0)) == []
    assert mod.bracket(PSI(-1, 0), XX(0, 2)) == []


def test_non_integer_level_or_colors_is_refused():
    from nsvertex.constructions import boson_sugawara, super_construction
    with pytest.raises(ValueError, match="level must be an integer"):
        boson_sugawara(sl2(), 1.5)
    with pytest.raises(ValueError, match="level must be an integer"):
        super_construction(sl2(), Fraction(3, 2))
    with pytest.raises(ValueError, match="colors must be an integer"):
        FockModule(colors=2.0)
    with pytest.raises(ValueError, match="need at least one fermion"):
        FockModule()
    with pytest.raises(ValueError, match="spin floors are available for sl2"):
        FockModule(colors=1, spin2=1)


# -- pairing properties -----------------------------------------------------

def _sample_modules():
    return [
        (FockModule(colors=1),
         [PSI(n2) for n2 in (-3, -1, 1, 3)]),
        (FockModule(colors=2),
         [PSI(n2, c) for n2 in (-1, 1) for c in (0, 1)]),
        (VermaModule("ns", Scalar.of(Fraction(7, 10)),
                     Scalar.of(Fraction(2, 5))),
         [LL(-4), LL(-2), LL(2), GG(-3), GG(-1), GG(1), GG(3)]),
        (VermaModule("virasoro", Scalar.of(Fraction(1, 2)),
                     Scalar.of(Fraction(1, 16))),
         [LL(-4), LL(-2), LL(2), LL(4)]),
        (FockModule(sl2(), 1, spin2=1),
         [XX(c, n2) for c in range(3) for n2 in (-2, 2)]),
        (FockModule(sl2(), 1, 3),
         [XX(0, -2), XX(2, 2), PSI(-1, 1), PSI(1, 0)]),
        # H_{1,1/2} (x) F: a spin floor together with fermions
        (FockModule(sl2(), 1, 3, spin2=1),
         [XX(0, -2), XX(2, 0), XX(1, 2), PSI(-1, 2), PSI(1, 1), PSI(3, 0)]),
    ]


def test_adjointness_sweep():
    rng = random.Random(20240818)
    for mod, modes in _sample_modules():
        for mode in modes:
            for g2 in range(0, 5):
                h2 = g2 - mode.n2
                if h2 < 0:
                    continue
                basis_u = mod.level_basis(g2)
                basis_v = mod.level_basis(h2)
                if not basis_u or not basis_v:
                    continue
                for _ in range(3):
                    u = StateVector.basis(rng.choice(basis_u))
                    v = StateVector.basis(rng.choice(basis_v))
                    lhs = mod.inner(mod.apply(mode, u), v)
                    rhs = mod.inner(u, mod.apply(adjoint_mode(mode), v))
                    assert lhs == rhs


def test_gram_hermitian_sweep():
    # gram fills its lower triangle by conjugation, so the property is
    # checked on the pairing itself, each order computed by its recursion
    for mod, _ in _sample_modules():
        for n2 in range(5):
            basis = mod.level_basis(n2)
            for b1 in basis:
                for b2 in basis:
                    assert mod.inner_basis(b1, b2) == \
                        mod.inner_basis(b2, b1).conjugate()


def test_inner_sesquilinear():
    mod = FockModule(colors=1)
    u = StateVector.basis(BasisState((PSI(-1),), 0))
    assert mod.inner(u.scaled(I), u) == I
    assert mod.inner(u, u.scaled(I)) == -I


def test_cross_grade_inner_vanishes():
    mod = VermaModule("ns", Scalar.of(1), Scalar.of(Fraction(1, 3)))
    u = mod.apply(GG(-1), mod.vacuum())
    v = mod.apply(LL(-2), mod.vacuum())
    assert mod.inner(u, v) == ZERO


# -- Gram kernels ----------------------------------------------------------

def test_gram_kernel_is_invariant_under_modes():
    # the kernel is a submodule, so the quotient's mode actions descend
    mod = VermaModule("virasoro", Scalar.of(Fraction(1, 2)), Scalar.of(0))
    assert mod.kernel_vectors(2) and mod.kernel_vectors(6)
    for n2 in range(0, 11, 2):
        for k in mod.kernel_vectors(n2):
            for mode in (LL(-2), LL(-4), LL(2)):
                out = mod.apply(mode, k)
                for b in mod.level_basis(n2 - mode.n2):
                    assert mod.inner(out, StateVector.basis(b)) == ZERO


def test_gram_rank_is_irreducible_dim():
    mod = FockModule(sl2(), 1)
    for n2 in (0, 2, 4):
        _, matrix = mod.gram(n2)
        assert len(oracle.row_reduce(matrix)[1]) == \
            mod.irreducible_dims(n2)[n2]


@pytest.mark.parametrize("spin2", [0, 1])
def test_kernel_vectors_with_radicals_match_dense_oracle(spin2):
    # the sl2 Grams hold i and sqrt2; the oracle reduces the conjugated
    # rows densely and reads one kernel vector off each free column
    mod = FockModule(sl2(), 1, spin2=spin2)
    basis, matrix = mod.gram(4)
    conj = [[x.conjugate() for x in row] for row in matrix]
    want = [StateVector(zip(basis, coeffs))
            for coeffs in oracle.kernel_basis(conj, len(basis))]
    assert want and mod.kernel_vectors(4) == want


@pytest.mark.parametrize("mod,depth2", [
    (VermaModule("virasoro", Scalar.of(Fraction(1, 2)), Scalar.of(0)), 14),
    (FockModule(sl2(), 1), 6),
], ids=["virasoro", "sl2"])
def test_irreducible_dims_count_the_kernel(mod, depth2):
    dims = mod.irreducible_dims(depth2)
    assert dims == [len(mod.level_basis(n2)) - len(mod.kernel_vectors(n2))
                    for n2 in range(depth2 + 1)]
    assert dims != [len(mod.level_basis(n2)) for n2 in range(depth2 + 1)]


def test_affine_kernel_vectors_are_orthogonal_to_their_grade():
    mod = FockModule(sl2(), 1)
    kernel = mod.kernel_vectors(4)
    assert kernel
    for k in kernel:
        for b in mod.level_basis(4):
            assert mod.inner(k, StateVector.basis(b)) == ZERO


# -- grading operators ------------------------------------------------------

def test_L0_acts_as_h_plus_grade():
    mod = VermaModule("ns", Scalar.of(1), Scalar.of(0))
    for n2 in range(6):
        for b in mod.level_basis(n2):
            u = StateVector.basis(b)
            assert mod.apply(LL(0), u) == u.scaled(mod.h + Fraction(n2, 2))


def test_translation_on_verma_matches_lowering_mode():
    mod = VermaModule("ns", Scalar.of(Fraction(7, 10)),
                      Scalar.of(Fraction(2, 5)))
    for n2 in range(6):
        for b in mod.level_basis(n2):
            u = StateVector.basis(b)
            assert mod.operator_T(u) == mod.apply(LL(-2), u)


def test_translation_on_fock():
    mod = FockModule(colors=1)
    assert not mod.operator_T(mod.vacuum())
    one = mod.apply(PSI(-1), mod.vacuum())
    assert mod.operator_T(one) == StateVector.basis(BasisState((PSI(-3),), 0))
    two = mod.apply(PSI(-3), one)
    expect = StateVector({BasisState((PSI(-5), PSI(-1)), 0): 2})
    assert mod.operator_T(two) == expect


def test_translation_on_affine():
    mod = FockModule(sl2(), 1)
    one = mod.apply(XX(0, -2), mod.vacuum())
    assert mod.operator_T(one) == StateVector.basis(BasisState((XX(0, -4),), 0))


# -- ghosts -----------------------------------------------------------------

def test_ghost_report_negative_weight():
    mod = VermaModule("ns", Scalar.of(Fraction(1, 2)), Scalar.of(-1))
    report = mod.ghost_report(2)
    assert report["has_ghost"] is True
    assert report["first_negative_grade"] == "1/2"
    level = report["levels"][1]
    w = level["witness"]
    val = mod.inner(w, w).as_fraction()
    assert val < 0


def test_ghost_report_unitary_point():
    mod = VermaModule("virasoro", Scalar.of(Fraction(1, 2)),
                      Scalar.of(Fraction(1, 16)))
    report = mod.ghost_report(6)
    assert report["has_ghost"] is False
    assert report["first_negative_grade"] is None
    for level in report["levels"]:
        assert level["negative"] == 0


# -- descriptors ------------------------------------------------------------

def test_module_descriptors():
    mod = module_from_descriptor({"type": "ns_verma", "c": "1/2", "h": 0})
    assert isinstance(mod, VermaModule) and mod.algebra == "ns"
    mod = module_from_descriptor({"type": "virasoro_verma", "c": "1/2", "h": "1/16"})
    assert mod.algebra == "virasoro"
    mod = module_from_descriptor({"type": "fermion", "colors": 3})
    assert isinstance(mod, FockModule) and mod.colors == 3
    assert mod.kinds == {"psi": 3}
    mod = module_from_descriptor({"type": "affine", "algebra": "sl2",
                                  "level": 1, "spin": "1/2"})
    assert isinstance(mod, FockModule) and mod.spin2 == 1
    assert mod.kinds == {"x": 3}
    # a spin is a half-integer, written as a fraction string or a number
    for spin, spin2 in (("1/2", 1), (0.5, 1), (1, 2), (0, 0)):
        assert module_from_descriptor({"type": "affine", "level": 2,
                                       "spin": spin}).spin2 == spin2
    affine = {"type": "affine", "algebra": "sl2", "level": 2, "spin": 1}
    fermion = {"type": "fermion", "colors": 3}
    mod = module_from_descriptor({"type": "tensor",
                                  "factors": [affine, fermion]})
    # the affine factor's spin and level, the fermion factor's colors
    assert isinstance(mod, FockModule) and mod.kinds == {"x": 3, "psi": 3}
    assert (mod.spin2, mod.level, mod.colors) == (2, 2, 3)
    assert mod.floor_dim() == 3
    for factors in ([fermion, affine], [affine], [affine, fermion, fermion],
                    [affine, affine]):
        with pytest.raises(ValueError, match=r"needs \[affine, fermion\]"):
            module_from_descriptor({"type": "tensor", "factors": factors})
    with pytest.raises(ValueError):
        module_from_descriptor({"type": "bosonic_string"})
    with pytest.raises(ValueError):
        module_from_descriptor({"type": "affine", "algebra": "sl2",
                                "level": 1, "spin": "1/3"})


def test_parity_index_mismatch_rejected():
    mod = FockModule(colors=1)
    with pytest.raises(ValueError):
        mod.apply(Mode("psi", 0, -2), mod.vacuum())
    ver = VermaModule("virasoro", Scalar.of(1), Scalar.of(0))
    with pytest.raises(ValueError):
        ver.apply(GG(-1), ver.vacuum())


def test_memos_hold_one_scalar_per_coefficient_value():
    # every cached coefficient of a module is the handle of the one
    # Scalar of its value in the module's table, so repeated values cost
    # one object and equal values are equal handles
    cons = super_construction(sl2(), 1)
    susy_report(cons, depth2=1, window=1)
    module = cons.module
    values = module._table.values
    coeffs = [c for out in module._apply_cache.values() for c in out.values()]
    coeffs += [c for out in module._slot_cache.values() for c in out.values()]
    assert len(coeffs) > 2000 and module._gram_cache
    assert all(type(c) is int and 0 < c < len(values) for c in coeffs)
    used = [values[c] for c in set(coeffs)]
    assert len(set(used)) == len(used)
    # the Gram blocks are Scalars: both triangles, the mirrored
    # conjugates too
    assert all(type(x) is Scalar for _, block in module._gram_cache.values()
               for row in block for x in row)
