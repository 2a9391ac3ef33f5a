"""Tests for the composite constructions.

Expected values are frozen from closed-form evaluation: central charges
from the rational formulas, current normalizations from the structure
constants, and graded dimensions from the character recursions.
"""

from fractions import Fraction

import pytest

from nsvertex.constructions import (Construction, boson_sugawara,
                                    central_charges, cocycle_span,
                                    current_bracket_report,
                                    current_square_state, diagonal_norm,
                                    even_cocycle_from_initials, fermion_omega,
                                    fermion_vosa, g_fermion_system,
                                    odd_central_term, submodule_dims,
                                    sugawara_central_charge,
                                    super_construction, susy_central_charge,
                                    susy_report, verify_jacobi_cocycle,
                                    verify_super_cocycle, vertex_module,
                                    weight_report, _current_state, _word)
from nsvertex.fields import (GeneratorField, check_vosa_axioms,
                             commutator_direct, realize, state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import (BasisState, FockModule, Mode, StateVector,
                              VermaModule)
from nsvertex.scalars import ZERO, I, Scalar


def half(num, den=1):
    return Fraction(num, den)


def test_fermion_vosa():
    cons = fermion_vosa(1)
    assert cons.central_charge == Scalar.of(half(1, 2))
    rep = check_vosa_axioms(cons.module, cons.fields, cons.omega, depth2=2,
                            window=2)
    assert rep["valid"]
    assert all(rep["checks"].values())


def test_fermion_omega_is_half_psi_pair():
    cons = fermion_vosa(2)
    st = BasisState((Mode("psi", 1, -3), Mode("psi", 1, -1)), 0)
    assert cons.omega.get(st, ZERO) == Scalar.of(half(1, 2))
    assert cons.central_charge == Scalar.of(1)


def test_current_state_normalization():
    # S^3 = -(i/2) Gamma_ab^3 psi^a psi^b collapses to i sqrt(2) psi^2 psi^1
    s3 = _current_state(FockModule(colors=3), sl2(), 2)
    st = BasisState((Mode("psi", 1, -1), Mode("psi", 0, -1)), 0)
    assert s3.get(st, ZERO) == Scalar.root(-2)
    assert len(list(s3.items())) == 1
    assert st.grade2 == 2


def test_current_brackets_close_at_dual_coxeter_level():
    cons = g_fermion_system(sl2())
    rep = current_bracket_report(cons, depth2=2, window=2)
    assert rep["valid"]
    assert not rep["failures"]
    assert rep["checked"] > 1000
    assert rep["measured_level"] == Scalar.of(2)
    assert rep["expected_level"] == Scalar.of(2)


def test_currents_rotate_fermions_in_adjoint():
    # [S^a_m, psi^b_n] = i Gamma_ab^c psi^c_{m+n}
    lie = sl2()
    cons = g_fermion_system(lie)
    mod = cons.module
    S = cons.currents
    psi = [GeneratorField("psi", a) for a in range(3)]
    states = [s for g2 in range(3) for s in mod.level_basis(g2)]
    for a in range(3):
        for b in range(3):
            gamma = lie.bracket_coeffs(a, b)
            for m in range(-2, 3):
                for n in range(-2, 3):
                    for state in states:
                        lhs = commutator_direct(S[a], m, psi[b], n, mod,
                                                state)
                        u = StateVector.basis(state)
                        rhs = StateVector()
                        for c, coeff in gamma:
                            rhs = rhs + psi[c].apply(m + n, mod, u).scaled(
                                I * coeff)
                        assert lhs == rhs


def test_current_square_is_four_g_omega():
    cons = g_fermion_system(sl2())
    sq = current_square_state(cons)
    assert sq == fermion_omega(cons.module).scaled(8)
    assert cons.central_charge == Scalar.of(half(3, 2))


def test_sugawara_central_charges():
    assert sugawara_central_charge(3, 2, 1) == 1
    assert sugawara_central_charge(3, 2, 2) == half(3, 2)
    for level in (1, 2):
        cons = boson_sugawara(sl2(), level)
        assert cons.level == level
        assert cons.central_charge == central_charges(sl2(), level)["c_boson"]
        assert cons.central_charge == Scalar.of(
            sugawara_central_charge(3, 2, level))
    assert boson_sugawara(sl2(), 1).central_charge == Scalar.of(1)
    assert boson_sugawara(sl2(), 2).central_charge == Scalar.of(half(3, 2))


def test_sugawara_axioms():
    cons = boson_sugawara(sl2(), 1)
    rep = check_vosa_axioms(cons.module, cons.fields, cons.omega, depth2=2,
                            window=2)
    assert rep["valid"]
    assert rep["central_charge"] == Scalar.of(1)


def test_diagonal_norm_matches_verma_gram():
    c, h = half(1, 2), half(1, 16)
    mod = VermaModule("virasoro", c, h)
    for n in (1, 2, 3):
        u = StateVector.basis(BasisState((Mode("L", 0, -2 * n),), 0))
        assert mod.inner(u, u) == diagonal_norm(c, h, n)
    assert diagonal_norm(c, h, 2) == Scalar.of(half(1, 2))


def test_super_central_charge_formula():
    assert susy_central_charge(3, 2, 1) == half(5, 2)
    assert susy_central_charge(3, 2, 0) == half(3, 2)
    cons = super_construction(sl2(), 1)
    assert cons.central_charge == Scalar.of(half(5, 2))
    assert cons.level + cons.lie.dual_coxeter() == Scalar.of(3)


def taus(module, lie, level):
    """tau1 = sum_a X^a_{-1} psi^a_{-1/2} vac and tau2 = sum_c psi^c_{-1/2}
    S^c vac, each written out mode by mode."""
    half_i = I * Fraction(-1, 2)
    tau1 = sum((_word(module, Mode("x", a, -2), Mode("psi", a, -1))
                for a in range(lie.dim) if level > 0), StateVector())
    tau2 = sum((_word(module, Mode("psi", c, -1), Mode("psi", a, -1),
                      Mode("psi", b, -1)).scaled(half_i * coeff)
                for a in range(lie.dim) for b in range(lie.dim)
                for c in range(lie.dim)
                if (coeff := lie.gamma_entry(a, b, c))), StateVector())
    return tau1, tau2


def test_tau_pinning():
    # psi^b_{1/2} tau2 = 3 S^b, so the 1/3 weight makes psi^b_{1/2} tau
    # the degree^(-1/2) multiple of the B^b state
    cons = super_construction(sl2(), 1)
    mod = cons.module
    _, tau2 = taus(mod, cons.lie, 1)
    for b in range(3):
        got = mod.apply(Mode("psi", b, 1), tau2)
        assert got == _current_state(mod, cons.lie, b).scaled(3)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_g_creates_the_mode_built_tau(level):
    # tau = (level + g)^(-1/2) (tau1 + tau2 / 3)
    lie = sl2()
    cons = super_construction(lie, level)
    tau1, tau2 = taus(cons.module, lie, level)
    tau = (tau1 + tau2.scaled(half(1, 3))).scaled(
        Scalar.sqrt_fraction(Fraction(1, level + 2)))
    assert tau and realize(cons.fields["G"], cons.module) == tau
    assert cons.lie is lie and cons.level == level
    assert len(cons.currents) == 3


def test_construction_rebuilt_from_its_parts_gives_the_same_susy_report():
    cons = super_construction(sl2(), 1)
    rebuilt = Construction(cons.name, cons.module, dict(cons.fields),
                           cons.omega, lie=cons.lie, level=cons.level,
                           currents=list(cons.currents))
    rep = susy_report(rebuilt, depth2=1, window=1)
    assert rep["valid"]
    assert rep == susy_report(cons, depth2=1, window=1)


def test_susy_report_level_one():
    cons = super_construction(sl2(), 1)
    rep = susy_report(cons, depth2=2, window=2)
    assert rep["valid"], rep["checks"]
    assert rep["central_charge"] == Scalar.of(half(5, 2))
    assert rep["degree"] == 3


def test_super_level_zero_degenerates_to_fermions():
    cons = super_construction(sl2(), 0)
    assert cons.central_charge == Scalar.of(half(3, 2))


def test_super_rejects_negative_degree():
    with pytest.raises(ValueError):
        super_construction(sl2(), -2)


def test_vertex_module_weights():
    vm = vertex_module(sl2(), 1, 1)
    assert vm["h"] == half(1, 4)
    rep = weight_report(vm, depth2=4)
    assert rep["valid"]
    assert [lv["dim"] for lv in rep["levels"]] == [2, 6, 12, 26, 54]
    assert vertex_module(sl2(), 1, 0)["h"] == 0
    assert vertex_module(sl2(), 2, 2)["h"] == half(1, 2)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_vertex_module_at_spin_zero_is_the_construction_module(level):
    vm = vertex_module(sl2(), level, 0)
    assert vm["module"] is vm["construction"].module
    assert weight_report(vm, depth2=2)["valid"]


def test_vertex_module_rejects_floor_above_level():
    with pytest.raises(ValueError):
        vertex_module(sl2(), 1, 2)


def test_even_cocycle_span():
    A = even_cocycle_from_initials(1, 2, 12)
    assert cocycle_span(A) == (1, 0)
    assert verify_jacobi_cocycle(A, 12)
    A = even_cocycle_from_initials(1, 8, 12)
    assert cocycle_span(A) == (0, 1)
    assert A[3] == 27 and A[-3] == -27
    assert verify_jacobi_cocycle(A, 12)
    A = even_cocycle_from_initials(0, 6, 12)
    assert cocycle_span(A) == (-1, 1)
    assert verify_jacobi_cocycle(A, 12)


def test_cocycle_span_rejects_other_functions():
    with pytest.raises(ValueError):
        cocycle_span({1: half(1), 2: half(2), 3: half(4)})


def test_odd_central_term_values():
    C = odd_central_term(half(1, 2), 3)
    assert C[1] == 0 and C[-1] == 0
    assert C[3] == half(1, 3) and C[-3] == half(1, 3)
    assert set(C) == {-3, -1, 1, 3}


def test_super_cocycle_pairing():
    for c in (0, half(1, 2), half(5, 2)):
        A = {n: c * Fraction(n ** 3 - n, 12) for n in range(-12, 13)}
        C = odd_central_term(c, 11)
        assert verify_super_cocycle(A, C)
    A = {n: half(1, 2) * Fraction(n ** 3 - n, 12) for n in range(-12, 13)}
    assert not verify_super_cocycle(A, odd_central_term(half(5, 2), 11))


def test_virasoro_submodule_of_fermion_matches_irreducible():
    cons = fermion_vosa(1)
    dims = submodule_dims(cons.module, state_field(cons.module, cons.omega),
                          10)
    assert dims == [1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2]
    verma = VermaModule("virasoro", half(1, 2), 0)
    assert dims == verma.irreducible_dims(10)


def test_central_charges_table():
    from nsvertex.constructions import central_charges
    cc = central_charges(sl2(), 1, 1)
    assert cc["c_fermion"] == Scalar.of(half(3, 2))
    assert cc["c_boson"] == Scalar.of(1)
    assert cc["c_total"] == Scalar.of(half(5, 2))
    assert cc["h"] == Scalar.of(half(1, 4))
    assert cc["c_total"] == cc["c_fermion"] + cc["c_boson"]
    cc = central_charges(sl2(), 0)
    assert cc["c_boson"] == Scalar.of(0)
    assert cc["c_total"] == cc["c_fermion"]
    cc = central_charges(sl2(), 2, 2)
    assert cc["c_total"] == Scalar.of(3)
    assert cc["h"] == Scalar.of(half(1, 2))


def test_cocycle_basis_certificate():
    from nsvertex.constructions import cocycle_basis
    rep = cocycle_basis(12)
    assert rep["valid"]
    assert rep["dimension"] == 2
    assert rep["spans"] == [(1, 0), (0, 1), (-1, 1)]
    assert rep["basis"][0][5] == 5
    assert rep["basis"][1][5] == 125
    assert rep["pinned"][5] == 120
    with pytest.raises(ValueError):
        cocycle_basis(2)


def test_verify_odd_cocycle_closed_forms():
    from nsvertex.constructions import verify_odd_cocycle
    for c in (0, half(1, 2), half(5, 2)):
        assert verify_odd_cocycle(c, 11)
    # replacing the odd term with s^2 breaks the pairing
    bad = {s2: Fraction(s2, 2) ** 2 for s2 in range(-5, 6) if s2 % 2}
    A = {n: half(1, 2) * Fraction(n ** 3 - n, 12) for n in range(-6, 7)}
    assert not verify_super_cocycle(A, bad)


def test_verify_odd_cocycle_needs_an_odd_pair():
    from nsvertex.constructions import verify_odd_cocycle
    assert verify_odd_cocycle(half(1, 2), 1)
    for smax2 in (0, -1):
        with pytest.raises(ValueError, match="smax must be at least 1/2"):
            verify_odd_cocycle(half(1, 2), smax2)


def test_super_level_zero_susy_report():
    cons = super_construction(sl2(), 0)
    assert cons.module.kinds == {"psi": 3} and cons.module.lie is None
    rep = susy_report(cons, depth2=2, window=2)
    assert rep["valid"], rep["checks"]
    assert rep["central_charge"] == Scalar.of(half(3, 2))
    assert rep["degree"] == 2


def test_tau_coefficient_sweep():
    # only the 1/3 weight on tau2 makes psi^b_{1/2} tau the B^b state
    cons = super_construction(sl2(), 1)
    mod = cons.module
    tau1, tau2 = taus(mod, cons.lie, 1)
    for b in range(3):
        want = StateVector.basis(BasisState((Mode("x", b, -2),), 0)) \
            + _current_state(mod, cons.lie, b)
        # the B^b state
        assert realize(cons.currents[b], mod) == want
        for t in (half(1, 3), half(0), half(1), half(1, 2), half(-1, 3),
                  half(1, 6), half(2, 3)):
            got = mod.apply(Mode("psi", b, 1), tau1 + tau2.scaled(t))
            assert (got == want) == (t == half(1, 3))


def test_axiom_report_detects_scaled_omega():
    from nsvertex.fields import check_vosa_axioms
    cons = fermion_vosa(1)
    rep = check_vosa_axioms(cons.module, cons.fields, cons.omega.scaled(2),
                            depth2=2, window=2)
    assert not rep["checks"]["virasoro"]
    assert not rep["valid"]
