"""Field engine: products, locality, brackets, axiom sweeps.

Frozen expectations were computed by hand from the mode algebra: the
fermion Virasoro state is (1/2) psi(-3/2) psi(-1/2) vac with central
charge 1/2, the singular products of psi against it are {1: psi/2,
0: -psi'/2}, and the normal square of psi vanishes identically.
"""

import math
from fractions import Fraction

import pytest

from nsvertex.constructions import super_construction
from nsvertex.fields import (GeneratorField, IdentityField, NotLocalError,
                             ScaledSum, bracket_from_ope, check_borcherds,
                             check_vosa_axioms, closure_spans,
                             commutator_direct, creating_state,
                             field_from_tree, gbinom, locality_order,
                             ope_singular_part, realize, slot_of_index2,
                             state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import (BasisState, FockModule, Mode, StateVector,
                              VermaModule, _slot_index2,
                              module_from_descriptor)
from nsvertex.scalars import ONE, ZERO, Scalar

PSI = lambda n2, color=0: Mode("psi", color, n2)


def derivative_act(f, n, mod, st):
    """(dA)(n) = -n A(n-1) on a basis state, in closed form."""
    return {s: c * (-n) for s, c in f.act(n - 1, mod, st).items()} if n else {}


def fermion_setup():
    mod = FockModule(colors=1)
    psi = GeneratorField("psi")
    omega = StateVector({BasisState((PSI(-3), PSI(-1)), 0): Fraction(1, 2)})
    return mod, psi, omega


def test_gbinom_matches_product_formula():
    for k in range(-6, 7):
        for j in range(0, 9):
            expect = Fraction(1)
            for i in range(j):
                expect *= Fraction(k - i, i + 1)
            assert gbinom(k, j) == expect


def test_slot_convention():
    assert slot_of_index2(1, -1) == -1    # psi(-1/2)
    assert slot_of_index2(2, -2) == -1    # X(-1)
    assert slot_of_index2(4, -4) == -1    # L(-2)
    assert slot_of_index2(4, 0) == 1      # L(0)
    assert slot_of_index2(3, -1) == 0     # G(-1/2)
    with pytest.raises(ValueError):
        slot_of_index2(1, -2)


def test_slot_and_index_rules_are_inverse():
    for w2 in range(7):
        for n in range(-6, 7):
            assert slot_of_index2(w2, _slot_index2(w2, n)) == n
        for m2 in range(-12 - w2 % 2, 13, 2):
            assert _slot_index2(w2, slot_of_index2(w2, m2)) == m2
    # slot -1 creates: its mode raises the grade by the weight
    assert [_slot_index2(w2, -1) for w2 in (1, 2, 3, 4)] == [-1, -2, -3, -4]


def test_generator_realize_and_annihilate():
    mod, psi, _ = fermion_setup()
    one = StateVector.basis(BasisState((PSI(-1),), 0))
    assert realize(psi, mod) == one
    assert psi.apply(0, mod, one) == mod.vacuum()
    assert not psi.apply(-1, mod, one)


def test_raw_action_equals_the_vector_of_its_entries():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    b = BasisState((PSI(-1),), 0)
    raw = L.act(0, mod, b)          # L(0) = L_{-1} = T
    assert type(raw) is dict
    assert raw == StateVector({BasisState((PSI(-3),), 0): 1})
    assert raw == L.apply(0, mod, StateVector.basis(b))
    assert realize(psi, mod) == psi.act(-1, mod, BasisState((), 0))


def test_fermion_virasoro_field():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    assert L.weight2 == 4 and L.parity == 0
    assert realize(L, mod) == omega
    assert 2 * mod.inner(omega, omega) == Scalar.of(Fraction(1, 2))
    # L(2) against the conformal state gives (c/2) vac
    out = L.apply(3, mod, omega)
    assert out == mod.vacuum().scaled(Fraction(1, 4))
    # grading: slot 1 is L(0)
    for n2 in range(5):
        for b in mod.level_basis(n2):
            u = StateVector.basis(b)
            assert L.apply(1, mod, u) == u.scaled(Fraction(n2, 2))
    # translation: slot 0 is L(-1)
    for n2 in range(5):
        for b in mod.level_basis(n2):
            u = StateVector.basis(b)
            assert L.apply(0, mod, u) == mod.operator_T(u)


def test_normal_square_of_psi_vanishes():
    mod, psi, _ = fermion_setup()
    sq = psi.prod(psi, -1)
    for n2 in range(5):
        for b in mod.level_basis(n2):
            for m in range(-3, 4):
                assert sq.act(m, mod, b) == {}


def test_psi_products_give_virasoro_state():
    mod, psi, omega = fermion_setup()
    assert realize(psi.prod(psi, 0), mod) == mod.vacuum()
    assert realize(psi.prod(psi, -2), mod) == omega.scaled(2)


def test_ope_singular_parts():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    dpsi = StateVector.basis(BasisState((PSI(-3),), 0))
    ope = ope_singular_part(psi, L, mod, 2)
    assert ope[1] == realize(psi, mod).scaled(Fraction(1, 2))
    assert ope[0] == dpsi.scaled(Fraction(-1, 2))
    opell = ope_singular_part(L, L, mod, 4)
    assert opell[3] == mod.vacuum().scaled(Fraction(1, 4))
    assert not opell[2]
    assert opell[1] == omega.scaled(2)
    assert opell[0] == mod.operator_T(omega)
    assert opell[0] == realize(L.prod(IdentityField(), -2), mod)


def test_locality_orders():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    loc = locality_order(psi, psi, mod, depth2=4, window=2)
    assert loc["order"] == 1 and loc["bracket"] == "anticommutator"
    assert loc["parity_consistent"]
    loc = locality_order(psi, L, mod, depth2=4, window=2)
    assert loc["order"] == 2 and loc["bracket"] == "commutator"
    assert loc["parity_consistent"]
    loc = locality_order(L, L, mod, depth2=4, window=2)
    assert loc["order"] == 4 and loc["bracket"] == "commutator"
    assert loc["witness"] is not None
    # an explicit max_order below the true order ends the search there
    with pytest.raises(NotLocalError, match="order <= 3 on this window"):
        locality_order(L, L, mod, depth2=4, window=2, max_order=3)


def test_derivative_field():
    mod, psi, _ = fermion_setup()
    dpsi = psi.prod(IdentityField(), -2)
    assert dpsi.weight2 == 3
    assert realize(dpsi, mod) == StateVector.basis(BasisState((PSI(-3),), 0))
    st = BasisState((PSI(-1),), 0)
    for n in range(-3, 3):
        assert dpsi.act(n, mod, st) == derivative_act(psi, n, mod, st)


def test_identity_is_product_unit():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    for f in (psi, L):
        left = IdentityField().prod(f, -1)
        right = f.prod(IdentityField(), -1)
        for n2 in range(4):
            for b in mod.level_basis(n2):
                for m in range(-3, 3):
                    assert left.act(m, mod, b) == f.act(m, mod, b)
                    assert right.act(m, mod, b) == f.act(m, mod, b)


def test_virasoro_fermion_commutator():
    # [L_m, psi_r] = -(r + m/2) psi_{m+r}
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    states = [b for n2 in range(5) for b in mod.level_basis(n2)]
    for m in range(-2, 3):
        for r2 in (-5, -3, -1, 1, 3, 5):
            slot_L = slot_of_index2(4, 2 * m)
            slot_psi = slot_of_index2(1, r2)
            coeff = -(Fraction(r2, 2) + Fraction(m, 2))
            slot_out = slot_of_index2(1, r2 + 2 * m)
            for b in states:
                got = commutator_direct(L, slot_L, psi, slot_psi, mod, b)
                want = psi.apply(slot_out, mod,
                                 StateVector.basis(b)).scaled(coeff)
                assert got == want


def test_bracket_from_products_matches_direct():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    states = [b for n2 in range(5) for b in mod.level_basis(n2)]
    pairs = [(psi, psi, 1), (psi, L, 2), (L, psi, 2), (L, L, 4)]
    for A, B, order in pairs:
        for m in range(-2, 3):
            for n in range(-2, 3):
                for b in states:
                    direct = commutator_direct(A, m, B, n, mod, b)
                    via = bracket_from_ope(A, m, B, n, order, mod, b)
                    assert direct == via


def test_state_field_inverse_on_affine():
    mod = FockModule(sl2(), 1)
    for n2 in range(5):
        for b in mod.level_basis(n2):
            assert realize(state_field(mod, b), mod) == StateVector.basis(b)


def test_fermion_axiom_report():
    mod, psi, omega = fermion_setup()
    report = check_vosa_axioms(mod, {"psi": psi}, omega, depth2=3, window=2)
    assert report["valid"] is True
    assert all(report["checks"].values())
    assert report["central_charge"] == Scalar.of(Fraction(1, 2))
    assert report["locality_table"]["psi,psi"] == {
        "order": 1, "bracket": "anticommutator"}


def test_borcherds_small_window():
    mod, _, _ = fermion_setup()
    report = check_borcherds(mod, depth2=3, window=2)
    assert report["valid"] is True
    assert report["checked"] > 100
    assert report["failures"] == []


def test_scaled_sum_rejects_mixed_weight():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    with pytest.raises(ValueError):
        ScaledSum([(1, psi), (1, L)])


def test_psi_correlation_is_geometric_series():
    # matrix coefficients of psi(z)psi(w) between vacua reproduce the
    # expansion of 1/(z-w) in the domain |z| > |w|
    mod, psi, _ = fermion_setup()
    vac = StateVector.basis(BasisState((), 0))
    for p in range(-4, 5):
        for q in range(-4, 5):
            vec = psi.apply(p, mod, psi.apply(q, mod, vac))
            want = ONE if (p >= 0 and p + q == -1) else ZERO
            assert mod.inner(vec, vac) == want


def test_derivative_is_identity_slot_product():
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    states = [s for g2 in range(5) for s in mod.level_basis(g2)]
    for f in (psi, L):
        via_id = f.prod(IdentityField(), -2)
        assert via_id.weight2 == f.weight2 + 2
        for n in range(-4, 5):
            for st in states:
                assert via_id.act(n, mod, st) == derivative_act(f, n, mod, st)


def test_translated_state_realizes_derivative_field():
    mod, _, _ = fermion_setup()
    for g2 in range(1, 5):
        for b in mod.level_basis(g2):
            shifted = mod.operator_T(StateVector.basis(b))
            if not shifted:
                continue
            A = state_field(mod, b)
            B = state_field(mod, shifted)
            for n in range(-3, 4):
                for st in mod.level_basis(2):
                    assert B.act(n, mod, st) == derivative_act(A, n, mod, st)


def test_generate_closure_fermion():
    from nsvertex.fields import generate_closure
    mod, psi, _ = fermion_setup()
    rep = generate_closure(mod, {"psi": psi}, 4, window=2)
    assert rep["dims"] == [1, 1, 0, 1, 1]
    assert rep["valid"]
    assert isinstance(rep["fields"][0], IdentityField)
    # the grade-2 spanning state is the doubled Virasoro state
    top = rep["states"][-1]
    omega = fermion_setup()[2]
    assert top == omega.scaled(2)
    key = (len(rep["fields"]) - 1,) * 2
    assert rep["locality_table"][key] == {"order": 4, "bracket": "commutator"}


def test_generate_closure_virasoro_only():
    from nsvertex.fields import generate_closure
    mod, _, omega = fermion_setup()
    L = state_field(mod, omega)
    rep = generate_closure(mod, [L], 4, window=2)
    assert rep["dims"] == [1, 0, 0, 0, 1]
    assert rep["valid"]
    rep = generate_closure(mod, [], 4, window=2)
    assert rep["dims"] == [1, 0, 0, 0, 0]
    assert len(rep["fields"]) == 1


def test_field_tree_roundtrip():
    from nsvertex.fields import field_from_tree, field_to_tree
    mod, psi, omega = fermion_setup()
    L = state_field(mod, omega)
    st = BasisState((PSI(-1),), 0)
    for f in (psi, L, psi.prod(IdentityField(), -2), psi.prod(psi, -2)):
        back = field_from_tree(field_to_tree(f))
        assert back.weight2 == f.weight2 and back.parity == f.parity
        for n in range(-3, 3):
            assert back.act(n, mod, st) == f.act(n, mod, st)
    back = field_from_tree({"gen": "psi", "color": 0})
    assert isinstance(back, GeneratorField)
    assert (back.kind, back.color) == ("psi", 0)
    assert isinstance(field_from_tree({"gen": "id"}), IdentityField)
    with pytest.raises(ValueError):
        field_from_tree({"gen": "bogus"})
    with pytest.raises(ValueError):
        field_from_tree({"what": 1})


def test_vosa_axioms_certify_virasoro_at_requested_window(monkeypatch):
    from nsvertex import fields
    seen = []
    real = fields.virasoro_bracket_check

    def spy(module, omega, depth2=4, window=2):
        seen.append(window)
        return real(module, omega, depth2=depth2, window=window)

    monkeypatch.setattr(fields, "virasoro_bracket_check", spy)
    mod, psi, omega = fermion_setup()
    report = check_vosa_axioms(mod, {"psi": psi}, omega, depth2=1, window=1)
    assert report["checks"]["virasoro"]
    assert seen == [1]


def test_state_field_is_one_field_per_vector():
    mod = FockModule(colors=2)
    v = StateVector({BasisState((PSI(-3, a), PSI(-1, a)), 0): 1
                     for a in range(2)})
    f = state_field(mod, v)
    assert isinstance(f, ScaledSum)
    assert state_field(mod, StateVector(v)) is f
    assert state_field(mod, v.scaled(2)) is not f
    assert state_field(FockModule(colors=2), v) is not f


def test_vosa_axioms_build_one_field_for_omega(monkeypatch):
    from nsvertex import fields
    from nsvertex.constructions import fermion_vosa
    built = []

    class Spy(ScaledSum):
        def __init__(self, terms):
            super().__init__(terms)
            built.append(self)

    monkeypatch.setattr(fields, "ScaledSum", Spy)
    cons = fermion_vosa(1)
    assert check_vosa_axioms(cons.module, cons.fields, cons.omega, depth2=2,
                             window=2)["valid"]
    assert len(built) == 1


# -- products through the state-field map -----------------------------------

# every j below 4 covers the singular products of fields of weight <= 2
ORDER = 4


def super_setup():
    """The sl2 super construction at level 1 with G, L, psi1, x1 and the
    lowest composite of the closure at grade 1, all module state fields."""
    cons = super_construction(sl2(), 1)
    mod = cons.module
    rows = closure_spans(mod, list(cons.fields.values()), 2)[2].rows
    composite = state_field(mod, StateVector(rows[min(rows)]))
    assert isinstance(composite, ScaledSum)
    return mod, [cons.fields["G"], state_field(mod, cons.omega),
                 cons.fields["psi1"], cons.fields["x1"], composite]


def tree_expanded(A, B, j, mod) -> bool:
    """Whether A_j B was evaluated on mod through its product tree: the
    module's slot memo holds a point of it other than the vacuum at
    slot -1."""
    P, vac = A.prod(B, j), BasisState((), 0)
    return any(key[0] is P and key[1:] != (-1, vac)
               for key in mod._slot_cache)


def test_bracket_through_state_fields_matches_product_trees():
    mod, fields = super_setup()
    G = fields[0]
    assert not realize(G.prod(G, 1), mod)
    checked = 0
    for i, A in enumerate(fields):
        for B in fields[i:]:
            for m in range(-1, 2):
                for n in range(-1, 2):
                    for b in mod.basis_upto(2):
                        tree = StateVector()
                        for j in range(ORDER):
                            tree = tree + StateVector(A.prod(B, j).act(
                                m + n - j, mod, b)).scaled(gbinom(m, j))
                        got = bracket_from_ope(A, m, B, n, ORDER, mod, b)
                        assert got == tree
                        checked += 1
    assert checked == 15 * 9 * 10


def test_bracket_sweep_expands_no_product_tree():
    mod, fields = super_setup()
    for A in fields:
        for B in fields:
            for m in range(-1, 2):
                for n in range(-1, 2):
                    for b in mod.basis_upto(2):
                        bracket_from_ope(A, m, B, n, ORDER, mod, b)
    assert not any(tree_expanded(A, B, j, mod) for A in fields
                   for B in fields for j in range(ORDER))


@pytest.mark.parametrize("case", ["field_trees", "verma", "spin_floor"])
def test_bracket_expands_trees_off_the_vacuum_module(case):
    if case == "field_trees":
        mod = module_from_descriptor(
            {"type": "ns_verma", "c": "7/10", "h": "1/10"})
        A, B = field_from_tree({"gen": "G"}), field_from_tree({"gen": "L"})
    elif case == "verma":
        # the vacuum Verma module at h = 0 still has T vac = L(-1) vac
        mod = VermaModule("ns", Fraction(7, 10), 0)
        A, B = (state_field(mod, creating_state(k)) for k in ("G", "L"))
    else:
        mod = FockModule(sl2(), 1, spin2=1)
        A, B = (state_field(mod, creating_state("x", a)) for a in (0, 1))
    order = 2
    for m in range(-1, 2):
        for n in range(-1, 2):
            for b in mod.basis_upto(2):
                assert bracket_from_ope(A, m, B, n, order, mod, b) == \
                    commutator_direct(A, m, B, n, mod, b)
    assert all(tree_expanded(A, B, j, mod) for j in range(order))
