"""A construction's own composite fields, commuted past the head of a word.

On a vacuum module, and on each spin floor whose home it is, a
composite field that the vacuum module's state-field map built acts on
a non-empty word h w through the commutator formula with the head mode
h, and keeps its n-th product tree only on floor states.  The oracle is
the same field rebuilt from its JSON tree, which belongs to no module
and so expands its products at every slot, acting on a module without
a home.  Which fields are the module's own is recorded once, in the
home's memo; its oracle is the state-field map, which takes the state
of such a field back to the field itself.
"""

import pytest

from test_accumulate import _reachable_fields

from nsvertex.constructions import (_current_state, boson_sugawara,
                                    fermion_vosa, super_construction,
                                    susy_report, vertex_module, weight_report)
from nsvertex.fields import (NthProduct, ScaledSum, bracket_check,
                             creating_state, field_from_tree, field_to_tree,
                             generate_closure, realize, state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import FockModule, VermaModule

SLOTS = range(-3, 4)


def _composites(module) -> list:
    """The composite fields in the state-field memo of the module's home."""
    return [f for f in (module._home or module)._state_fields.values()
            if isinstance(f, (NthProduct, ScaledSum))]


def _assert_matches_trees(fields, module, fresh) -> int:
    """Each field, then each composite that the home's memo gains
    meanwhile, against its rebuilt tree on fresh, at every slot and basis
    state of grade <= 1; returns the number of fields checked."""
    states = module.basis_upto(2)
    checked = set()
    todo = list(fields)
    while todo:
        for f in todo:
            tree = field_from_tree(field_to_tree(f))
            for n in SLOTS:
                for state in states:
                    assert module.vector(f.act(n, module, state)) \
                        == fresh.vector(tree.act(n, fresh, state)), \
                        (str(f), n, str(state))
            checked.add(f)
        todo = [f for f in _composites(module) if f not in checked]
    return len(checked)


def test_super_construction_fields_match_their_trees():
    make = lambda: super_construction(sl2(), 1)
    cons = make()
    module = cons.module
    L = state_field(module, cons.omega)
    # B^a = X^a + S^a, each the field of its state
    S = [state_field(module, _current_state(module, cons.lie, a))
         for a in range(cons.lie.dim)]
    assert all(isinstance(f, ScaledSum) for f in S + cons.currents)
    named = [cons.fields["G"], L, *cons.currents, *S]
    basis_fields = _composites(module)
    assert _assert_matches_trees(named + basis_fields, module,
                                 make().module) > 30


def test_fermion_and_sugawara_fields_match_their_trees():
    for make in (lambda: fermion_vosa(2), lambda: boson_sugawara(sl2(), 1)):
        cons = make()
        module = cons.module
        L = state_field(module, cons.omega)
        assert isinstance(L, ScaledSum)
        _assert_matches_trees([L] + _composites(module), module,
                              make().module)


def _expand_on_floor_states_only(monkeypatch, home):
    # an n-th product that the home's state-field map built is expanded
    # as a tree only on floor states
    tree_act = NthProduct._act

    def floor_only(self, m, module, state):
        if state.word and any(f is self for f in home._state_fields.values()):
            raise AssertionError(f"{self} expanded on {state}")
        return tree_act(self, m, module, state)

    monkeypatch.setattr(NthProduct, "_act", floor_only)


def test_susy_report_commutes_own_products_past_every_head(monkeypatch):
    cons = super_construction(sl2(), 1)
    _expand_on_floor_states_only(monkeypatch, cons.module)
    assert susy_report(cons, depth2=1, window=1)["valid"]


# H_{1,1/2} (x) F and H_{2,1} (x) F
FLOORS = pytest.mark.parametrize("level, spin2", [(1, 1), (2, 2)])


@FLOORS
def test_spin_floors_commute_their_homes_products_past_every_head(
        monkeypatch, level, spin2):
    vm = vertex_module(sl2(), level, spin2)
    cons, floor = vm["construction"], vm["module"]
    home = cons.module
    _expand_on_floor_states_only(monkeypatch, home)
    G, L = cons.fields["G"], state_field(home, cons.omega)
    assert weight_report(vm, depth2=2)["valid"]
    for A, B in ((G, G), (G, L), (L, L)):
        assert bracket_check(A, B, floor, 2, 1)["valid"]
    # the floor fills its home's memos and keeps none of its own, and
    # shares the home's coefficient table
    assert home._product_fields and home._head_terms
    assert not (floor._own_states or floor._product_fields
                or floor._head_terms)
    assert floor._table is home._table


@FLOORS
def test_spin_floor_fields_match_their_trees(level, spin2):
    vm = vertex_module(sl2(), level, spin2)
    cons, floor = vm["construction"], vm["module"]
    named = [cons.fields["G"], state_field(cons.module, cons.omega),
             *cons.currents]
    fresh = FockModule(sl2(), level, 3, spin2)
    assert fresh._home is None
    assert _assert_matches_trees(named, floor, fresh) > 30


def test_only_vacuum_modules_commute():
    assert FockModule(colors=2).is_vacuum_module()
    assert FockModule(sl2(), 1).is_vacuum_module()
    assert not FockModule(sl2(), 1, spin2=1).is_vacuum_module()
    assert not VermaModule("ns", 0, 0).is_vacuum_module()
    verma = VermaModule("virasoro", 1, 0)
    # L(-1) L(-1) vac
    f = state_field(verma, verma.level_basis(4)[1])
    assert isinstance(f, NthProduct) and f not in verma._own_states


def _assert_ownership_is_the_state_field_map(cons) -> int:
    # a field is recorded as the module's own exactly when the
    # state-field map takes its state back to it
    module = cons.module
    fields = _reachable_fields(cons)
    for f in fields:
        v = realize(f, module)
        own = bool(v) and state_field(module, v) is f
        assert (f in module._own_states) == own, str(f)
    return sum(f in module._own_states for f in fields)


def test_the_memo_records_exactly_the_state_field_maps_fields():
    cons = super_construction(sl2(), 1)
    assert susy_report(cons, depth2=1, window=1)["valid"]
    assert _assert_ownership_is_the_state_field_map(cons) > 30
    cons = fermion_vosa(2)
    rep = generate_closure(cons.module, cons.fields, 4)
    assert rep["valid"] and len(rep["fields"]) == 10
    assert _assert_ownership_is_the_state_field_map(cons) >= 10


def test_modules_that_are_not_vacuum_modules_own_no_field():
    verma = VermaModule("ns", 1, 0)
    spin = FockModule(sl2(), 1, spin2=1)
    for module, gens in ((verma, (("G", 0), ("L", 0))),
                         (spin, (("x", 0), ("x", 1)))):
        A, B = (state_field(module, creating_state(*g)) for g in gens)
        assert bracket_check(A, B, module, 2, 1)["valid"]
        for state in module.basis_upto(2):
            if state.floor == 0:
                state_field(module, state)
        assert module._state_fields
        assert not [str(k) for k in module._own_states]
        # a product of fields that no home owns is A's own product memo
        assert not module._product_fields
