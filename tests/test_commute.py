"""A module's own composite fields, commuted past the head of a word.

On a vacuum module, a composite field that the state-field map built
acts on a non-empty word h w through the commutator formula with the
head mode h, and keeps its n-th product tree only on the floor.  The
oracle is the same field rebuilt from its JSON tree, which belongs to
no module and so expands its products at every slot.  Which fields
are the module's own is recorded once, in the module's memo; its oracle
is the state-field map, which takes the state of such a field back to
the field itself.
"""

from test_accumulate import _reachable_fields

from nsvertex.constructions import (_current_state, boson_sugawara,
                                    fermion_vosa, super_construction,
                                    susy_report)
from nsvertex.fields import (Field, NthProduct, ScaledSum, bracket_check,
                             creating_state, field_from_tree, field_to_tree,
                             generate_closure, realize, state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import FockModule, VermaModule

SLOTS = range(-3, 4)


def _composites(module) -> list:
    """The composite fields in the module's state-field memo."""
    return [f for f in module._field_cache.values()
            if isinstance(f, (NthProduct, ScaledSum))]


def _assert_matches_trees(fields, module, fresh) -> int:
    """Each field, then each composite that the memo gains meanwhile,
    against its rebuilt tree on fresh, at every slot and basis state of
    grade <= 1; returns the number of fields checked."""
    states = module.basis_upto(2)
    checked = set()
    todo = list(fields)
    while todo:
        for f in todo:
            tree = field_from_tree(field_to_tree(f))
            for n in SLOTS:
                for state in states:
                    assert f.act(n, module, state) \
                        == tree.act(n, fresh, state), (str(f), n, str(state))
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


def test_susy_report_commutes_own_products_past_every_head(monkeypatch):
    # an n-th product that the module's state-field map built is
    # expanded as a tree only on the floor of that module
    tree_act = NthProduct._act

    def floor_only(self, m, module, state):
        if state.word and any(f is self
                              for f in module._field_cache.values()):
            raise AssertionError(f"{self} expanded on {state}")
        return tree_act(self, m, module, state)

    monkeypatch.setattr(NthProduct, "_act", floor_only)
    assert susy_report(super_construction(sl2(), 1), depth2=1,
                       window=1)["valid"]


def test_only_vacuum_modules_commute():
    assert FockModule(colors=2).is_vacuum_module()
    assert FockModule(sl2(), 1).is_vacuum_module()
    assert not FockModule(sl2(), 1, spin2=1).is_vacuum_module()
    assert not VermaModule("ns", 0, 0).is_vacuum_module()
    verma = VermaModule("virasoro", 1, 0)
    # L(-1) L(-1) vac
    f = state_field(verma, verma.level_basis(4)[1])
    assert isinstance(f, NthProduct) and f not in verma._field_cache


def _assert_ownership_is_the_state_field_map(cons) -> int:
    # a field is recorded as the module's own exactly when the
    # state-field map takes its state back to it
    module = cons.module
    fields = _reachable_fields(cons)
    for f in fields:
        v = realize(f, module)
        own = bool(v) and state_field(module, v) is f
        assert (f in module._field_cache) == own, str(f)
    return sum(f in module._field_cache for f in fields)


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
        assert module._field_cache
        assert not [str(k) for k in module._field_cache
                    if isinstance(k, Field)]
