"""The one sparse accumulate, linalg._add, and the caches it feeds.

_add(out, vec, coeff) adds coeff * vec into out and drops the entries
that vanish; vec is often a cached action (Field.act, apply_to_basis),
so it must come back unchanged.  The cache test runs a supersymmetry
sweep and then recomputes every cached slot and mode action on a
freshly built construction: a kernel that wrote into a cached dict
would leave an entry that no longer equals its action.
"""

from nsvertex.constructions import super_construction, susy_report
from nsvertex.fields import (Field, NthProduct, ScaledSum, field_from_tree,
                             field_to_tree)
from nsvertex.liealg import sl2
from nsvertex.linalg import _add
from nsvertex.scalars import I, Scalar


def test_add_scales_accumulates_and_drops_vanishing_entries():
    out = {"a": Scalar.of(1), "b": Scalar.of(2)}
    vec = {"a": Scalar.of(-1), "b": Scalar.root(2), "c": I}
    frozen = dict(vec)
    _add(out, vec, 1)
    assert out == {"b": Scalar.of(2) + Scalar.root(2), "c": I}
    assert list(out) == ["b", "c"]
    _add(out, vec, Scalar.root(2))
    assert out == {"a": -Scalar.root(2), "b": Scalar.of(4) + Scalar.root(2),
                   "c": I + I * Scalar.root(2)}
    assert vec == frozen


def _reachable_fields(cons):
    todo = list(cons.fields.values()) + [
        f for f in cons.module._field_cache.values() if isinstance(f, Field)]
    seen = {}
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen[id(f)] = f
        todo += f._prods.values()
        if isinstance(f, NthProduct):
            todo += [f.a, f.b]
        elif isinstance(f, ScaledSum):
            todo += [g for _, g in f.terms]
    return list(seen.values())


def test_cached_actions_equal_a_fresh_recomputation():
    cons = super_construction(sl2(), 1)
    report = susy_report(cons, depth2=1, window=1)
    module = cons.module
    fresh = super_construction(sl2(), 1).module

    assert module._apply_cache
    for (mode, state), out in module._apply_cache.items():
        assert out == fresh.apply_to_basis(mode, state), (mode, state)

    rebuilt = {}
    entries = 0
    for f in _reachable_fields(cons):
        tree = repr(field_to_tree(f))
        if tree not in rebuilt:
            rebuilt[tree] = field_from_tree(field_to_tree(f))
        g = rebuilt[tree]
        for (mod, n, state), out in f._cache.items():
            assert mod is module
            assert out == g.act(n, fresh, state), (str(f), n, str(state))
            entries += 1
    assert entries > 1000
    assert report["valid"]
