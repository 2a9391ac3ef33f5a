"""The one sparse accumulate, scalars._add, and the caches it feeds.

_add(out, vec, k, table) adds k * vec into out and drops the entries
that vanish, on dicts of handles of one Coefficients table; vec is
often a cached action (Field.act, apply_to_basis), so it must come back
unchanged.  Every product and running sum is read from the table's memo
or made, numbered and stored there; each result is read back through
the table and checked against the naive Scalar loop on values drawn so
that sums often cancel, with a fresh table, with one table whose memo
the operands hit again, and with operands dropped and re-made so that
a new Scalar takes a freed one's place: a handle names a value, not an
object, so it stays valid.  Every handle that a module's memos hold
must index that module's table.  The cache test runs a supersymmetry
sweep and then recomputes every cached slot and mode action on a
freshly built construction: a kernel that wrote into a cached dict
would leave an entry that no longer equals its action.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from nsvertex.constructions import (super_construction, susy_report,
                                    vertex_module, weight_report)
from nsvertex.fields import (GeneratorField, IdentityField, NthProduct,
                             ScaledSum, closure_spans, field_from_tree,
                             field_to_tree)
from nsvertex.liealg import sl2
from nsvertex.linalg import _add
from nsvertex.scalars import I, ONE, ZERO, Coefficients, Scalar

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=400)

# few values, so that products of an entry and a coefficient often meet
# an entry of out with the opposite sign
numbers = st.sampled_from([Fraction(n, d) for n in (-2, -1, 1, 2)
                           for d in (1, 2, 3)])
monomials = st.builds(lambda r, q: Scalar({r: q}),
                      st.sampled_from([1, 2, 3, 6, -1, -2]), numbers)
multi_terms = st.builds(lambda q, p, r: Scalar({1: q, r: p}), numbers,
                        numbers, st.sampled_from([2, 3, -1]))
entries = st.one_of(monomials, multi_terms, st.just(ONE))
coefficients = st.one_of(st.integers(-2, 2), numbers, monomials, multi_terms,
                         st.just(ONE))
vectors = st.dictionaries(st.integers(0, 5), entries, max_size=6)


def naive_add(out: dict, vec: dict, coeff) -> dict:
    out = dict(out)
    for key, c in vec.items():
        value = out.get(key, ZERO) + c * coeff
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def handles(vec: dict, table: Coefficients) -> dict:
    return {key: table.handle(c) for key, c in vec.items()}


def scalars(vec: dict, table: Coefficients) -> dict:
    return {key: table.values[h] for key, h in vec.items()}


def assert_valid(table: Coefficients):
    """Every value is in lowest terms and has one handle: its own."""
    assert table.values[0] is ZERO and table.values[1] is ONE
    for h, value in enumerate(table.values):
        assert value._d > 0 and gcd(value._d, *value._t.values()) == 1
        assert table.handle(value) == h
    assert len(table.handles) == len(table.values)


@SETTINGS
@given(vectors, vectors, coefficients)
def test_add_equals_the_naive_scalar_loop(out, vec, coeff):
    want = naive_add(out, vec, coeff)
    table = Coefficients()
    got, hvec, k = handles(out, table), handles(vec, table), \
        table.handle(coeff)
    before, frozen = dict(got), list(hvec.items())
    _add(got, hvec, k, table)
    assert scalars(got, table) == want
    assert list(got) == list(want)
    assert list(hvec.items()) == frozen
    assert all(h for h in got.values())
    for key, h in got.items():
        if key not in before:
            # an entry new to out passes the unit factor through
            if k == 1:
                assert h == hvec[key]
            elif hvec[key] == 1:
                assert h == k
    assert_valid(table)


def test_add_deletes_an_entry_that_cancels_exactly():
    table = Coefficients()
    h = table.handle
    out = {"a": h(Fraction(1, 3)), "b": 1}
    _add(out, {"a": h(Scalar.root(2)), "b": h(Scalar.root(2))},
         h(Scalar({2: Fraction(-1, 6)})), table)
    assert out == {"b": h(Fraction(2, 3))}
    _add(out, {"b": h(Scalar({2: Fraction(1, 2)}))},
         h(Scalar({2: Fraction(-2, 3)})), table)
    assert out == {}


def test_add_scales_accumulates_and_drops_vanishing_entries():
    table = Coefficients()
    h = table.handle
    out = {"a": h(1), "b": h(2)}
    vec = {"a": h(-1), "b": h(Scalar.root(2)), "c": h(I)}
    frozen = dict(vec)
    _add(out, vec, 1, table)
    assert out == {"b": h(Scalar.of(2) + Scalar.root(2)), "c": h(I)}
    assert list(out) == ["b", "c"]
    _add(out, vec, h(Scalar.root(2)), table)
    assert out == {"a": h(-Scalar.root(2)),
                   "b": h(Scalar.of(4) + Scalar.root(2)),
                   "c": h(I + I * Scalar.root(2))}
    assert vec == frozen
    # the zero handle adds nothing
    _add(out, vec, 0, table)
    assert scalars(out, table)["c"] == I + I * Scalar.root(2)


@SETTINGS
@given(st.lists(st.tuples(vectors, coefficients), min_size=1, max_size=6))
def test_add_through_one_table_equals_the_naive_loop(steps):
    # one table for the whole run: each step adds into the last result,
    # and runs twice, so that the second run reads every product and sum
    # from the memo and makes no new value
    table = Coefficients()
    out = {}
    for vec, coeff in steps:
        hvec, k = handles(vec, table), table.handle(coeff)
        want = naive_add(scalars(out, table), vec, coeff)
        for run in range(2):
            sizes = (len(table.values), len(table.sums),
                     sum(map(len, table.products.values())))
            got = dict(out)
            _add(got, hvec, k, table)
            assert scalars(got, table) == want
            assert list(got) == list(want)
            assert all(0 < h < len(table.values) for h in got.values())
            if run:
                assert sizes == (len(table.values), len(table.sums),
                                 sum(map(len, table.products.values())))
        out = got
    assert_valid(table)


def test_handles_stay_valid_while_operands_are_dropped_and_remade():
    # operands made afresh and dropped after each call: a new Scalar
    # often takes the memory, and so the id(), of one just freed, with
    # another value.  A handle names a value, so the one of an equal
    # value comes back, and the memo answers for handles, never objects
    table = Coefficients()
    k = table.handle(Scalar.root(2))
    values = [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)]
    seen, reused, named = {}, 0, {}
    for step in range(4 * len(values)):
        q = values[step * 7 % len(values)]
        r = (1, 2, 3, -1)[step % 4]
        c, total = Scalar({r: q}), Scalar({r: q + 1})
        reused += seen.get(id(c), (c._d, c._t)) != (c._d, c._t)
        seen[id(c)] = (c._d, c._t)
        hc = table.handle(c)
        assert named.setdefault((r, q), hc) == hc
        assert table.values[hc] == c
        out = {"a": table.handle(total), "b": 1}
        vec = {"a": hc, "b": hc, "c": 1}
        want = naive_add({"a": total, "b": ONE},
                         {"a": c, "b": c, "c": ONE}, Scalar.root(2))
        _add(out, vec, k, table)
        assert scalars(out, table) == want
        del c, total, out, vec
    assert reused
    assert_valid(table)


def _memo_handles(module):
    """(where, handle) for every coefficient that the module's memos
    hold."""
    found = [("apply", h) for out in module._apply_cache.values()
             for h in out.values()]
    found += [("slot", h) for out in module._slot_cache.values()
              for h in out.values()]
    found += [("bracket", h) for out in module._bracket_cache.values()
              for h, _ in out]
    found += [("head_terms", h) for out in module._head_terms.values()
              for _, _, h in out]
    found += [("own_states", h) for vec in module._own_states.values()
              for h in vec.values()]
    found += [("state_fields", h) for key in module._state_fields
              if isinstance(key, frozenset) for _, h in key]
    return found


def test_memos_equal_plain_arithmetic_after_a_sweep():
    cons = super_construction(sl2(), 1)
    assert susy_report(cons, depth2=1, window=1)["valid"]
    table = cons.module._table
    values = table.values
    products = [(c, k, p) for k, memo in table.products.items()
                for c, p in memo.items()]
    sums = [(a, b, s) for (a, b), s in table.sums.items()]
    assert len(products) > 50 and len(sums) > 50
    for c, k, p in products:
        assert values[p] == values[c] * values[k]
    for a, b, s in sums:
        assert values[s] == values[a] + values[b]
    assert_valid(table)


def test_every_memo_handle_indexes_its_own_table():
    # a construction's vacuum module, its spin floor, which shares the
    # home's table, and an echelon with a table of its own
    vm = vertex_module(sl2(), 1, 1)
    cons = vm["construction"]
    assert susy_report(cons, depth2=1, window=1)["valid"]
    assert weight_report(vm, depth2=2)["valid"]
    home, floor = cons.module, vm["module"]
    assert floor._table is home._table
    size = len(home._table.values)
    found = _memo_handles(home) + _memo_handles(floor)
    assert {where for where, _ in found} == {
        "apply", "slot", "bracket", "head_terms", "own_states",
        "state_fields"}
    assert [(where, h) for where, h in found
            if type(h) is not int or not 0 < h < size] == []
    spans = closure_spans(home, list(cons.fields.values()), 2)
    for span in spans:
        rows = [h for row in span.rows.values() for h in row.values()]
        assert all(type(h) is int and 0 < h < len(span._table.values)
                   for h in rows)
        assert span._table is not home._table


def _reachable_fields(cons):
    todo = list(cons.fields.values()) + list(cons.module._state_fields.values())
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
    entries = 0
    for (mode, state), out in module._apply_cache.items():
        assert module.vector(out) == fresh.vector(
            fresh.apply_to_basis(mode, state)), (mode, state)
        entries += 1

    rebuilt = {}
    for (f, n, state), out in module._slot_cache.items():
        tree = repr(field_to_tree(f))
        if tree not in rebuilt:
            rebuilt[tree] = field_from_tree(field_to_tree(f))
        g = rebuilt[tree]
        assert module.vector(out) == fresh.vector(g.act(n, fresh, state)), \
            (str(f), n, str(state))
        entries += 1
    assert entries > 1000
    assert report["valid"]


def test_generator_and_identity_fields_keep_no_slot_memo():
    # a generator's slot action is the module's apply memo, and the
    # identity's is the state itself: neither is stored a second time
    cons = super_construction(sl2(), 1)
    assert susy_report(cons, depth2=1, window=1)["valid"]
    plain = [f for f in _reachable_fields(cons)
             if isinstance(f, (GeneratorField, IdentityField))]
    assert {type(f) for f in plain} == {GeneratorField, IdentityField}
    assert not [str(f) for f, _, _ in cons.module._slot_cache
                if isinstance(f, (GeneratorField, IdentityField))]
