"""The one sparse accumulate, scalars._add, and the caches it feeds.

_add(out, vec, coeff, table) adds coeff * vec into out and drops the
entries that vanish; vec is often a cached action (Field.act,
apply_to_basis), so it must come back unchanged.  Every product and
running sum is read from the table's memo or made and interned there;
each is checked against the naive Scalar loop on values drawn so that
sums often cancel, with a fresh table, with one table whose memo the
operands hit again, and with operands dropped and re-made so that a new
object takes a freed one's id().  The cache test runs a supersymmetry
sweep and then recomputes every cached slot and mode action on a
freshly built construction: a kernel that wrote into a cached dict
would leave an entry that no longer equals its action.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from nsvertex.constructions import super_construction, susy_report
from nsvertex.fields import (GeneratorField, IdentityField, NthProduct,
                             ScaledSum, field_from_tree, field_to_tree)
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


@SETTINGS
@given(vectors, vectors, coefficients)
def test_add_equals_the_naive_scalar_loop(out, vec, coeff):
    want = naive_add(out, vec, coeff)
    before, frozen = dict(out), list(vec.items())
    _add(out, vec, coeff, Coefficients())
    assert out == want
    assert list(out) == list(want)
    assert list(vec.items()) == frozen
    for key, value in out.items():
        assert value and value._d > 0 and gcd(value._d, *value._t.values()) == 1
        if key not in before:
            # an entry new to out passes the unit factor through
            c = vec[key]
            if coeff is ONE or type(coeff) is int and coeff == 1:
                assert value is c
            elif c is ONE and type(coeff) is Scalar:
                assert value is coeff


def test_add_deletes_an_entry_that_cancels_exactly():
    half_root2 = Scalar({2: Fraction(1, 2)})
    out, table = {"a": Scalar.of(Fraction(1, 3)), "b": ONE}, Coefficients()
    _add(out, {"a": Scalar.root(2), "b": Scalar.root(2)},
         Scalar({2: Fraction(-1, 6)}), table)
    assert out == {"b": Scalar.of(Fraction(2, 3))}
    _add(out, {"b": half_root2}, Scalar({2: Fraction(-2, 3)}), table)
    assert out == {}


def test_add_scales_accumulates_and_drops_vanishing_entries():
    out = {"a": Scalar.of(1), "b": Scalar.of(2)}
    vec = {"a": Scalar.of(-1), "b": Scalar.root(2), "c": I}
    frozen, table = dict(vec), Coefficients()
    _add(out, vec, 1, table)
    assert out == {"b": Scalar.of(2) + Scalar.root(2), "c": I}
    assert list(out) == ["b", "c"]
    _add(out, vec, Scalar.root(2), table)
    assert out == {"a": -Scalar.root(2), "b": Scalar.of(4) + Scalar.root(2),
                   "c": I + I * Scalar.root(2)}
    assert vec == frozen


@SETTINGS
@given(st.lists(st.tuples(vectors, coefficients), min_size=1, max_size=6))
def test_add_through_one_table_equals_the_naive_loop(steps):
    # one table for the whole run: each step adds into the last result,
    # and runs twice, so that the second run reads every product and sum
    # from the memo and makes no new value
    table = Coefficients()
    out = {}
    for vec, coeff in steps:
        vec = {key: table.intern(c) for key, c in vec.items()}
        want = naive_add(out, vec, coeff)
        for run in range(2):
            sizes = (len(table.values), len(table.sums),
                     sum(map(len, table.products.values())))
            got = dict(out)
            _add(got, vec, coeff, table)
            assert got == want
            assert list(got) == list(want)
            assert all(id(value) in table.owned for value in got.values())
            if run:
                assert sizes == (len(table.values), len(table.sums),
                                 sum(map(len, table.products.values())))
        out = got


def test_add_reads_no_memo_entry_through_a_reused_id():
    # operands made afresh and dropped after each call: a new Scalar
    # often takes the id() of one just freed, with another value, and a
    # memo keyed by that id must not answer for it
    table = Coefficients()
    k = table.intern(Scalar.root(2))
    values = [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)]
    seen, reused = {}, 0
    for step in range(4 * len(values)):
        q = values[step * 7 % len(values)]
        r = (1, 2, 3, -1)[step % 4]
        c, total = Scalar({r: q}), Scalar({r: q + 1})
        reused += seen.get(id(c), (c._d, c._t)) != (c._d, c._t)
        seen[id(c)] = (c._d, c._t)
        out = {"a": total, "b": ONE}
        vec = {"a": c, "b": c, "c": ONE}
        want = naive_add(out, vec, k)
        _add(out, vec, k, table)
        assert out == want
        del c, total, out, vec
    assert reused


def test_memos_equal_plain_arithmetic_after_a_sweep():
    cons = super_construction(sl2(), 1)
    assert susy_report(cons, depth2=1, window=1)["valid"]
    table = cons.module._table
    by_id = {id(c): c for c in table.values.values()}
    assert set(by_id) == table.owned
    products = [(by_id[ic], by_id[ik], p)
                for ik, memo in table.products.items()
                for ic, p in memo.items()]
    sums = [(by_id[ia], by_id[ib], s) for (ia, ib), s in table.sums.items()]
    multiples = [(by_id[ic], n, p) for (ic, n), p in table.multiples.items()]
    assert len(products) > 50 and len(sums) > 50 and len(multiples) > 20
    for c, k, p in products:
        assert p == c * k and id(p) in table.owned
    for a, b, s in sums:
        assert s == a + b and id(s) in table.owned
    for c, n, p in multiples:
        assert type(n) is int and p == c * n and id(p) in table.owned


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
        assert out == fresh.apply_to_basis(mode, state), (mode, state)
        entries += 1

    rebuilt = {}
    for (f, n, state), out in module._slot_cache.items():
        tree = repr(field_to_tree(f))
        if tree not in rebuilt:
            rebuilt[tree] = field_from_tree(field_to_tree(f))
        g = rebuilt[tree]
        assert out == g.act(n, fresh, state), (str(f), n, str(state))
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
