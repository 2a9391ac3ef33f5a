"""Basis states are interned and carry their grade.

``BasisState(word, floor)`` returns the one live state of that word and
floor, which stores the doubled grade of its word, and ``_rest`` and
``_prepend`` derive states from it without summing the word again.  On
every basis state up to grade 3 of three modules, the grade must equal
-sum n2; a fresh, a derived, an unpickled or a copied state, and the
state of the same word and floor in a module built apart, must be the
very same object; states must sort as their (word, floor) tuples do,
and ``StateVector.sorted_items`` must order by grade, then word, then
floor.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from nsvertex.constructions import super_construction
from nsvertex.liealg import sl2
from nsvertex.modules import BasisState, FockModule, StateVector, VermaModule

MODULES = {
    "super_construction": lambda: super_construction(sl2(), 1).module,
    "sl2_spin_floor": lambda: FockModule(sl2(), 1, 3, 1),
    "ns_verma": lambda: VermaModule("ns", Fraction(7, 10), Fraction(1, 10)),
}


@pytest.fixture(params=MODULES)
def states(request):
    return MODULES[request.param]().basis_upto(6)


def test_grade_is_minus_the_index_sum(states):
    for s in states:
        assert s.grade2 == -sum(m.n2 for m in s.word)


def test_derived_states_equal_fresh_ones(states):
    derived = 0
    for s in states:
        fresh = BasisState(s.word, s.floor)
        assert fresh is s and fresh == s and hash(fresh) == hash(s)
        assert BasisState(tuple(s.word), s.floor) is s
        if s.word:
            rest = s._rest()
            want = BasisState(s.word[1:], s.floor)
            assert rest is want and hash(rest) == hash(want)
            assert s._rest() is rest
            again = rest._prepend(s.word[0])
            assert again is s and again.grade2 == s.grade2
            derived += 1
    assert derived


def test_pickle_and_copy_round_trip(states):
    for s in states:
        for twin in [pickle.loads(pickle.dumps(s, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] \
                + [copy.copy(s), copy.deepcopy(s)]:
            assert type(twin) is BasisState
            assert twin is s and twin.grade2 == s.grade2


def test_sorted_items_order_by_grade_word_and_floor(states):
    shuffled = list(states)
    random.Random(0).shuffle(shuffled)
    vec = StateVector((s, 1) for s in shuffled)
    assert [s for s, _ in vec.sorted_items()] == sorted(
        states, key=lambda s: (-sum(m.n2 for m in s.word), s.word, s.floor))


def test_states_sort_as_their_word_and_floor_tuples(states):
    shuffled = list(states)
    random.Random(1).shuffle(shuffled)
    want = sorted(shuffled, key=lambda s: (s.word, s.floor))
    assert sorted(shuffled) == want
    assert min(shuffled) is want[0] and max(shuffled) is want[-1]
    for a, b in zip(want, want[1:]):
        assert a < b and b > a and not b < a and a != b


def test_modules_built_apart_share_their_states():
    # two constructions, and the bare fermion module whose words the
    # super construction's fermion part repeats
    first = super_construction(sl2(), 1).module.basis_upto(4)
    second = super_construction(sl2(), 1).module.basis_upto(4)
    assert all(a is b for a, b in zip(first, second))
    assert len(first) == len(second)
    fermions = FockModule(colors=3).basis_upto(4)
    shared = {s.word: s for s in first}
    assert all(shared[s.word] is s for s in fermions)
    assert len(fermions) > 10


def test_states_are_distinct_objects_per_word_and_floor():
    floor = FockModule(sl2(), 1, 3, 1)
    states = floor.basis_upto(4)
    assert len({id(s) for s in states}) == len(states) \
        == len({(s.word, s.floor) for s in states})
    vac0, vac1 = BasisState((), 0), BasisState((), 1)
    assert vac0 is not vac1 and vac0 != vac1
    assert vac0 != ((), 0) and vac0 != ((), 0, 0)
