"""Basis states carry their grade.

``BasisState(word, floor)`` stores the doubled grade of its word as a
third field, and ``_rest`` and ``_prepend`` derive states from it
without summing the word again.  On every basis state up to grade 3
of three modules, the field must equal -sum n2, derived states must
equal and hash like fresh ones, states must survive pickle and copy,
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
from nsvertex.modules import (BasisState, FockModule, StateVector,
                              VermaModule, state_grade2)

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
        assert s.grade2 == state_grade2(s) == -sum(m.n2 for m in s.word)


def test_derived_states_equal_fresh_ones(states):
    derived = 0
    for s in states:
        fresh = BasisState(s.word, s.floor)
        assert fresh == s and hash(fresh) == hash(s)
        if s.word:
            rest = s._rest()
            want = BasisState(s.word[1:], s.floor)
            assert rest == want and hash(rest) == hash(want)
            again = rest._prepend(s.word[0])
            assert again == s and hash(again) == hash(s)
            assert again.grade2 == s.grade2
            derived += 1
    assert derived


def test_pickle_and_copy_round_trip(states):
    for s in states:
        for twin in [pickle.loads(pickle.dumps(s, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] \
                + [copy.copy(s), copy.deepcopy(s)]:
            assert type(twin) is BasisState
            assert twin == s and twin.grade2 == s.grade2


def test_sorted_items_order_by_grade_word_and_floor(states):
    shuffled = list(states)
    random.Random(0).shuffle(shuffled)
    vec = StateVector((s, 1) for s in shuffled)
    assert [s for s, _ in vec.sorted_items()] == sorted(
        states, key=lambda s: (-sum(m.n2 for m in s.word), s.word, s.floor))
