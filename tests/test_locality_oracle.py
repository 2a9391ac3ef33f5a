"""The locality search against its reference.

``tests/locality_oracle.py`` sums every locality coefficient in full,
with no output-grade cut, no merged compositions and no memo.  Its
report (order, bracket, witness and parity verdict) must equal the one
of ``fields.locality_order`` on every pair, and on a pair that is not
local both searches must raise the same error.
"""

from fractions import Fraction
from itertools import product

import pytest

import locality_oracle
from nsvertex.constructions import fermion_vosa, super_construction
from nsvertex.fields import (GeneratorField, NotLocalError, field_from_tree,
                             locality_order, state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import FockModule, VermaModule
from test_sweeps import Warped


def _assert_reports_match(pairs, module, depth2, window):
    for A, B in pairs:
        got = locality_order(A, B, module, depth2=depth2, window=window)
        want = locality_oracle.locality_order(A, B, module, depth2=depth2,
                                              window=window)
        assert got == want, (str(A), str(B))


def test_fermion_pairs_of_criterion_02():
    cons = fermion_vosa(1)
    psi = GeneratorField("psi")
    L = state_field(cons.module, cons.omega)
    _assert_reports_match([(psi, psi), (psi, L), (L, psi), (L, L)],
                          cons.module, 8, 3)


def test_super_construction_fields_and_L():
    cons = super_construction(sl2(), 1)
    fields = [f for _, f in sorted(cons.fields.items())]
    fields.append(state_field(cons.module, cons.omega))
    _assert_reports_match(product(fields, fields), cons.module, 2, 2)


def test_field_trees_on_the_ns_verma_module():
    module = VermaModule("ns", Fraction(7, 10), Fraction(1, 10))
    fields = [field_from_tree({"gen": k}) for k in ("G", "L")]
    _assert_reports_match(product(fields, fields), module, 4, 3)


def test_a_heavy_pair_at_its_weight_bound():
    # psi_(-5)psi has weight 5: the search runs to the bound 10
    psi = GeneratorField("psi")
    heavy = psi.prod(psi, -5)
    module = FockModule(colors=1)
    _assert_reports_match([(heavy, heavy)], module, 1, 1)
    assert locality_order(heavy, heavy, module, depth2=1,
                          window=1)["order"] == 10


def test_a_nonlocal_pair_raises_the_same_error():
    # Warped scales psi's slot n by 2^(n^2): local at no order
    module = FockModule(colors=1)
    W = Warped()
    messages = []
    for search in (locality_order, locality_oracle.locality_order):
        with pytest.raises(NotLocalError) as err:
            search(W, W, module, depth2=2, window=2)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == \
        "fields not local at order <= 1 on this window"
