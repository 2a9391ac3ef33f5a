"""The certifying sweep over (m, n, state) and the reports built on it.

Each sweep relation is checked at every m, n in [-window, window] and
every basis state of grade up to depth2/2, m-major.  The expected
failure lists below are written out by hand, and the failing bracket
and supersymmetry runs are cross-checked against loops that do not use
the sweep primitive.
"""

import json
from fractions import Fraction

from nsvertex.cli import main
from nsvertex.constructions import super_construction, susy_report
from nsvertex.fields import (bracket_check, bracket_from_ope,
                             commutator_direct, field_from_tree,
                             locality_order, state_field, sweep_relation,
                             _vec_of)
from nsvertex.liealg import sl2
from nsvertex.modules import (BasisState, FermionFock, Mode, StateVector,
                              VermaModule)
from nsvertex.scalars import Scalar

NS = '{"type":"ns_verma","c":"1/2","h":"0"}'
G_TREE = '{"gen":"G"}'


def test_sweep_reports_failures_m_major():
    module = FermionFock(1)
    states = module.basis_upto(2)
    vac, psi = BasisState((), 0), BasisState((Mode("psi", 0, -1),), 0)
    assert states == [vac, psi]
    bad = {(-1, 0, vac), (-1, 0, psi), (0, 0, psi), (1, -1, vac),
           (1, -1, psi)}
    rep = sweep_relation(module, 2, 1,
                         lambda m, n, state: (m, n, state) in bad,
                         lambda m, n, state: False)
    assert rep["checked"] == 3 ** 2 * len(states)
    assert rep["failures"] == [
        {"m": -1, "n": 0, "state": str(vac)},
        {"m": -1, "n": 0, "state": str(psi)},
        {"m": 0, "n": 0, "state": str(psi)},
        {"m": 1, "n": -1, "state": str(vac)},
        {"m": 1, "n": -1, "state": str(psi)},
    ]


def test_sweep_passes_and_counts_an_empty_window():
    module = FermionFock(1)
    same = lambda m, n, state: m + n
    assert sweep_relation(module, 2, 2, same, same) == {
        "checked": 25 * 2, "failures": []}
    assert sweep_relation(module, 2, -1, same, same) == {
        "checked": 0, "failures": []}


def test_failing_brackets_match_hand_loop_and_cli(capsys):
    # at window 0 the locality search sees too few slots, so the
    # expansion truncates below the true pole order of G against G
    module = VermaModule("ns", Scalar.of(Fraction(1, 2)), Scalar.of(0))
    G = field_from_tree({"gen": "G"})
    rep = bracket_check(G, G, module, 2, 8, 0)
    order = locality_order(G, G, module, depth2=2, window=0)["order"]
    expect = []
    for state in module.level_basis(0) + module.level_basis(1) \
            + module.level_basis(2):
        if commutator_direct(G, 0, G, 0, module, state) != \
                bracket_from_ope(G, 0, G, 0, order, module, state):
            expect.append({"m": 0, "n": 0, "state": str(state)})
    assert expect
    assert rep["order"] == order
    assert rep["checked"] == 3
    assert rep["failures"] == expect
    assert rep["valid"] is False

    code = main(["brackets", "--module", NS, "--field-a", G_TREE,
                 "--field-b", G_TREE, "--depth", "1", "--window", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["failures"] == expect
    assert out["checked"] == 3


def test_susy_report_names_failing_points():
    cons = super_construction(sl2(), 1)
    cons.omega = cons.omega.scaled(2)
    rep = susy_report(cons, depth2=1, window=1)
    assert list(rep["checks"]) == [
        "b_current_algebra", "g_with_currents", "g_with_fermions",
        "ns_anticommutator", "virasoro_g", "virasoro",
        "grading_translation", "g_on_tau", "central_charge_closed_form",
        "explicit_formula"]
    for name, found in rep["failures"].items():
        assert rep["checks"][name] is (not found)
    # omega plays no part in these relations
    for name in ("b_current_algebra", "g_with_currents", "g_with_fermions"):
        assert rep["failures"][name] == []
    assert rep["checks"]["ns_anticommutator"] is False
    failures = rep["failures"]["ns_anticommutator"]
    assert failures
    # re-derive the first failing point by hand: {G_r, G_s} against
    # 2 L_{r+s} plus the central term, with L and c from the doubled omega
    first = failures[0]
    assert set(first) == {"m", "n", "state"}
    module = cons.module
    state = next(s for s in module.basis_upto(1) if str(s) == first["state"])
    m, n = first["m"], first["n"]
    G, L = cons.fields["G"], state_field(module, cons.omega)
    c = 2 * module.inner(cons.omega, cons.omega)
    u = StateVector.basis(state)
    rhs = L.apply(m + n, module, u).scaled(2)
    if m + n == 1:
        r = Fraction(2 * m - 1, 2)
        rhs = rhs + u.scaled(c * Fraction(1, 3) * (r * r - Fraction(1, 4)))
    assert _vec_of(commutator_direct(G, m, G, n, module, state)) != rhs
