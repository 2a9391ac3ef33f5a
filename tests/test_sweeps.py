"""The certifying sweep and the reports built on it.

`sweep` checks two sides at every point of an ordered list of dicts;
the (m, n, state) window runs m, n over [-window, window] and every
basis state of grade up to depth2/2, m-major.  The expected failure
lists below are written out by hand, and the failing bracket, axiom
and supersymmetry runs are cross-checked against loops that do not use
the sweep primitive.
"""

import json
from fractions import Fraction

import pytest

from nsvertex.certify import sweep
from nsvertex.cli import _json_ready, main
from nsvertex.constructions import (boson_sugawara, current_bracket_report,
                                    fermion_vosa, g_fermion_system,
                                    super_construction, susy_report,
                                    verify_jacobi_cocycle,
                                    verify_super_cocycle,
                                    _current_algebra_sweep, _jacobi_sweep,
                                    _super_sweep)
from nsvertex.fields import (Field, GeneratorField, IdentityField,
                             NotLocalError, NthProduct, ScaledSum,
                             adjoint_sweep, bracket_check, bracket_from_ope, bracket_sweep,
                             check_borcherds, check_vosa_axioms,
                             commutator_direct, field_from_tree,
                             locality_order, locality_table, state_field,
                             window_points)
from nsvertex.liealg import sl2
from nsvertex.modules import (BasisState, FockModule, Mode, StateVector,
                              VermaModule)
from nsvertex.scalars import I, Scalar

NS = '{"type":"ns_verma","c":"1/2","h":"0"}'
G_TREE = '{"gen":"G"}'


def test_sweep_reports_failures_m_major():
    module = FockModule(colors=1)
    states = module.basis_upto(2)
    vac, psi = BasisState((), 0), BasisState((Mode("psi", 0, -1),), 0)
    assert states == [vac, psi]
    bad = {(-1, 0, vac), (-1, 0, psi), (0, 0, psi), (1, -1, vac),
           (1, -1, psi)}
    rep = sweep(window_points(module, 2, 1),
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
    module = FockModule(colors=1)
    same = lambda m, n, state: m + n
    assert sweep(window_points(module, 2, 2), same, same) == {
        "checked": 25 * 2, "failures": []}
    assert sweep(window_points(module, 2, -1), same, same) == {
        "checked": 0, "failures": []}


def test_bracket_sweep_with_doubled_c_fails_where_a_hand_loop_does():
    cons = fermion_vosa(2)
    module = cons.module
    L = state_field(module, cons.omega)
    c2 = 2 * cons.central_charge
    one = IdentityField()
    rep = bracket_sweep(module, 3, 2, [({}, L, 1, L, 1, lambda m, n: [
        (m - n, L, m + n + 1),
        (c2 * Fraction(m ** 3 - m, 12) if m + n == 0 else 0, one, -1)])])
    expect = []
    for m in range(-2, 3):
        for n in range(-2, 3):
            for state in module.basis_upto(3):
                u = StateVector.basis(state)
                rhs = L.apply(m + n + 1, module, u).scaled(m - n)
                if m + n == 0:
                    rhs = rhs + u.scaled(c2 * Fraction(m ** 3 - m, 12))
                if module.vector(commutator_direct(L, m + 1, L, n + 1, module,
                                                   state)) != rhs:
                    expect.append({"m": m, "n": n, "state": str(state)})
    # the central term differs only at m + n = 0 with m^3 != m
    assert expect and {(p["m"], p["n"]) for p in expect} == {(-2, 2), (2, -2)}
    assert rep == {"checked": 25 * len(module.basis_upto(3)),
                   "failures": expect}


def test_bracket_sweep_labels_points_in_case_order():
    module = FockModule(colors=1)
    psi = state_field(module, BasisState((Mode("psi", 0, -1),), 0))
    one = IdentityField()
    # {psi(m), psi(n)} = delta_{m+n+1}; both cases drop the central term
    cases = [({"k": k, "tag": tag}, psi, 0, psi, 0, lambda m, n: [])
             for k, tag in ((2, "x"), (1, "y"))]
    rep = bracket_sweep(module, 1, 1, cases)
    states = module.basis_upto(1)
    assert rep["checked"] == 2 * 9 * len(states)
    assert rep["failures"] == [
        {"k": k, "tag": tag, "m": m, "n": -1 - m, "state": str(state)}
        for k, tag in ((2, "x"), (1, "y")) for m in (-1, 0)
        for state in states]
    right = [({}, psi, 0, psi, 0, lambda m, n: [
        (1 if m + n == -1 else 0, one, -1)])]
    assert bracket_sweep(module, 1, 1, right)["failures"] == []
    assert bracket_sweep(module, 1, 1, []) == {"checked": 0, "failures": []}


def test_failing_brackets_match_hand_loop_and_cli(capsys):
    # at window 0 the locality search sees too few slots, so the
    # expansion truncates below the true pole order of G against G
    module = VermaModule("ns", Scalar.of(Fraction(1, 2)), Scalar.of(0))
    G = field_from_tree({"gen": "G"})
    rep = bracket_check(G, G, module, 2, 0)
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
    assert module.vector(commutator_direct(G, m, G, n, module, state)) != rhs


def test_sweep_visits_points_in_order_and_prints_states():
    psi = BasisState((Mode("psi", 0, -1),), 0)
    seen = []

    def lhs(k, state):
        seen.append((k, state))
        return k % 2

    points = [{"k": k, "state": psi} for k in (3, 0, 1, 2)]
    rep = sweep(iter(points), lhs, lambda k, state: 0)
    assert seen == [(3, psi), (0, psi), (1, psi), (2, psi)]
    assert rep == {"checked": 4, "failures": [{"k": 3, "state": str(psi)},
                                              {"k": 1, "state": str(psi)}]}
    # the points themselves are left alone
    assert points[0]["state"] is psi
    assert sweep([], lhs, lhs) == {"checked": 0, "failures": []}
    assert sweep(iter(()), lhs, lhs) == {"checked": 0, "failures": []}


@pytest.mark.parametrize("argv", [
    ["brackets", "--module", NS, "--field-a", G_TREE, "--field-b", G_TREE,
     "--depth", "1", "--window", "-1"],
    ["axioms", "--construction", "fermion", "--window", "-3"],
    ["susy-check", "--algebra", "sl2", "--level", "1", "--window", "-2"],
    ["ope", "--module", '{"type":"fermion","colors":1}', "--field-a",
     '{"gen":"psi"}', "--field-b", '{"gen":"psi"}', "--window", "-1"],
])
def test_negative_window_is_rejected(capsys, monkeypatch, argv):
    # rejected before any construction is built or any sweep runs
    import nsvertex.cli as cli
    for name in ("super_construction", "fermion_vosa", "boson_sugawara",
                 "bracket_check", "locality_order"):
        monkeypatch.setattr(cli, name, None)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --window must be nonnegative\n"


def test_window_zero_is_still_a_valid_sweep(capsys):
    code = main(["axioms", "--construction", "fermion", "--depth", "1",
                 "--window", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_locality_table_raises_what_is_not_a_locality_verdict():
    # a field the module cannot act with is an input error, not a
    # non-local pair
    named = [("L", GeneratorField("L")), ("psi", GeneratorField("psi"))]
    with pytest.raises(ValueError, match="FockModule has no L modes"):
        locality_table(named, FockModule(colors=1), 2, 1)


class Warped(Field):
    """psi with its slot n scaled by 2^(n^2): odd, of weight 1/2, and
    not local with itself or psi at any order, the scale not being a
    polynomial in n."""

    weight2, parity = 1, 1

    def __init__(self):
        super().__init__()
        self.psi = GeneratorField("psi")

    def _act(self, n, module, state):
        table = module._table
        scale = table.handle(2 ** (n * n))
        return {st: table.product(c, scale)
                for st, c in self.psi.act(n, module, state).items()}


def test_a_nonlocal_pair_fails_within_its_weight_bound():
    module = FockModule(colors=1)
    W, psi = Warped(), GeneratorField("psi")
    with pytest.raises(NotLocalError, match="order <= 1 on this window"):
        locality_order(W, W, module, depth2=2, window=2)
    with pytest.raises(NotLocalError, match="order <= 1 on this window"):
        bracket_check(W, W, module, 2, 2)
    assert locality_table([("w", W), ("psi", psi)], module, 2, 2) == {
        ("w", "w"): None, ("w", "psi"): None,
        ("psi", "psi"): {"order": 1, "bracket": "anticommutator"}}


def test_vosa_axioms_name_a_nonlocal_pair():
    cons = fermion_vosa(1)
    rep = check_vosa_axioms(cons.module, {"w": Warped()}, cons.omega,
                            depth2=2, window=2)
    assert rep["locality_table"] == {"w,w": None}
    assert rep["checks"]["locality"] is False
    assert rep["failures"]["locality"] == [{"pair": "w,w"}]
    assert rep["valid"] is False
    # the scale also breaks [T, W(n)] = -n W(n - 1), so translation
    # fails too; every other check holds
    for name, found in rep["failures"].items():
        bad = name in ("locality", "translation")
        assert rep["checks"][name] is not bad, name
        assert bool(found) is bad, name


def test_vosa_axioms_with_doubled_omega_match_hand_loops():
    cons = fermion_vosa(1)
    module, omega = cons.module, cons.omega.scaled(2)
    depth2, window = 3, 1
    rep = check_vosa_axioms(module, cons.fields, omega, depth2=depth2,
                            window=window)
    L = state_field(module, omega)
    c = 2 * module.inner(omega, omega)
    states = [s for g2 in range(depth2 + 1) for s in module.level_basis(g2)]

    grading = []
    for state in states:
        u = StateVector.basis(state)
        grade = Fraction(sum(-mode.n2 for mode in state.word), 2)
        if L.apply(1, module, u) != u.scaled(grade) \
                or L.apply(0, module, u) != module.operator_T(u):
            grading.append({"state": str(state)})

    virasoro = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            for state in states:
                u = StateVector.basis(state)
                lhs = L.apply(m + 1, module, L.apply(n + 1, module, u)) \
                    - L.apply(n + 1, module, L.apply(m + 1, module, u))
                rhs = L.apply(m + n + 1, module, u).scaled(m - n)
                if m + n == 0:
                    rhs = rhs + u.scaled(c * Fraction(m ** 3 - m, 12))
                if lhs != rhs:
                    virasoro.append({"m": m, "n": n, "state": str(state)})

    assert grading and virasoro
    assert rep["failures"]["grading"] == grading
    assert rep["failures"]["virasoro"] == virasoro
    assert rep["central_charge"] == c
    # omega plays no part in the other checks
    for name in ("vacuum", "state_field", "irreducibility", "translation",
                 "locality", "parity"):
        assert rep["failures"][name] == []
    assert {k for k, v in rep["checks"].items() if not v} == {
        "grading", "virasoro"}


AXIOM_CHECKS = ["vacuum", "state_field", "irreducibility", "translation",
                "locality", "virasoro", "grading", "parity"]


@pytest.mark.parametrize("build, depth2", [
    (lambda: fermion_vosa(1), 2),
    (lambda: g_fermion_system(sl2()), 1),
    (lambda: boson_sugawara(sl2(), 1), 1),
    (lambda: super_construction(sl2(), 1), 1),
])
def test_vosa_axioms_of_the_constructions_have_no_failures(build, depth2):
    cons = build()
    rep = check_vosa_axioms(cons.module, cons.fields, cons.omega,
                            depth2=depth2, window=1)
    assert list(rep["checks"]) == AXIOM_CHECKS
    assert list(rep["failures"]) == AXIOM_CHECKS
    assert all(v is True for v in rep["checks"].values())
    assert all(found == [] for found in rep["failures"].values())
    assert rep["valid"] is True
    assert None not in rep["locality_table"].values()


def test_susy_report_names_each_generator_of_a_doubled_g():
    cons = super_construction(sl2(), 1)
    G = cons.fields["G"]
    cons.fields["G"] = ScaledSum([(2, G)])
    rep = susy_report(cons, depth2=1, window=1)
    module, B = cons.module, cons.currents
    for name in ("g_with_currents", "g_with_fermions"):
        failures = rep["failures"][name]
        assert failures and rep["checks"][name] is False
        assert all(set(p) == {"a", "m", "n", "state"} for p in failures)
        assert {p["a"] for p in failures} == {1, 2, 3}
        # a-major: every point of a generator before the next one's
        assert [p["a"] for p in failures] == sorted(p["a"] for p in failures)
    # the first failing point of [G, B^a] fails for the doubled G only
    first = rep["failures"]["g_with_currents"][0]
    state = next(s for s in module.basis_upto(1) if str(s) == first["state"])
    a, m, n = first["a"] - 1, first["m"], first["n"]
    doubled = commutator_direct(cons.fields["G"], m, B[a], n, module, state)
    assert doubled and module.vector(doubled) == module.vector(
        commutator_direct(G, m, B[a], n, module, state)).scaled(2)


def test_current_algebra_sweep_order_and_count():
    # a wrong level breaks exactly the central term: a == b, m + n = 0,
    # m != 0, at every state; the sweep runs a, b, m, n, state
    cons = g_fermion_system(sl2())
    module, lie, S = cons.module, cons.lie, cons.currents
    g = lie.dual_coxeter()
    states = module.basis_upto(1)
    rep = _current_algebra_sweep(module, lie, S, g + 1, 1, 1)
    assert rep["checked"] == 3 * 3 * 3 * 3 * len(states)
    expect = [{"a": a, "b": a, "m": m, "n": -m, "state": str(state)}
              for a in (1, 2, 3) for m in (-1, 1) for state in states]
    assert rep["failures"] == expect
    ok = current_bracket_report(cons, depth2=1, window=1)
    assert ok["checked"] == rep["checked"]
    assert ok["failures"] == [] and ok["valid"] is True


def borcherds_hand_loop(module, depth2, nwin=2, window=2):
    """check_borcherds as nested loops, without the sweep primitive."""
    vac_states = module.basis_upto(depth2)
    checked = 0
    failures = []
    for sa in vac_states:
        A = state_field(module, sa)
        for sb in vac_states:
            B = state_field(module, sb)
            N = locality_order(A, B, module, depth2=depth2,
                               window=window)["order"]
            for n in range(-nwin, N):
                prod_state = module.vector(A.act(n, module, sb))
                U = state_field(module, prod_state) if prod_state else None
                for m in range(-window, window + 1):
                    for v in vac_states:
                        lhs = module.vector(A.prod(B, n).act(m, module, v))
                        if U is None:
                            rhs = StateVector()
                        else:
                            rhs = U.apply(m, module, StateVector.basis(v))
                        checked += 1
                        if lhs != rhs:
                            failures.append({"a": str(sa), "b": str(sb),
                                             "n": n, "m": m, "v": str(v)})
    return {"checked": checked, "failures": failures, "valid": not failures}


@pytest.mark.parametrize("depth2", [3, 4])
def test_borcherds_sweep_matches_hand_loop(depth2):
    rep = check_borcherds(FockModule(colors=1), depth2=depth2)
    assert rep == borcherds_hand_loop(FockModule(colors=1), depth2)
    assert rep["checked"] > 0 and rep["valid"] is True


def test_failing_borcherds_sweep_matches_hand_loop(monkeypatch):
    # doubling every 0-th product breaks the left side wherever A_0 B acts;
    # the basis fields of the fermion module use only (-2)-nd products
    real = NthProduct._act

    def doubled(self, m, module, state):
        out = real(self, m, module, state)
        table = module._table
        return {s: table.product(c, table.handle(2))
                for s, c in out.items()} if self.k == 0 else out

    monkeypatch.setattr(NthProduct, "_act", doubled)
    rep = check_borcherds(FockModule(colors=1), depth2=3)
    assert rep["failures"] and rep["valid"] is False
    assert rep == borcherds_hand_loop(FockModule(colors=1), 3)


def test_adjoint_sweep_names_the_vectors_of_a_failing_field():
    # i psi is not its own adjoint: <i psi(s) u, v> = -<u, i psi(s') v>
    cons = fermion_vosa(1)
    module, psi = cons.module, cons.fields["psi1"]
    good = adjoint_sweep(module, [("psi", psi)], 2, 3)
    bad = adjoint_sweep(module, [("bad", ScaledSum([(I, psi)]))], 2, 3)
    assert good["valid"] and good["failures"] == []
    # the same weight draws the same points
    assert bad["checked"] == good["checked"] > 0
    assert not bad["valid"] and bad["failures"]
    for failure in bad["failures"]:
        assert set(failure) == {"field", "slot", "grade", "u", "v"}
        assert failure["field"] == "bad"
        u, v = failure["u"], failure["v"]
        assert isinstance(u, StateVector) and u and v
        assert module.inner(psi.apply(failure["slot"], module, u), v)
        assert {Fraction(s.grade2, 2) for s, _ in u.items()} == {
            Fraction(failure["grade"])}
        assert _json_ready(failure)["u"] == _json_ready(u)


# -- cocycle sweeps on integer tables ---------------------------------------

def jacobi_hand_loop(A, nmax):
    """(m, n, p) where (m-n) A(p) + (n-p) A(m) + (p-m) A(n) != 0, in
    Fractions, m-major."""
    def a(k):
        return Fraction(A[k] if k in A else -A[-k])

    out = []
    for m in range(-nmax, nmax + 1):
        for n in range(-nmax, nmax + 1):
            p = -m - n
            if abs(p) <= nmax and (m - n) * a(p) + (n - p) * a(m) \
                    + (p - m) * a(n):
                out.append({"m": m, "n": n, "p": p})
    return out


def super_hand_loop(A, C):
    """(r2, s2) where 2 A(n) + (s - n/2) C(r) + (r - n/2) C(s) != 0 at
    n = -(r + s), in Fractions; an n that A does not table fails."""
    out = []
    for r2 in C:
        for s2 in C:
            r, s = Fraction(r2, 2), Fraction(s2, 2)
            n = -(r + s)
            if n not in A and -n not in A:
                out.append({"r2": r2, "s2": s2})
                continue
            a = Fraction(A[n] if n in A else -A[-n])
            if 2 * a + (s - n / 2) * Fraction(C[r2]) \
                    + (r - n / 2) * Fraction(C[s2]):
                out.append({"r2": r2, "s2": s2})
    return out


def test_cocycle_sweeps_on_integer_tables_fail_where_fractions_do():
    nmax = smax2 = 7
    A = {n: Fraction(n, 3) for n in range(-nmax, nmax + 1)}
    # A(n) = n/3 pairs with the constant odd term C = 1/3
    C = {s2: Fraction(1, 3) for s2 in range(-smax2, smax2 + 1, 2)}
    assert jacobi_hand_loop(A, nmax) == [] and super_hand_loop(A, C) == []
    assert verify_jacobi_cocycle(A, nmax) and verify_super_cocycle(A, C)

    bad = {**A, 2: A[2] + Fraction(1, 7)}
    failures = jacobi_hand_loop(bad, nmax)
    assert failures and _jacobi_sweep(bad, nmax) == {
        "checked": len(range(-nmax, nmax + 1)) ** 2 - nmax * (nmax + 1),
        "failures": failures}
    failures = super_hand_loop(bad, C)
    assert failures and _super_sweep(bad, C) == {"checked": len(C) ** 2,
                                                 "failures": failures}
    odd = {**C, 3: C[3] + Fraction(1, 7)}
    failures = super_hand_loop(A, odd)
    assert failures and _super_sweep(A, odd)["failures"] == failures
    assert not verify_jacobi_cocycle(bad, nmax)
    assert not verify_super_cocycle(bad, C)
