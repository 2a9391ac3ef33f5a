"""Acceptance gate: one check per headline identity, each printing a
single pass/fail line with its runtime.  Run with `pytest -s` to see
the lines as they complete."""

import time
from fractions import Fraction

from nsvertex.constructions import (boson_sugawara, central_charges,
                                    cocycle_basis,
                                    current_bracket_report,
                                    current_square_state, diagonal_norm,
                                    fermion_omega, fermion_vosa,
                                    g_fermion_system, submodule_dims,
                                    super_construction, susy_report,
                                    verify_odd_cocycle, vertex_module,
                                    weight_report)
from nsvertex.fields import (GeneratorField, bracket_check, check_borcherds,
                             closure_spans, generate_closure, locality_order,
                             state_field, virasoro_bracket_check)
from nsvertex.liealg import sl2
from nsvertex.modules import FockModule, StateVector, VermaModule
from nsvertex.scalars import Scalar


def report(num: int, ok: bool, detail: str, t0: float):
    line = (f"criterion {num:2d} {'PASS' if ok else 'FAIL'} "
            f"({time.time() - t0:5.1f}s): {detail}")
    print(line)
    assert ok, line


def test_criterion_01_fermion_central_charge():
    t0 = time.time()
    cons = fermion_vosa(1)
    c_ok = cons.central_charge == Scalar.of(Fraction(1, 2))
    vir = virasoro_bracket_check(cons.module, cons.omega, depth2=8, window=3)
    report(1, c_ok and vir["valid"],
           f"fermion c = 1/2, Virasoro bracket on {vir['checked']} "
           "(m, n, state) triples to grade 4", t0)


def test_criterion_02_locality_orders():
    t0 = time.time()
    cons = fermion_vosa(1)
    module = cons.module
    psi = GeneratorField("psi")
    L = state_field(module, cons.omega)
    expected = [(psi, psi, 1, "anticommutator"),
                (psi, L, 2, "commutator"),
                (L, L, 4, "commutator")]
    ok = True
    got = []
    for A, B, order, bracket in expected:
        loc = locality_order(A, B, module, depth2=8, window=3)
        got.append(loc["order"])
        if (loc["order"], loc["bracket"]) != (order, bracket) \
                or not loc["parity_consistent"]:
            ok = False
    report(2, ok, f"locality orders (psi,psi), (psi,L), (L,L) = {got}", t0)


def test_criterion_03_g_fermion_identities():
    t0 = time.time()
    cons = g_fermion_system(sl2())
    brackets = current_bracket_report(cons, depth2=2, window=2)
    level_ok = brackets["measured_level"] == Scalar.of(2)
    square_ok = current_square_state(cons) == \
        fermion_omega(cons.module).scaled(8)
    c_ok = cons.central_charge == Scalar.of(Fraction(3, 2))
    report(3, brackets["valid"] and level_ok and square_ok and c_ok,
           "sl2 currents from fermions: level 2 affine relations, "
           "sum of squares = 8 omega, c = 3/2", t0)


def test_criterion_04_sugawara_central_charges():
    t0 = time.time()
    ok = True
    values = []
    for level, c in ((1, 1), (2, Fraction(3, 2))):
        cons = boson_sugawara(sl2(), level)
        measured = cons.central_charge
        closed = central_charges(sl2(), level)["c_boson"]
        values.append(str(measured))
        if not (measured == closed == Scalar.of(c)):
            ok = False
    report(4, ok, f"Sugawara sl2 levels 1, 2 give c = {values}, "
           "measured equal to closed form", t0)


def test_criterion_05_supersymmetry_suite():
    t0 = time.time()
    cons = super_construction(sl2(), 1)
    rep = susy_report(cons, depth2=4, window=2)
    c_ok = rep["central_charge"] == Scalar.of(Fraction(5, 2))
    root_ok = rep["checks"]["g_with_currents"] and \
        rep["checks"]["g_with_fermions"]
    failed = [k for k, v in rep["checks"].items() if not v]
    report(5, rep["valid"] and c_ok and root_ok,
           "super sl2 level 1 to grade 2: all "
           f"{len(rep['checks'])} relations hold, c = 5/2"
           + (f"; FAILED {failed}" if failed else ""), t0)


def test_criterion_06_vertex_module_weight():
    t0 = time.time()
    vm = vertex_module(sl2(), 1, 1)
    h_ok = vm["h"] == Fraction(1, 4)
    wr = weight_report(vm, depth2=4)
    report(6, h_ok and wr["valid"],
           "spin-1/2 module at level 1: h = 1/4 and D = L0 - 1/4 "
           "grades every level to 2", t0)


def test_criterion_07_minimal_submodule_dimensions():
    t0 = time.time()
    module = FockModule(colors=1)
    L = state_field(module, fermion_omega(module))
    generated = submodule_dims(module, L, 10)
    irreducible = VermaModule("virasoro", Scalar.of(Fraction(1, 2)),
                              Scalar.of(0)).irreducible_dims(10)
    report(7, generated == irreducible,
           f"Virasoro submodule of the fermion space has dims {generated} "
           "to grade 5, equal to the irreducible (1/2, 0) quotient", t0)


def test_criterion_08_borcherds_associativity():
    t0 = time.time()
    cons = fermion_vosa(1)
    rep = check_borcherds(cons.module, depth2=4, window=2)
    report(8, rep["valid"] and rep["checked"] > 0,
           f"product-state consistency on {rep['checked']} "
           "(a, b, n, m, v) tuples to grade 2", t0)


def test_criterion_09_cocycle_propositions():
    t0 = time.time()
    basis = cocycle_basis(12)
    even_ok = basis["valid"] and basis["dimension"] == 2
    odd_ok = all(verify_odd_cocycle(Fraction(c), 11)
                 for c in (0, Fraction(1, 2), Fraction(5, 2)))
    report(9, even_ok and odd_ok,
           "central terms span {n, n^3} to n = 12; odd pairing holds for "
           "c in {0, 1/2, 5/2} to |s| = 11/2", t0)


def test_criterion_10_ghost_boundary():
    t0 = time.time()
    grid = [(Fraction(1, 2), Fraction(-1, 4)), (0, -1),
            (Fraction(-1, 2), Fraction(1, 4)), (-1, 1)]
    ok = True
    for c, h in grid:
        if h < 0:
            witness2 = 1
        else:
            witness = next(n for n in range(1, 9)
                           if diagonal_norm(c, h, n).as_fraction() < 0)
            witness2 = 2 * witness
        rep = VermaModule("ns", Scalar.of(c),
                          Scalar.of(h)).ghost_report(witness2)
        if not rep["has_ghost"]:
            ok = False
        elif Fraction(rep["first_negative_grade"]) > Fraction(witness2, 2):
            ok = False
    # (1/2, 0) is unitary for the even subalgebra: clean to grade 4 there,
    # and clean to grade 2 in the full sector
    even = VermaModule("virasoro", Scalar.of(Fraction(1, 2)),
                       Scalar.of(0)).ghost_report(8)
    shallow = VermaModule("ns", Scalar.of(Fraction(1, 2)),
                          Scalar.of(0)).ghost_report(4)
    report(10, ok and not even["has_ghost"] and not shallow["has_ghost"],
           "ghosts appear by the closed-form level whenever h < 0 or "
           "2nh + cn(n^2-1)/12 < 0 for n <= 8; none at unitary (1/2, 0)", t0)


def test_criterion_11_bracket_cross_check():
    t0 = time.time()
    checked = 0
    ok = True

    cons = fermion_vosa(1)
    module = cons.module
    closure = generate_closure(module, cons.fields, 4)
    fermion_fields = closure["fields"]
    for A in fermion_fields:
        for B in fermion_fields:
            rep = bracket_check(A, B, module, 4, 2)
            checked += rep["checked"]
            ok = ok and rep["valid"]

    cons = super_construction(sl2(), 1)
    module = cons.module
    named = sorted(cons.fields.items())
    fields = [f for _, f in named]
    fields.append(state_field(module, cons.omega))
    # one composite representative per positive grade of the closure
    spans = closure_spans(module, [f for _, f in named], 4)
    for g2 in range(1, 5):
        rows = spans[g2].rows
        if rows:
            fields.append(state_field(module,
                                      StateVector(spans[g2].row(min(rows)))))
    for i, A in enumerate(fields):
        for B in fields[i:]:
            rep = bracket_check(A, B, module, 4, 2)
            checked += rep["checked"]
            ok = ok and rep["valid"]

    report(11, ok, "expansion brackets equal direct brackets on "
           f"{checked} evaluations over fermion and super field pairs", t0)
