"""Composite constructions on top of the field engine.

Free-fermion systems over a normalized Lie algebra carry internal
currents S^a quadratic in the fermions; affine currents at a positive
level carry a quadratic Virasoro vector; combining both on the tensor
product with dim-many fermions yields an odd weight-3/2 field G whose
square closes on the Virasoro vector, realizing the super extension with
central charge (3*level + g) * dim / (2*(level + g)).  Vertex modules
over the same constructions shift the grading by a fixed conformal
weight h.  The final section classifies the central terms that the
bracket relations admit.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import sweep
from .fields import (Field, IdentityField, ScaledSum, bracket_sweep,
                     closure_spans, commutator_direct, creating_state,
                     grading_sweep, realize, state_field,
                     virasoro_bracket_check)
from .liealg import LieAlgebra, casimir_constant_sl2, check_sl2_floor
from .linalg import _integer_matrix
from .modules import BasisState, FockModule, Mode, Module, StateVector
from .scalars import ZERO, I, Scalar


def sugawara_central_charge(dim: int, g, level: int) -> Fraction:
    return Fraction(level * dim) / (Fraction(level) + Fraction(g))


def susy_central_charge(dim: int, g, level: int) -> Fraction:
    return Fraction(dim) * (3 * Fraction(level) + Fraction(g)) \
        / (2 * (Fraction(level) + Fraction(g)))


def diagonal_norm(c, h, n: int):
    """Norm of the level-n Virasoro descendant of a weight-h floor."""
    return 2 * n * Scalar.of(h) + Scalar.of(c) * Fraction(n * (n * n - 1), 12)


class Construction:
    """A module with its generating fields and conformal state.  The
    current-based constructions also carry their Lie algebra, their level
    and their currents: S^a for the g-fermion system, B^a = X^a + S^a for
    the super construction."""

    def __init__(self, name: str, module: Module, fields: dict,
                 omega: StateVector, lie: LieAlgebra | None = None,
                 level: int | None = None, currents: list | None = None):
        self.name = name
        self.module = module
        self.fields = fields
        self.omega = omega
        self.lie = lie
        self.level = level
        self.currents = currents

    @property
    def central_charge(self) -> Scalar:
        return 2 * self.module.inner(self.omega, self.omega)


def _word(module: Module, *modes: Mode) -> StateVector:
    """The product of the modes applied to the vacuum, rightmost first;
    the module puts the result in its own word order."""
    vec = module.vacuum()
    for mode in reversed(modes):
        vec = module.apply(mode, vec)
    return vec


def _generators(module: Module, kind: str, count: int) -> dict:
    """The module's own fields of generator colors 0..count-1, named
    kind1..kind<count>."""
    return {f"{kind}{a + 1}": state_field(module, creating_state(kind, a))
            for a in range(count)}


# -- free fermions ----------------------------------------------------------

def fermion_omega(module: FockModule) -> StateVector:
    """(1/2) sum_a psi^a(-3/2) psi^a(-1/2) applied to the vacuum."""
    return sum((_word(module, Mode("psi", a, -3), Mode("psi", a, -1))
                for a in range(module.colors)),
               StateVector()).scaled(Fraction(1, 2))


def fermion_vosa(colors: int = 1) -> Construction:
    module = FockModule(colors=colors)
    fields = _generators(module, "psi", colors)
    return Construction("fermion", module, fields, fermion_omega(module))


# -- internal currents of a g-fermion system --------------------------------

def _current_state(module: Module, lie: LieAlgebra, c: int) -> StateVector:
    """S^c = -(i/2) sum_{a,b} Gamma_ab^c psi^a(-1/2) psi^b(-1/2) vac."""
    half_i = I * Fraction(-1, 2)
    return sum((_word(module, Mode("psi", a, -1), Mode("psi", b, -1))
                .scaled(half_i * coeff)
                for a in range(lie.dim) for b in range(lie.dim)
                if (coeff := lie.gamma_entry(a, b, c))), StateVector())


def g_fermion_system(lie: LieAlgebra) -> Construction:
    """dim-many fermions with the currents S^a induced by the bracket."""
    module = FockModule(colors=lie.dim)
    fields = _generators(module, "psi", lie.dim)
    states = [_current_state(module, lie, c) for c in range(lie.dim)]
    if not all(states):
        raise ValueError(f"{'an' if any(states) else 'every'} internal "
                         f"current S^a of {lie.name} vanishes, and a zero "
                         "current has no field")
    currents = [state_field(module, s) for s in states]
    return Construction("g_fermion", module, fields, fermion_omega(module),
                        lie=lie, currents=currents)


def _current_algebra_sweep(module: Module, lie: LieAlgebra, S: list, level,
                           depth2: int, window: int) -> dict:
    """[S^a_m, S^b_n] = i Gamma_ab^c S^c_{m+n} + level m delta_ab delta_{m+n}
    swept pair by pair; points carry the 1-based a and b."""
    one = IdentityField()
    pairs = range(lie.dim)
    return bracket_sweep(module, depth2, window, [
        ({"a": a + 1, "b": b + 1}, S[a], 0, S[b], 0,
         lambda m, n, a=a, b=b: [(I * coeff, S[c], m + n) for c, coeff
                                 in lie.bracket_coeffs(a, b)]
         + [(level * m if a == b and m + n == 0 else 0, one, -1)])
        for a in pairs for b in pairs])


def current_bracket_report(cons: Construction, depth2: int = 2,
                           window: int = 2) -> dict:
    """The current algebra at level g swept over basis states; the
    measured level is read off the central term and compared with the
    dual Coxeter number."""
    module, S = cons.module, cons.currents
    g = cons.lie.dual_coxeter()
    swept = _current_algebra_sweep(module, cons.lie, S, g, depth2, window)
    # central term of [S^1_1, S^1_{-1}] on the vacuum
    vac = BasisState((), 0)
    measured = module.vector(commutator_direct(S[0], 1, S[0], -1, module,
                                               vac)).get(vac, ZERO)
    return {**swept, "measured_level": measured, "expected_level": g,
            "valid": not swept["failures"] and measured == g}


def current_square_state(cons: Construction) -> StateVector:
    """sum_a S^a(-1) applied to the S^a state; equals 4g omega."""
    module = cons.module
    out = StateVector()
    for S in cons.currents:
        out = out + S.apply(-1, module, realize(S, module))
    return out


# -- quadratic Virasoro vector of an affine algebra -------------------------

def sugawara_omega(module: FockModule) -> StateVector:
    """(1 / (2(level + g))) sum_a X^a(-1)^2 applied to the vacuum."""
    lie, level = module.lie, module.level
    denom = 2 * (Fraction(level) + lie.dual_coxeter().as_fraction())
    return sum((_word(module, Mode("x", a, -2), Mode("x", a, -2))
                for a in range(lie.dim)), StateVector()).scaled(1 / denom)


def boson_sugawara(lie: LieAlgebra, level: int) -> Construction:
    module = FockModule(lie, level)
    fields = _generators(module, "x", lie.dim)
    return Construction("sugawara", module, fields, sugawara_omega(module),
                        lie=lie, level=level)


# -- the super construction -------------------------------------------------

def super_construction(lie: LieAlgebra, level: int) -> Construction:
    """Affine currents at `level` tensored with dim fermions, carrying the
    odd field G = (level+g)^(-1/2) (sum_a X^a_{-1} psi^a + (1/3) sum_a
    psi^a_{-1} S^a) and the total Virasoro vector (1/2) G(-1/2) tau.

    At level 0 the boson factor is trivial and the construction
    degenerates to the fermion system alone, with G built from the
    internal currents."""
    dim = lie.dim
    g = lie.dual_coxeter().as_fraction()
    d = Fraction(level) + g
    if level < 0 or d <= 0:
        raise ValueError("level must be nonnegative with level + g > 0")
    inv_root = Scalar.sqrt_fraction(1 / d)

    module = FockModule(lie if level else None, level, dim)

    s_states = [_current_state(module, lie, a) for a in range(dim)]
    tau1 = StateVector()
    tau2 = StateVector()
    for a in range(dim):
        tau2 = tau2 + module.apply(Mode("psi", a, -1), s_states[a])
        if level > 0:
            tau1 = tau1 + _word(module, Mode("x", a, -2), Mode("psi", a, -1))
    tau = (tau1 + tau2.scaled(Fraction(1, 3))).scaled(inv_root)

    G = state_field(module, tau)
    psi = list(_generators(module, "psi", dim).values())
    if level > 0:
        x = list(_generators(module, "x", dim).values())
        # B^a = x^a(-1) vac + S^a
        s_states = [_word(module, Mode("x", a, -2)) + s_states[a]
                    for a in range(dim)]
    currents = [state_field(module, s) for s in s_states]
    # slot 0 is the physical -1/2 mode of a weight-3/2 field
    omega = G.apply(0, module, tau).scaled(Fraction(1, 2))

    fields = {"G": G}
    for a in range(dim):
        fields[f"psi{a + 1}"] = psi[a]
        if level > 0:
            fields[f"x{a + 1}"] = x[a]
    return Construction("super", module, fields, omega, lie=lie, level=level,
                        currents=currents)


def susy_report(cons: Construction, depth2: int = 2, window: int = 2) -> dict:
    """All bracket relations of the super construction on a swept window.

    Covers the B-current algebra at level level+g, the two mixed
    brackets that pair G with currents and fermions, the super Virasoro
    relations closed by G, the grading and translation actions, the
    value of G on its own state, and agreement of G with its explicit
    normal-ordered formula.  `failures` maps each relation to its failing
    points, and `checks` maps it to whether that list is empty."""
    module, lie, level, B = cons.module, cons.lie, cons.level, cons.currents
    g = lie.dual_coxeter().as_fraction()
    d = Fraction(level) + g
    dim = lie.dim
    G = cons.fields["G"]
    psi = [cons.fields[f"psi{a + 1}"] for a in range(dim)]
    tau = realize(G, module)
    omega = cons.omega
    L = state_field(module, omega)
    vir = virasoro_bracket_check(module, omega, depth2=depth2, window=window)
    c = vir["central_charge"]
    root_d = Scalar.sqrt_fraction(d)
    inv_root_d = Scalar.sqrt_fraction(1 / d)
    one = IdentityField()
    states = module.basis_upto(depth2)
    failures = {"b_current_algebra": _current_algebra_sweep(
        module, lie, B, Scalar.of(d), depth2, window)["failures"]}
    gens = range(dim)
    relations = {
        # [G_{m-1/2}, B^a_n] = -n sqrt(d) psi^a at the summed index
        "g_with_currents": [({"a": a + 1}, G, 0, B[a], 0, lambda m, n, a=a: [
            (root_d * -n, psi[a], m + n - 1)]) for a in gens],
        # {G_{m-1/2}, psi^a_{n+1/2}} = d^(-1/2) B^a_{m+n}
        "g_with_fermions": [({"a": a + 1}, G, 0, psi[a], 0, lambda m, n, a=a: [
            (inv_root_d, B[a], m + n)]) for a in gens],
        # {G_r, G_s} = 2 L_{r+s} + (c/3)(r^2 - 1/4) delta_{r+s}, where
        # r = m - 1/2 makes r^2 - 1/4 = m^2 - m
        "ns_anticommutator": [({}, G, 0, G, 0, lambda m, n: [
            (2, L, m + n),
            (c * Fraction(m * m - m, 3) if m + n == 1 else 0, one, -1)])],
        # [L_m, G_r] = (m/2 - r) G_{m+r}, r = n - 1/2
        "virasoro_g": [({}, L, 1, G, 0, lambda m, n: [
            (Fraction(m - 2 * n + 1, 2), G, m + n)])],
    }
    for name, cases in relations.items():
        failures[name] = bracket_sweep(module, depth2, window,
                                       cases)["failures"]

    failures["virasoro"] = vir["failures"]
    failures["grading_translation"] = grading_sweep(module, L,
                                                    depth2)["failures"]

    # G_{3/2} tau = (2c/3) vac
    failures["g_on_tau"] = sweep(
        [{"n": 2}], lambda n: G.apply(n, module, tau),
        lambda n: module.vacuum().scaled(c * Fraction(2, 3)))["failures"]

    failures["central_charge_closed_form"] = sweep(
        [{"c": c}], lambda c: c,
        lambda c: Scalar.of(susy_central_charge(dim, g, level)))["failures"]

    # G = d^(-1/2) (sum_a X^a_{-1} psi^a + (1/3) sum_a psi^a_{-1} S^a),
    # with no term for an S^a that vanishes (a central direction)
    S = {a: state_field(module, s) for a in gens
         if (s := _current_state(module, lie, a))}
    explicit = ScaledSum(
        [(inv_root_d, cons.fields[f"x{a + 1}"].prod(psi[a], -1))
         for a in gens if level > 0]
        + [(inv_root_d * Fraction(1, 3), psi[a].prod(S[a], -1)) for a in S])
    failures["explicit_formula"] = sweep(
        ({"n": n, "state": state} for n in range(-window, window + 1)
         for state in states),
        lambda n, state: G.act(n, module, state),
        lambda n, state: explicit.act(n, module, state))["failures"]
    checks = {name: not found for name, found in failures.items()}

    return {"checks": checks, "failures": failures, "central_charge": c,
            "degree": d, "valid": all(checks.values())}


# -- vertex modules ---------------------------------------------------------

def _floor_weight(lie: LieAlgebra, level: int, spin2: int) -> Fraction:
    """h = casimir / (2(level + g)) for the chosen floor, restricted to
    floors with 2j <= level."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if spin2 < 0:
        raise ValueError("negative spin")
    if spin2 > level:
        raise ValueError(f"floor spin {Fraction(spin2, 2)} exceeds "
                         f"level/2 = {Fraction(level, 2)}")
    if spin2 == 0:
        casimir = Fraction(0)
    else:
        check_sl2_floor(lie)
        casimir = casimir_constant_sl2(Fraction(spin2, 2)).as_fraction()
    return casimir / (2 * (Fraction(level) + lie.dual_coxeter().as_fraction()))


def central_charges(lie: LieAlgebra, level: int, spin2: int = 0) -> dict:
    """Closed-form charges of the combined construction: the fermionic
    dim/2, the bosonic Sugawara charge, their total, and the floor
    weight h; the total equals the sum exactly."""
    g = lie.dual_coxeter().as_fraction()
    if Fraction(level) + g <= 0:
        raise ValueError("level + dual Coxeter number must be positive")
    return {"c_fermion": Scalar.of(Fraction(lie.dim, 2)),
            "c_boson": Scalar.of(sugawara_central_charge(lie.dim, g, level)),
            "c_total": Scalar.of(susy_central_charge(lie.dim, g, level)),
            "h": Scalar.of(_floor_weight(lie, level, spin2))}


def vertex_module(lie: LieAlgebra, level: int, spin2: int) -> dict:
    """The module of the super construction with a spin floor, grading
    shifted by h = casimir / (2(level + g)).  Its home is the vacuum
    module of the construction, so the construction's own fields commute
    past the head of every word there too."""
    h = _floor_weight(lie, level, spin2)
    cons = super_construction(lie, level)
    if spin2 == 0:
        module = cons.module
    else:
        module = FockModule(lie, level, lie.dim, spin2, home=cons.module)
    return {"construction": cons, "module": module, "h": h, "spin2": spin2}


def weight_report(vm: dict, depth2: int = 4) -> dict:
    """D = L_0 - h acts on the vertex module with eigenvalue equal to the
    grade, level by level."""
    cons, module, h = vm["construction"], vm["module"], vm["h"]
    L = state_field(cons.module, cons.omega)
    bases = [module.level_basis(n2) for n2 in range(depth2 + 1)]
    swept = sweep(
        ({"grade": Fraction(n2, 2), "state": state}
         for n2, basis in enumerate(bases) for state in basis),
        lambda grade, state: L.apply(1, module, StateVector.basis(state)),
        lambda grade, state: StateVector.basis(state).scaled(
            Scalar.of(h) + grade))
    failed = {f["grade"] for f in swept["failures"]}
    levels = [{"grade": Fraction(n2, 2), "dim": len(basis),
               "valid": Fraction(n2, 2) not in failed}
              for n2, basis in enumerate(bases)]
    return {"h": h, "levels": levels, "failures": swept["failures"],
            "valid": not swept["failures"]}


# -- central terms ----------------------------------------------------------

def even_cocycle_from_initials(a1, a2, nmax: int) -> dict:
    """Solve (n-1) A(n+1) = (n+2) A(n) - (2n+1) A(1) upward from A(1),
    A(2); extended to negative indices as an odd function."""
    A = {0: Fraction(0), 1: Fraction(a1), 2: Fraction(a2)}
    for n in range(2, nmax):
        A[n + 1] = ((n + 2) * A[n] - (2 * n + 1) * A[1]) / (n - 1)
    for n in list(A):
        A[-n] = -A[n]
    return A


def cocycle_span(A: dict) -> tuple:
    """Coefficients (alpha, beta) with A(n) = alpha n + beta n^3; raises
    if A lies outside that span."""
    a1, a2 = A.get(1, Fraction(0)), A.get(2, Fraction(0))
    beta = (a2 - 2 * a1) / 6
    alpha = a1 - beta
    off = sweep(({"n": n} for n in A), lambda n: A[n],
                lambda n: alpha * n + beta * n ** 3)["failures"]
    if off:
        raise ValueError(f"not in the span at n = {off[0]['n']}")
    return alpha, beta


def cocycle_basis(nmax: int) -> dict:
    """Solution space of the bracket-compatibility recursion.

    Solves upward from the free initial values (A(1), A(2)), certifies
    the space is spanned by n and n^3, and that pinning A(1) = 0 leaves
    the n^3 - n ray; every solution is re-checked against the cyclic
    identity."""
    if nmax < 3:
        raise ValueError("need nmax >= 3 to see past the free initials")
    linear = even_cocycle_from_initials(1, 2, nmax)
    cubic = even_cocycle_from_initials(1, 8, nmax)
    pinned = even_cocycle_from_initials(0, 6, nmax)
    spans = [cocycle_span(A) for A in (linear, cubic, pinned)]
    valid = spans == [(1, 0), (0, 1), (-1, 1)] and all(
        verify_jacobi_cocycle(A, nmax) for A in (linear, cubic, pinned))
    return {"basis": [linear, cubic], "pinned": pinned, "spans": spans,
            "dimension": 2, "valid": valid}


def verify_jacobi_cocycle(A: dict, nmax: int) -> bool:
    """(m-n) A(p) + (n-p) A(m) + (p-m) A(n) = 0 over m+n+p = 0."""
    return not _jacobi_sweep(A, nmax)["failures"]


def _integer_tables(*tables: dict) -> list[dict]:
    """The tables times the lcm of all their denominators, as int tables.
    The cocycle identities are linear and homogeneous in the tables, so
    they fail at the same points on the scaled ones."""
    rows = _integer_matrix([list(t.values()) for t in tables])
    return [dict(zip(t, row)) for t, row in zip(tables, rows)]


def _jacobi_sweep(A: dict, nmax: int) -> dict:
    """The sweep of verify_jacobi_cocycle, on the integer table of A."""
    A, = _integer_tables(A)

    def a(k):
        return A[k] if k in A else -A[-k]

    span = range(-nmax, nmax + 1)
    return sweep(
        ({"m": m, "n": n, "p": -m - n} for m in span for n in span
         if abs(m + n) <= nmax),
        lambda m, n, p: (m - n) * a(p) + (n - p) * a(m) + (p - m) * a(n),
        lambda m, n, p: 0)


def odd_central_term(c, smax2: int) -> dict:
    """C(s) = (c/3)(s^2 - 1/4) on half-odd s, keyed by 2s."""
    c = Fraction(c)
    out = {}
    for s2 in range(-smax2, smax2 + 1):
        if s2 % 2:
            s = Fraction(s2, 2)
            out[s2] = c / 3 * (s * s - Fraction(1, 4))
    return out


def verify_super_cocycle(A: dict, C: dict) -> bool:
    """2 A(n) + (s - n/2) C(r) + (r - n/2) C(s) = 0 over r + s + n = 0,
    swept over all pairs the two tables cover; an index n that A does
    not table fails."""
    return not _super_sweep(A, C)["failures"]


def _super_sweep(A: dict, C: dict) -> dict:
    """The sweep of verify_super_cocycle on the integer tables of A and
    C, with the identity doubled onto doubled indices r2, s2:
    4 A(n) + (s2 - n) C(r2) + (r2 - n) C(s2) = 0."""
    A, C = _integer_tables(A, C)

    def a(k):
        return A[k] if k in A else -A[-k]

    def mixed(r2, s2):
        n = -(r2 + s2) // 2
        if n not in A and -n not in A:
            return None
        return 4 * a(n) + (s2 - n) * C[r2] + (r2 - n) * C[s2]

    return sweep(({"r2": r2, "s2": s2} for r2 in C for s2 in C),
                 mixed, lambda r2, s2: 0)


def verify_odd_cocycle(c, smax2: int) -> bool:
    """The even central term (c/12)(n^3 - n) and the odd central term
    (c/3)(s^2 - 1/4) satisfy the mixed compatibility constraint at
    r + s + n = 0 over all half-odd |r|, |s| <= smax2/2."""
    if smax2 < 1:
        raise ValueError("smax must be at least 1/2: below it no odd pair "
                         "is checked")
    c = Fraction(c)
    A = {n: c * Fraction(n ** 3 - n, 12) for n in range(-smax2, smax2 + 1)}
    return verify_super_cocycle(A, odd_central_term(c, smax2))


# -- submodule closure ------------------------------------------------------

def submodule_dims(module: Module, field: Field, depth2: int) -> list:
    """Graded dimensions of the span of the vacuum under the creation
    slots of one field, closed under repeated application."""
    return [len(sp) for sp in closure_spans(module, [field], depth2)]
