"""Vertex operators as lazy mode-indexed fields.

A field is expanded in unit slots, A(z) = sum_n A(n) z^(-n-1); a field
of weight w has physical modes A_m = A(m + w - 1), so slot -1 always
creates the corresponding state from the vacuum.  A field is a
description and keeps no module state: the module it acts on memoizes
a composite field's slot actions on basis states, and a generator's
slot action is one mode action, which the module memoizes too.  With
eps the parity product, the Borcherds identity reads

  sum_j C(p,j) (A_(r+j)B)(p+q-j)
    = sum_j (-1)^j C(r,j) [A(p+r-j)B(q+j) - (-1)^(r+eps) B(q+r-j)A(p+j)],

and one kernel evaluates its right side on a basis state.  It cuts
each order of composition at the grading bound of its first factor,
is zero at once at a point of negative output grade, and composes each
term once with its summed coefficient.  Its three special cases are the
n-th product (A_r B)(q) at p = 0, through which composite fields
evaluate; the bracket [A(p), B(q)]_eps at r = 0; and at r = N the
coefficient of z^(-p-1) w^(-q-1) in (z-w)^N [A(z), B(w)]_eps, whose
vanishing is locality, where one search keeps one memo of
compositions.  Every module reads one rule for which fields are a
construction's own: those that the state-field map of its home built,
the home being the construction's vacuum module (a module without one
is its own home).  On the home and on each spin floor of it, an own
composite field F keeps the product expansion for floor states only;
on a word h w whose head is the mode h = a(p) of a generator a, it
commutes past the head,

  F(n) h w = s h F(n) w - s sum_j C(p,j) (a_j F)(p+n-j) w,

with s the sign of the parity product and a_j F the home's field of
the state a(j)|F>, which vanishes past the grading bound.  Every action
is cut off exactly by the grading bound: a slot whose output grade
would be negative gives zero.
For fields A and B that the home owns, bracket_from_ope instead takes
each product A_j B as the field of its state, Y(A_j B vac, z), an
identity that check_borcherds certifies.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import MappingProxyType

from .certify import sweep
from .linalg import Echelon
from .modules import (GENERATOR_WEIGHT2, BasisState, Mode, Module,
                      StateVector, _slot_index2, grade_str, mode_parity,
                      slot_of_index2, state_parity)
from .scalars import ONE, Scalar, _add, _exact_int, _json_list


def gbinom(k: int, j: int) -> int:
    """Binomial C(k, j) for integer k of either sign, j >= 0."""
    if j < 0:
        return 0
    if k >= 0:
        return math.comb(k, j) if j <= k else 0
    v = math.comb(j - k - 1, j)
    return -v if j % 2 else v


def _order_bound(weight2_a: int, weight2_b: int) -> int:
    """The first j from which A_(j)B = 0, for fields of the doubled
    weights: A_(j)B has weight w_A + w_B - j - 1, which a graded module
    keeps >= 0.  It bounds the locality order 1 + max{j : A_(j)B != 0}."""
    return (weight2_a + weight2_b) // 2


class Field:
    """Base field: a description of a slot action on module basis states.
    A field keeps no module state: the module memoizes its composite
    slot actions, so a field never keeps a module alive."""

    weight2: int
    parity: int
    # always empty: the slot memo is the module's; the benchmark tracer
    # (perfbench/tracer.py) still reads a field's _cache
    _cache = MappingProxyType({})

    def __init__(self):
        self._prods = {}

    def act(self, n: int, module: Module, state: BasisState) -> dict:
        """A(n) applied to a basis state, as handles of the module's
        table; the result dict is frozen and kept in the module's slot
        memo.  A field that the module's home owns acts on a non-empty
        word by commuting past the word's head; every other action, and
        every action on a floor state, is the field's own."""
        key = (self, n, state)
        out = module._slot_cache.get(key)
        if out is None:
            if _slot_index2(self.weight2, n) > state.grade2:
                return {}
            if state.word and self in (module._home or module)._own_states:
                out = _commute(self, n, module, state)
            else:
                out = self._act(n, module, state)
            module._slot_cache[key] = out
        return out

    def _act(self, n: int, module: Module, state: BasisState) -> dict:
        raise NotImplementedError

    def apply(self, n: int, module: Module, vec: dict) -> StateVector:
        table = module._table
        out = {}
        for state, coeff in vec.items():
            _add(out, self.act(n, module, state), table.handle(coeff), table)
        return module.vector(out)

    def prod(self, other: "Field", k: int) -> "Field":
        cached = self._prods.get((other, k))
        if cached is None:
            cached = NthProduct(self, other, k)
            self._prods[(other, k)] = cached
        return cached


class IdentityField(Field):
    weight2 = 0
    parity = 0

    def act(self, n, module, state):
        return {state: 1} if n == -1 else {}

    def __str__(self):
        return "1"


class GeneratorField(Field):
    """The field of a single generator kind/color of the module.  Each
    call builds a new field; inside a module, state_field of the creating
    state gives the one that the module's composite fields share.  The
    field keeps the mode of each slot it has acted with."""

    def __init__(self, kind: str, color: int = 0):
        super().__init__()
        self.kind = kind
        self.color = color
        self.weight2 = GENERATOR_WEIGHT2[kind]
        self.parity = mode_parity(kind)
        self._modes = {}

    def act(self, n, module, state):
        mode = self._modes.get(n)
        if mode is None:
            mode = self._modes[n] = Mode(self.kind, self.color,
                                         _slot_index2(self.weight2, n))
        if mode.n2 > state.grade2:
            return {}
        return module.apply_to_basis(mode, state)

    def __str__(self):
        if self.kind in ("L", "G"):
            return self.kind
        return f"{self.kind}{self.color + 1}"


class ScaledSum(Field):
    """A homogeneous linear combination of fields."""

    def __init__(self, terms):
        super().__init__()
        self.terms = [(Scalar.of(c), f) for c, f in terms if Scalar.of(c)]
        if not self.terms:
            raise ValueError("empty combination has no definite weight")
        w2 = {f.weight2 for _, f in self.terms}
        par = {f.parity for _, f in self.terms}
        if len(w2) > 1 or len(par) > 1:
            raise ValueError("combination mixes weights or parities")
        self.weight2 = w2.pop()
        self.parity = par.pop()

    def _act(self, n, module, state):
        table = module._table
        out = {}
        for coeff, f in self.terms:
            _add(out, f.act(n, module, state), table.handle(coeff), table)
        return out

    def __str__(self):
        return " + ".join(f"({c})·{f}" for c, f in self.terms)


def _compose(out: dict, coeff: int, A, na, B, nb, module, state):
    """out += coeff * A(na) B(nb) state, for an integer coeff."""
    table = module._table
    k = 1 if coeff == 1 else table.handle(coeff)
    for st, c in B.act(nb, module, state).items():
        vec = A.act(na, module, st)
        if vec:
            _add(out, vec, c if k == 1 else table.product(c, k), table)


def _borcherds(A, p, r, B, q, eps, module, state, memo=None) -> dict:
    """The right side of the Borcherds identity on one basis state; j
    runs to r for r >= 0 and to the grading bound otherwise.

    Every term lowers the doubled grade by 2(p+q+r) - wA - wB + 4, so a
    point whose output grade is negative is zero at once.  The integer
    coefficients are summed per composition X(nx)Y(ny) before anything
    is composed, and each composition with a nonzero sum is composed
    once: when A is B, the B·A term at j + q - p is the A·B term at j,
    and on the diagonal p = q the two cancel whenever r + eps is even.
    A memo dict, kept by the caller across points of one A and B on one
    module, holds each composition on each state for reuse."""
    g2 = state.grade2
    if g2 < 2 * (p + q + r) - A.weight2 - B.weight2 + 4:
        return {}
    swap = 1 if (r + eps) % 2 else -1
    # each composition order dies once its first factor's slot,
    # B(q + j) or A(p + j), exceeds its grading bound
    jab = (g2 - _slot_index2(B.weight2, q)) // 2
    jba = (g2 - _slot_index2(A.weight2, p)) // 2
    if r >= 0:
        jab, jba = min(jab, r), min(jba, r)
    terms = {}
    for j in range(max(jab, jba, -1) + 1):
        c = -gbinom(r, j) if j % 2 else gbinom(r, j)
        if j <= jab:
            key = (A, p + r - j, B, q + j)
            terms[key] = terms.get(key, 0) + c
        if j <= jba:
            key = (B, q + r - j, A, p + j)
            terms[key] = terms.get(key, 0) + c * swap
    if memo is not None:
        memo = memo.setdefault(state, {})
    table = module._table
    out = {}
    for key, c in terms.items():
        if not c:
            continue
        if memo is None:
            _compose(out, c, *key, module, state)
        else:
            vec = memo.get(key)
            if vec is None:
                vec = memo[key] = {}
                _compose(vec, 1, *key, module, state)
            _add(out, vec, table.handle(c), table)
    return out


class NthProduct(Field):
    def __init__(self, a: Field, b: Field, k: int):
        super().__init__()
        self.a = a
        self.b = b
        self.k = k
        self.weight2 = a.weight2 + b.weight2 - 2 * k - 2
        self.parity = (a.parity + b.parity) & 1

    def _act(self, m, module, state):
        a, b = self.a, self.b
        return _borcherds(a, 0, self.k, b, m, a.parity & b.parity, module,
                          state)

    def __str__(self):
        return f"({self.a})_{{{self.k}}}({self.b})"


# -- commuting past the head mode ------------------------------------------

def _commute(F: Field, n: int, module: Module, state: BasisState) -> dict:
    """F(n) u for a field F that the module's home owns and a word
    u = h w whose head is the mode h = a(p) of a generator a:

      F(n) h w = s h F(n) w - s sum_j C(p, j) (a_(j) F)(p + n - j) w,

    s = (-1)^(parity F * parity a), by the commutator formula
    [a(p), F(n)] = sum_j C(p, j) (a_(j) F)(p + n - j), which holds on
    every module of the vertex algebra; the fields a_(j) F are the
    home's.  Words are stored in normal order, so u is exactly h applied
    to w."""
    head = state.word[0]
    rest = state._rest()
    table = module._table
    s = -1 if F.parity and mode_parity(head.kind) else 1
    sign = table.handle(s)
    out = {}
    for st, c in F.act(n, module, rest).items():
        _add(out, module.apply_to_basis(head, st), table.product(c, sign),
             table)
    for E, shift, c in _head_terms(F, head, s, module._home or module):
        vec = E.act(n + shift, module, rest)
        if vec:
            _add(out, vec, c, table)
    return out


def _head_terms(F: Field, head: Mode, s: int, home: Module) -> list:
    """(E, p - j, -s C(p, j) coeff) for each term coeff |E> of a(j)|F>
    with C(p, j) != 0, for the head mode h = a(p) of a generator a, the
    sign s of _commute and a field F that the vacuum module home owns:
    E is the home's field of the term's basis state, and a(j)|F> = 0
    from the order bound on.  Built once per (F, head) and kept on the
    home, its coefficients made through the home's table, which the
    home's floors share."""
    key = (F, head)
    out = home._head_terms.get(key)
    if out is None:
        w2 = GENERATOR_WEIGHT2[head.kind]
        p = slot_of_index2(w2, head.n2)
        table = home._table
        out = []
        for j in range(_order_bound(F.weight2, w2)):
            b = gbinom(p, j)
            if not b:
                continue
            mode = Mode(head.kind, head.color, _slot_index2(w2, j))
            vec = {}
            for st, c in home._own_states[F].items():
                _add(vec, home.apply_to_basis(mode, st), c, table)
            k = table.handle(-s * b)
            out += [(_basis_field(home, st), p - j, table.product(c, k))
                    for st, c in vec.items()]
        home._head_terms[key] = out
    return out


def _own(module: Module, field: Field, state: dict) -> Field:
    """Record a field of the state-field map with its state, a dict of
    handles, on a vacuum module: the one record of the fields that are
    the module's own, which every module with that home reads."""
    if module.is_vacuum_module():
        module._own_states[field] = state
    return field


# -- state-field correspondence --------------------------------------------

def realize(field: Field, module: Module) -> StateVector:
    """The state of a field: A(-1) applied to the vacuum."""
    return module.vector(field.act(-1, module, BasisState((), 0)))


def creating_state(kind: str, color: int = 0) -> BasisState:
    """The one-mode state that a generator's slot -1 makes from vacuum."""
    m2 = _slot_index2(GENERATOR_WEIGHT2[kind], -1)
    return BasisState((Mode(kind, color, m2),), 0)


def state_field(module: Module, arg) -> Field:
    """The field of a state or vector of the vacuum module, built
    recursively: the head mode contributes its own field at the slot that
    creates it.  Fields are memoized on the module, so equal vectors share
    one field and every field lives as long as the module does."""
    if isinstance(arg, BasisState):
        return _basis_field(module, arg)
    handles = {st: module._table.handle(c) for st, c in arg.items()}
    key = frozenset(handles.items())
    f = module._state_fields.get(key)
    if f is None:
        terms = [(c, _basis_field(module, st)) for st, c in arg.items()]
        if not terms:
            raise ValueError("the zero vector has no field")
        f = terms[0][1] if len(terms) == 1 and terms[0][0] == ONE \
            else _own(module, ScaledSum(terms), handles)
        module._state_fields[key] = f
    return f


def _basis_field(module: Module, state: BasisState) -> Field:
    if state.floor != 0:
        raise ValueError("state-field correspondence needs the vacuum floor")
    f = module._state_fields.get(state)
    if f is not None:
        return f
    word = state.word
    if not word:
        f = IdentityField()
    else:
        head = word[0]
        slot = slot_of_index2(GENERATOR_WEIGHT2[head.kind], head.n2)
        if len(word) == 1 and slot == -1:
            f = GeneratorField(head.kind, head.color)
        else:
            gf = _basis_field(module, creating_state(head.kind, head.color))
            rest = _basis_field(module, state._rest())
            f = gf.prod(rest, slot)
    module._state_fields[state] = _own(module, f, {state: 1})
    return f


# -- locality ---------------------------------------------------------------

class NotLocalError(ValueError):
    """No order up to the search's bound makes the bracket vanish on the
    window.  At the default bound, the fields' weight bound, the pair is
    not local, or the engine is at fault."""


def locality_order(A: Field, B: Field, module: Module, depth2: int = 4,
                   window: int = 3, *, max_order: int | None = None) -> dict:
    """Minimal N with (z-w)^N [A(z), B(w)]_eps = 0 on the swept window.

    Both parities are searched rather than assuming eps is the parity
    product; the report says whether the winner matches that prediction.
    The sweep covers basis states of grade up to depth2/2 and slot pairs
    (p, q) in [-window, window]^2.  The check certifies vanishing on
    that window only, which pins N from below by an explicit witness at
    N-1.  N is searched up to max_order, by default the weight bound
    (A.weight2 + B.weight2) // 2 that no local pair exceeds.
    """
    if max_order is None:
        max_order = max(0, _order_bound(A.weight2, B.weight2))
    predicted = A.parity & B.parity
    states = module.basis_upto(depth2)
    slots = range(-window, window + 1)
    witness = {0: None, 1: None}
    # one memo of compositions for the whole search: trial orders, both
    # parities and neighbouring points reach the same mode pairs
    memo = {}
    for N in range(max_order + 1):
        for eps in (predicted, 1 - predicted):
            # the coefficient of z^(-p-1) w^(-q-1) is the Borcherds sum
            # at r = N; state-major search, the first nonzero point is
            # the witness
            found = next(((N, p, q, state) for state in states
                          for p in slots for q in slots
                          if _borcherds(A, p, N, B, q, eps, module, state,
                                        memo)),
                         None)
            if found is None:
                return {"order": N,
                        "bracket": "anticommutator" if eps else "commutator",
                        "witness": witness[eps],
                        "parity_consistent": eps == predicted}
            witness[eps] = found
    raise NotLocalError(f"fields not local at order <= {max_order} on this "
                        "window")


# -- brackets through the expansion -----------------------------------------

def ope_singular_part(A: Field, B: Field, module: Module, order: int) -> dict:
    """States of the products A_j B for 0 <= j < order."""
    return {j: realize(A.prod(B, j), module) for j in range(order)}


def commutator_direct(A: Field, m: int, B: Field, n: int,
                      module: Module, state: BasisState) -> dict:
    """[A(m), B(n)]_eps on one basis state, as handles of the module's
    table: the Borcherds sum at r = 0."""
    return _borcherds(A, m, 0, B, n, A.parity & B.parity, module, state)


def bracket_from_ope(A: Field, m: int, B: Field, n: int, order: int,
                     module: Module, state: BasisState) -> dict:
    """[A(m), B(n)]_eps = sum_j C(m, j) (A_j B)(m + n - j), j < order,
    on one basis state, as handles of the module's table.

    When the module's home owns A and B, A_j B is the home's field of
    its state, Y(A_j B vac, z), which check_borcherds certifies against
    the expansion, on the home and on every module of it; everywhere
    else it is the NthProduct expansion."""
    table = module._table
    out = {}
    for j in range(order):
        c = gbinom(m, j)
        P = _product_field(A, B, j, module) if c else None
        if P is not None:
            _add(out, P.act(m + n - j, module, state), table.handle(c), table)
    return out


def _product_field(A: Field, B: Field, j: int,
                   module: Module) -> Field | None:
    """A_j B as bracket_from_ope evaluates it.  For fields A and B that
    the module's home owns: the home's field of the state, realized once
    per (A, B, j) and kept in the home's memo, None for a zero state.
    Otherwise the NthProduct, which A's product memo keeps."""
    home = module._home or module
    if A not in home._own_states or B not in home._own_states:
        return A.prod(B, j)
    P = home._product_fields.get((A, B, j), False)
    if P is False:
        v = realize(A.prod(B, j), home)
        P = home._product_fields[A, B, j] = state_field(home, v) if v \
            else None
    return P


def bracket_check(A: Field, B: Field, module: Module, depth2: int,
                  window: int) -> dict:
    """The locality order of A and B on the window, then every direct
    bracket [A(m), B(n)] against its expansion through the products
    A_j B, j below that order."""
    loc = locality_order(A, B, module, depth2=depth2, window=window)
    order = loc["order"]
    swept = sweep(
        window_points(module, depth2, window),
        lambda m, n, state: commutator_direct(A, m, B, n, module, state),
        lambda m, n, state: bracket_from_ope(A, m, B, n, order, module,
                                             state))
    return {"order": order, "bracket": loc["bracket"], **swept,
            "valid": not swept["failures"]}


# -- closure of a generator set ---------------------------------------------

def closure_spans(module: Module, field_list, depth2: int) -> list:
    """Per-level echelons spanning the submodule generated from the
    vacuum by the creation slots of the given fields, closed under
    repeated application."""
    spaces = [Echelon() for _ in range(depth2 + 1)]
    vac = BasisState((), 0)
    spaces[0].add({vac: ONE})
    work = [(0, {vac: ONE})]
    while work:
        g2, vec = work.pop()
        for f in field_list:
            # each grade raise r2 > 0 of the field's index parity
            for r2 in range(2 - f.weight2 % 2, depth2 - g2 + 1, 2):
                out = f.apply(slot_of_index2(f.weight2, -r2), module, vec)
                if out and spaces[g2 + r2].add(out):
                    work.append((g2 + r2, out))
    return spaces


def generate_closure(module: Module, generators, depth2: int,
                     window: int = 2) -> dict:
    """Fields realizing the generated vacuum submodule up to depth.

    Every spanning state of the closure, at most 64, is turned back into
    a field through the state-field map (an n-th-product word in the
    generators), and every produced pair is re-checked local; pairwise
    locality of products is the closure content of the sweep."""
    gens = list(generators.values()) if isinstance(generators, dict) \
        else list(generators)
    spaces = closure_spans(module, gens, depth2)
    states = [StateVector(sp.row(pivot))
              for sp in spaces for pivot in sorted(sp.rows)]
    if len(states) > 64:
        raise ValueError("closure exceeds 64 fields")
    fields = [state_field(module, vec) for vec in states]
    table = locality_table(list(enumerate(fields)), module, depth2, window)
    return {"dims": [len(sp) for sp in spaces], "states": states,
            "fields": fields, "locality_table": table,
            "valid": None not in table.values()}


def locality_table(named, module: Module, depth2: int, window: int) -> dict:
    """Locality order and bracket of each pair (a, b), b not before a, of
    a (key, field) list; None if not local within the pair's weight
    bound."""
    table = {}
    for i, (a, A) in enumerate(named):
        for b, B in named[i:]:
            try:
                loc = locality_order(A, B, module, depth2=depth2,
                                     window=window)
                table[a, b] = {"order": loc["order"], "bracket": loc["bracket"]}
            except NotLocalError:
                table[a, b] = None
    return table


# -- axiom suites -----------------------------------------------------------

def window_points(module: Module, depth2: int, window: int):
    """{"m", "n", "state"} for m, n in [-window, window] and every basis
    state of grade <= depth2/2, m-major."""
    states = module.basis_upto(depth2)
    slots = range(-window, window + 1)
    return ({"m": m, "n": n, "state": state}
            for m in slots for n in slots for state in states)


def bracket_sweep(module: Module, depth2: int, window: int, cases) -> dict:
    """Certify each case (label, A, sa, B, sb, terms) at every window
    point: [A(m + sa), B(n + sb)]_eps u = sum coeff * C(slot) u over the
    (coeff, C, slot) that terms(m, n) lists.  Cases are swept in order,
    and each adds its label's keys to its points."""
    checked, failures = 0, []
    table = module._table
    for label, A, sa, B, sb, terms in cases:
        last = handles = None   # points run m-major, states innermost

        def rhs(m, n, state, **_):
            nonlocal last, handles
            if last != (m, n):
                last = m, n
                handles = [(table.handle(coeff), C, slot)
                           for coeff, C, slot in terms(m, n) if coeff]
            out = {}
            for k, C, slot in handles:
                _add(out, C.act(slot, module, state), k, table)
            return out

        swept = sweep(({**label, **p}
                       for p in window_points(module, depth2, window)),
                      lambda m, n, state, **_: commutator_direct(
                          A, m + sa, B, n + sb, module, state), rhs)
        checked += swept["checked"]
        failures += swept["failures"]
    return {"checked": checked, "failures": failures}


def virasoro_bracket_check(module: Module, omega: StateVector,
                           depth2: int = 4, window: int = 2) -> dict:
    """[L_m, L_n] = (m-n) L_{m+n} + (c/12)(m^3-m) delta_{m+n} swept over
    basis states, with c measured as twice the norm of omega."""
    L = state_field(module, omega)
    c = 2 * module.inner(omega, omega)
    one = IdentityField()
    swept = bracket_sweep(module, depth2, window, [(
        {}, L, 1, L, 1, lambda m, n: [
            (m - n, L, m + n + 1),
            (c * Fraction(m ** 3 - m, 12) if m + n == 0 else 0, one, -1)])])
    return {"central_charge": c, **swept, "valid": not swept["failures"]}


def grading_sweep(module: Module, L: Field, depth2: int) -> dict:
    """L(1) u = grade(u) u and L(0) u = T u on every basis state of grade
    <= depth2/2."""
    u = StateVector.basis
    return sweep(({"state": s} for s in module.basis_upto(depth2)),
                 lambda state: (L.apply(1, module, u(state)),
                                L.apply(0, module, u(state))),
                 lambda state: (u(state).scaled(Fraction(state.grade2, 2)),
                                module.operator_T(u(state))))


def check_vosa_axioms(module: Module, fields: dict, omega: StateVector,
                      depth2: int = 2, window: int = 2) -> dict:
    """Axioms of a vertex operator superalgebra on a swept window.

    fields maps names to generating fields; omega is the conformal
    state.  Returns each check's failing points and whether it holds,
    the pairwise locality table (None for a non-local pair), and the
    central charge measured as twice the norm of omega.
    """
    vac = BasisState((), 0)
    states = module.basis_upto(depth2)
    named = sorted(fields.items())
    vir = virasoro_bracket_check(module, omega, depth2=depth2, window=window)
    spans = closure_spans(module, [f for _, f in named], depth2)
    table = {f"{a},{b}": loc for (a, b), loc in locality_table(
        named, module, depth2, window).items()}

    def field_points(slots):
        return ({"field": name, "n": n, "state": state} for name, _ in named
                for n in slots for state in states)

    def stray(field, n):
        # slots n >= 0 kill the vacuum; slot -1 keeps weight and parity
        f = fields[field]
        return [st for st in f.act(n, module, vac) if n >= 0 or (
            st.grade2, state_parity(st)) != (f.weight2, f.parity)]

    def translated(field, n, state):
        # [T, A(n)] u, to match -n A(n-1) u
        f = fields[field]
        return module.operator_T(module.vector(f.act(n, module, state))) \
            - f.apply(n, module, module.operator_T(StateVector.basis(state)))

    def misparity(field, n, state):
        want = (state_parity(state) + fields[field].parity) & 1
        return [st for st in fields[field].act(n, module, state)
                if state_parity(st) != want]

    failures = {
        "vacuum": sweep([{"state": vac}], lambda state: module.operator_T(
            StateVector.basis(state)), lambda state: StateVector())["failures"]
        + sweep(({"field": name, "n": n} for name, f in named
                 for n in range(-1, (f.weight2 + 2) // 2 + window)),
                stray, lambda field, n: [])["failures"],
        "state_field": sweep(
            ({"state": s} for s in states),
            lambda state: state.floor == 0
            and realize(state_field(module, state), module),
            StateVector.basis)["failures"],
        "irreducibility": sweep(
            ({"grade2": g2} for g2 in range(depth2 + 1)),
            lambda grade2: len(spans[grade2]),
            lambda grade2: len(module.level_basis(grade2)))["failures"],
        "translation": sweep(
            field_points(range(-window, window + 2)), translated,
            lambda field, n, state: fields[field].apply(
                n - 1, module, StateVector.basis(state)).scaled(-n)
        )["failures"],
        "locality": [{"pair": pair} for pair, loc in table.items()
                     if loc is None],
        "virasoro": vir["failures"],
        "grading": grading_sweep(module, state_field(module, omega),
                                 depth2)["failures"],
        "parity": sweep(field_points(range(-window, window + 1)), misparity,
                        lambda field, n, state: [])["failures"],
    }
    checks = {name: not found for name, found in failures.items()}
    return {"checks": checks, "failures": failures, "locality_table": table,
            "central_charge": vir["central_charge"],
            "valid": all(checks.values())}


def adjoint_sweep(module: Module, named, depth2: int, seed: int) -> dict:
    """Seeded spot check of <F(s)u, v> = <u, F(s')v>, s' the slot of the
    negated index, for (name, field) pairs F that are self-adjoint under
    index negation.  Each of 60 trials draws a field, a grade and a slot,
    then random u and v at the two grades that the slot pairs; a trial
    whose second grade leaves [0, depth2], or whose u or v is 0, is void."""
    rng = random.Random(seed)

    def draw(n2):
        return StateVector([(state, rng.randrange(-2, 3))
                            for state in module.level_basis(n2)])

    def points():
        for _ in range(60):
            name, F = named[rng.randrange(len(named))]
            g2 = rng.randrange(depth2 + 1)
            s = rng.randrange(-2, 3)
            h2 = g2 - _slot_index2(F.weight2, s)
            if 0 <= h2 <= depth2:
                u, v = draw(g2), draw(h2)
                if u and v:
                    yield {"field": name, "slot": s, "grade": grade_str(g2),
                           "u": u, "v": v}

    fields = dict(named)

    def lhs(field, slot, grade, u, v):
        return module.inner(fields[field].apply(slot, module, u), v)

    def rhs(field, slot, grade, u, v):
        F = fields[field]
        adjoint = slot_of_index2(F.weight2, -_slot_index2(F.weight2, slot))
        return module.inner(u, F.apply(adjoint, module, v))

    swept = sweep(points(), lhs, rhs)
    return {"seed": seed, **swept, "valid": not swept["failures"]}


def check_borcherds(module: Module, depth2: int = 2, window: int = 2) -> dict:
    """Compare (A_n B)(m) against the field of the state A(n)b.

    The left side expands the n-th product mode by mode; the right side
    first computes the state A(n) applied to b and then takes its field.
    Agreement over the swept (a, b, n, m, v) window is the associativity
    content of the expansion.  Each pair (a, b) sweeps n from -2 up to
    its locality order, then m in [-window, window], then v."""
    states = module.basis_upto(depth2)

    def points():
        for a in states:
            A = state_field(module, a)
            for b in states:
                N = locality_order(A, state_field(module, b), module,
                                   depth2=depth2, window=window)["order"]
                yield from ({"a": a, "b": b, "n": n, "m": m, "v": v}
                            for n in range(-2, N)
                            for m in range(-window, window + 1)
                            for v in states)

    def lhs(a, b, n, m, v):
        A, B = state_field(module, a), state_field(module, b)
        return A.prod(B, n).act(m, module, v)

    def rhs(a, b, n, m, v):
        ab = state_field(module, a).act(n, module, b)
        return state_field(module, module.vector(ab)).act(m, module, v) \
            if ab else {}

    swept = sweep(points(), lhs, rhs)
    return {**swept, "valid": not swept["failures"]}


# -- expression-tree serialization ------------------------------------------

def field_from_tree(tree) -> Field:
    """Build a field from its nested JSON form.

    {"gen": kind, "color": c} names a generator ("id" for the identity),
    {"nprod": [tree, tree, n]} an n-th product, and
    {"lincomb": [[scalar-terms, tree], ...]} a linear combination with
    scalars in the term-list encoding.
    """
    if not isinstance(tree, dict):
        raise ValueError("field tree must be an object")
    if "gen" in tree:
        kind = tree["gen"]
        if kind == "id":
            return IdentityField()
        if kind not in GENERATOR_WEIGHT2:
            raise ValueError(f"unknown generator kind {kind!r}")
        return GeneratorField(kind, _exact_int(tree.get("color", 0), "color"))
    if "nprod" in tree:
        a, b, n = _json_list(tree["nprod"], "nprod", 3)
        return field_from_tree(a).prod(field_from_tree(b),
                                       _exact_int(n, "product order"))
    if "lincomb" in tree:
        terms = [_json_list(pair, "lincomb term", 2)
                 for pair in _json_list(tree["lincomb"], "lincomb")]
        return ScaledSum([(Scalar.from_json(c), field_from_tree(t))
                          for c, t in terms])
    raise ValueError("field tree needs a gen, nprod, or lincomb key")


def field_to_tree(field: Field):
    """Inverse of field_from_tree."""
    if isinstance(field, IdentityField):
        return {"gen": "id"}
    if isinstance(field, GeneratorField):
        return {"gen": field.kind, "color": field.color}
    if isinstance(field, NthProduct):
        return {"nprod": [field_to_tree(field.a), field_to_tree(field.b),
                          field.k]}
    if isinstance(field, ScaledSum):
        return {"lincomb": [[c.to_json(), field_to_tree(f)]
                            for c, f in field.terms]}
    raise ValueError(f"cannot serialize field {field!r}")
