"""Graded state spaces with exact inner products.

Two concrete modules: Verma modules of the Virasoro and Neveu-Schwarz
algebras, and the Fock module of affine currents at a level tensored
with free fermions (Kac-Todorov), induced from a highest-weight floor;
either family of modes may be absent.

Conventions.  Mode indices are stored doubled (``n2 = 2n``) so
half-integers stay integral.  A basis word lists creation modes sorted
by decreasing ``|index|``, ties broken by kind then color; repeated
entries are allowed only for even modes.  The Hermitian pairing is
linear in the first slot and conjugate-linear in the second, with the
floor normalized to norm 1 (or to the invariant diagonal form on a spin
floor).  Adjoints send an index to its negative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple
from weakref import WeakValueDictionary

from .liealg import LieAlgebra, check_sl2_floor, sl2, sl2_floor
from .linalg import Echelon, inertia_with_witness
from .scalars import (ONE, ZERO, I, Coefficients, Scalar, _acc, _add, _dot,
                      _exact_int, _json_key, _json_list)

KIND_RANK = {"x": 0, "L": 1, "G": 2, "psi": 3}
ODD_KINDS = frozenset({"psi", "G"})
# twice the conformal weight of the field of each generator kind
GENERATOR_WEIGHT2 = {"psi": 1, "x": 2, "G": 3, "L": 4}


class Mode(NamedTuple):
    """A single raising/lowering operator; n2 is twice the index."""

    kind: str
    color: int
    n2: int

    def __str__(self):
        idx = Fraction(self.n2, 2)
        name = self.kind if self.kind in ("L", "G") else f"{self.kind}{self.color + 1}"
        return f"{name}({idx})"


def mode_parity(kind: str) -> int:
    return 1 if kind in ODD_KINDS else 0


def mode_key(m: Mode) -> tuple:
    return (abs(m.n2), KIND_RANK[m.kind], m.color)


def adjoint_mode(m: Mode) -> Mode:
    return Mode(m.kind, m.color, -m.n2)


def _slot_index2(weight2: int, n: int) -> int:
    """Doubled index of unit slot n of a field of doubled weight weight2:
    A(n) is the physical mode A_(n-w+1), which lowers the grade by it."""
    return 2 * n - weight2 + 2


def slot_of_index2(weight2: int, m2: int) -> int:
    """Unit slot of the physical mode with doubled index m2."""
    n2 = m2 + weight2 - 2
    if n2 % 2:
        raise ValueError(f"index {Fraction(m2, 2)} has wrong parity for weight "
                         f"{Fraction(weight2, 2)}")
    return n2 // 2


# (word, floor) -> the one live BasisState of that word and floor.  The
# map holds its states weakly, so it keeps none alive: a state lives as
# long as a module memo, a vector or a caller holds it.
_STATES = WeakValueDictionary()


def _state(word: tuple, floor: int, grade2: int) -> "BasisState":
    """The state of the word and floor, whose doubled grade the caller
    knows: the live one if there is one, else a new one, stored."""
    key = word, floor
    s = _STATES.get(key)
    if s is None:
        s = object.__new__(BasisState)
        s.word, s.floor, s.grade2, s._rest_state = word, floor, grade2, None
        _STATES[key] = s
    return s


class BasisState:
    """A word of creation modes on a floor state.

    States are interned: BasisState(word, floor) returns the one live
    state of that word and floor, so equal states are one object and
    hash and compare equal by identity, which dict probes do in C.  A
    state stores the doubled grade -sum n2 of its word, computed once,
    and the state without its head mode once _rest has made it; _rest
    and _prepend derive a state from this one's grade without summing
    the word again.  States are immutable, and order as (word, floor)
    does, so every sorted output keeps its order.  Pickle and copy
    return the interned state."""

    __slots__ = ("word", "floor", "grade2", "_rest_state", "__weakref__")

    def __new__(cls, word: tuple, floor: int):
        return _state(word, floor, -sum(m.n2 for m in word))

    def __reduce__(self):
        return BasisState, (self.word, self.floor)

    def __lt__(self, other):
        if type(other) is not BasisState:
            return NotImplemented
        return (self.word, self.floor) < (other.word, other.floor)

    def __gt__(self, other):
        if type(other) is not BasisState:
            return NotImplemented
        return (self.word, self.floor) > (other.word, other.floor)

    def _rest(self) -> "BasisState":
        """The state without the head mode of its word.  It is kept on
        this state: a shorter state holds no reference back, so no
        cycle forms."""
        rest = self._rest_state
        if rest is None:
            word = self.word
            rest = self._rest_state = _state(word[1:], self.floor,
                                             self.grade2 + word[0].n2)
        return rest

    def _prepend(self, mode: Mode) -> "BasisState":
        """The state with mode put in front of its word; the caller
        keeps the word in normal order.  Not kept on this state: a
        longer state holds this one as its rest, and the two would
        form a cycle that reference counting cannot free."""
        return _state((mode,) + self.word, self.floor,
                      self.grade2 - mode.n2)

    def __repr__(self):
        return f"BasisState(word={self.word!r}, floor={self.floor!r})"

    def __str__(self):
        if not self.word:
            core = "Ω"
        else:
            core = " ".join(str(m) for m in self.word) + " Ω"
        return core if self.floor == 0 else f"{core}[{self.floor}]"


def state_parity(state: BasisState) -> int:
    return sum(mode_parity(m.kind) for m in state.word) & 1


def grade_str(n2: int) -> str:
    return str(Fraction(n2, 2))


class StateVector(dict):
    """A finite linear combination of basis states: the dict that maps
    each basis state to its nonzero Scalar coefficient.  A mode or
    field action maps states to handles of its module's table instead;
    Module.vector reads one as a StateVector."""

    __slots__ = ()

    def __init__(self, data=()):
        """From a dict or from (state, coefficient) pairs, coercing each
        coefficient to a Scalar; repeats add up and zeros are dropped."""
        super().__init__()
        for state, coeff in (data.items() if isinstance(data, dict) else data):
            _acc(self, state, Scalar.of(coeff))

    @staticmethod
    def basis(state: BasisState) -> "StateVector":
        return StateVector({state: ONE})

    def _plus(self, other: dict, coeff) -> "StateVector":
        out = StateVector()
        out.update(self)
        k = Scalar.of(coeff)
        for state, c in other.items():
            _acc(out, state, c if k is ONE else c * k)
        return out

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return StateVector()._plus(self, -1)

    def scaled(self, coeff) -> "StateVector":
        return StateVector()._plus(self, Scalar.of(coeff))

    def sorted_items(self):
        return sorted(self.items(), key=lambda sc: (sc[0].grade2, sc[0]))

    def __str__(self):
        if not self:
            return "0"
        return " + ".join(f"({coeff})·{state}"
                          for state, coeff in self.sorted_items())

    __repr__ = __str__


class Module:
    """Shared machinery: normal ordering, pairings, Gram analysis.  A
    concrete module supplies `kinds`, `bracket(m1, m2)` (the graded
    bracket as [(coeff, Mode | None)], None the identity),
    `creation_modes(max_n2)` and `floor_action0(mode, floor)` (an
    index-zero mode on a floor vector, as [(coeff, floor')]).

    The spin floor that `vertex_module` builds has the construction's
    vacuum module as its home: it reads the home's record of which
    fields are the construction's own, and shares its coefficient table.
    A module without a home is its own home, read as
    `module._home or module`."""

    kinds: dict     # generator kind -> number of colors

    def __init__(self, home: Module | None = None):
        # None for the module itself: a module that held itself would
        # not be freed by reference counting
        self._home = home
        self._apply_cache = {}
        # grade n2 -> (index, block): each basis state's position and the
        # Hermitian Gram matrix of the grade (see _block)
        self._gram_cache = {}
        self._basis_cache = {}
        self._bracket_cache = {}
        # every coefficient that the memos hold is a handle of this one
        # table, the home's, so equal coefficients are one integer
        self._table = home._table if home else Coefficients()
        # the modes that have passed check_mode
        self._checked_modes = set()
        # the state-field map of fields.py: a basis state, or the
        # frozenset of a vector's (state, handle) pairs -> its field
        self._state_fields = {}
        # on a vacuum module, each field of that map -> its state, as
        # handles: the one record of the fields that the module owns
        self._own_states = {}
        # (A, B, j) -> the own field of the state A_j B, or None for 0
        self._product_fields = {}
        # (F, head mode) -> the terms that commute F past that mode
        self._head_terms = {}
        # (field, n, state) -> a composite field's slot action here: the
        # module holds its fields' memos and no field holds a module, so
        # a module is freed by reference counting alone
        self._slot_cache = {}

    # -- floor defaults, overridden by concrete modules ------------------

    def floor_dim(self) -> int:
        return 1

    def floor_pairing(self, i: int, j: int) -> Scalar:
        return ONE if i == j else ZERO

    def translation_floor(self, floor: int) -> dict:
        """T applied to a floor vector, as a state dict."""
        return {}

    def is_vacuum_module(self) -> bool:
        """One floor state, killed by T: the module is the vacuum module
        of the vertex algebra that its state fields form."""
        return self.floor_dim() == 1 and not self.translation_floor(0)

    # -- states ----------------------------------------------------------

    def vacuum(self, floor: int = 0) -> StateVector:
        return StateVector.basis(BasisState((), floor))

    def check_mode(self, mode: Mode):
        if mode.kind not in self.kinds:
            raise ValueError(f"{type(self).__name__} has no {mode.kind} modes")
        count = self.kinds[mode.kind]
        if not 0 <= mode.color < count:
            raise ValueError(f"{type(self).__name__} has no {mode.kind} color "
                             f"{mode.color}: its colors are 0 to {count - 1}")
        if abs(mode.n2) % 2 != mode_parity(mode.kind):
            raise ValueError(f"index parity mismatch for {mode}")

    def level_basis(self, n2: int) -> list:
        if n2 < 0:
            return []
        cached = self._basis_cache.get(n2)
        if cached is None:
            modes = sorted(self.creation_modes(n2), key=mode_key, reverse=True)
            words = []

            def rec(start, remaining, acc):
                if remaining == 0:
                    words.append(tuple(acc))
                    return
                for j in range(start, len(modes)):
                    m = modes[j]
                    if -m.n2 > remaining:
                        continue
                    acc.append(m)
                    rec(j + 1 if mode_parity(m.kind) else j, remaining + m.n2, acc)
                    acc.pop()

            rec(0, n2, [])
            cached = [BasisState(w, fl) for w in words for fl in range(self.floor_dim())]
            self._basis_cache[n2] = cached
        return cached

    def dims(self, depth2: int) -> list:
        return [len(self.level_basis(n2)) for n2 in range(depth2 + 1)]

    def basis_upto(self, depth2: int) -> list:
        """Basis states of every grade up to depth2/2, lowest grade first."""
        return [s for g2 in range(depth2 + 1) for s in self.level_basis(g2)]

    # -- mode application ------------------------------------------------

    def vector(self, handles: dict) -> StateVector:
        """A vector of handles of the module's table, such as a memo's
        action, as the StateVector of their Scalars."""
        values = self._table.values
        out = StateVector()
        out.update((state, values[h]) for state, h in handles.items())
        return out

    def apply_to_basis(self, mode: Mode, state: BasisState) -> dict:
        """mode . state as a frozen dict of handles of the module's
        table (see vector); callers must not mutate the result.  A mode
        is checked against the module the first time it acts here."""
        key = (mode, state)
        out = self._apply_cache.get(key)
        if out is None:
            if mode not in self._checked_modes:
                self.check_mode(mode)
                self._checked_modes.add(mode)
            out = self._apply_cache[key] = self._apply_uncached(mode, state)
        return out

    def _bracket(self, m1: Mode, m2: Mode) -> list:
        """self.bracket(m1, m2), memoized with each coefficient a handle
        of the module's table; callers must not change it."""
        key = (m1, m2)
        out = self._bracket_cache.get(key)
        if out is None:
            handle = self._table.handle
            out = self._bracket_cache[key] = [
                (handle(c), m) for c, m in self.bracket(m1, m2)]
        return out

    def _apply_uncached(self, mode: Mode, state: BasisState) -> dict:
        if mode.n2 > state.grade2:
            return {}
        word = state.word
        table = self._table
        if not word:
            if mode.n2 > 0:
                return {}
            if mode.n2 == 0:
                out = {}
                for coeff, fl in self.floor_action0(mode, state.floor):
                    _add(out, {BasisState((), fl): 1}, table.handle(coeff),
                         table)
                return out
            return {state._prepend(mode): 1}
        head = word[0]
        if mode.n2 < 0:
            k, k1 = mode_key(mode), mode_key(head)
            if k > k1 or (k == k1 and not mode_parity(mode.kind)):
                return {state._prepend(mode): 1}
            if k == k1:
                # square of an odd mode: m^2 = (1/2)[m, m]_+
                rest = state._rest()
                half = table.handle(Fraction(1, 2))
                out = {}
                for coeff, bmode in self._bracket(mode, head):
                    _add(out, {rest: 1} if bmode is None
                         else self.apply_to_basis(bmode, rest),
                         table.product(coeff, half), table)
                return out
        rest = state._rest()
        odd = mode_parity(mode.kind) and mode_parity(head.kind)
        sign = table.handle(-1 if odd else 1)
        out = {}
        for st, c in self.apply_to_basis(mode, rest).items():
            _add(out, self.apply_to_basis(head, st), table.product(c, sign),
                 table)
        for coeff, bmode in self._bracket(mode, head):
            _add(out, {rest: 1} if bmode is None
                 else self.apply_to_basis(bmode, rest), coeff, table)
        return out

    def apply(self, mode: Mode, vec: dict) -> StateVector:
        table = self._table
        out = {}
        for state, coeff in vec.items():
            _add(out, self.apply_to_basis(mode, state), table.handle(coeff),
                 table)
        return self.vector(out)

    # -- inner products --------------------------------------------------

    def _block(self, n2: int) -> tuple:
        """(index, block) of grade n2, built once: each basis state's
        position, and the Hermitian Gram matrix.  Grade 0 is the floor
        pairing.  Above it, the row of b_i = h w (h the head of its word)
        holds <w, h^dag b_j> for j >= i: the row of w in the block of the
        grade below, paired by _dot with the cached action of h^dag on
        b_j.  The lower triangle is the conjugate."""
        memo = self._gram_cache.get(n2)
        if memo is not None:
            return memo
        basis = self.level_basis(n2)
        index = {b: i for i, b in enumerate(basis)}
        block = [[None] * len(basis) for _ in basis]
        values = self._table.values
        for i, b in enumerate(basis):
            if b.word:
                head = b.word[0]
                # moving the head across keeps the grades equal
                low_index, low = self._block(n2 + head.n2)
                w = low[low_index[b._rest()]]
                adj = adjoint_mode(head)
                row = (_dot((values[c], w[low_index[t]]) for t, c in
                            self.apply_to_basis(adj, basis[j]).items())
                       for j in range(i, len(basis)))
            else:
                row = (self.floor_pairing(b.floor, basis[j].floor)
                       for j in range(i, len(basis)))
            for j, x in enumerate(row, i):
                block[i][j] = x
                block[j][i] = x.conjugate()
        memo = self._gram_cache[n2] = index, block
        return memo

    def inner_basis(self, b1: BasisState, b2: BasisState) -> Scalar:
        n2 = b1.grade2
        if n2 != b2.grade2:
            return ZERO
        index, block = self._block(n2)
        return block[index[b1]][index[b2]]

    def inner(self, u: StateVector, v: StateVector) -> Scalar:
        # <u, v> = sum over b of v of conj(c_b) conj(<b, u>), and <b, u>
        # pairs the states of u at b's grade with b's Gram row
        by_grade = {}
        for b, c in u.items():
            by_grade.setdefault(b.grade2, []).append((c, b))
        terms = []
        for b, c in v.items():
            n2 = b.grade2
            if n2 in by_grade:
                index, block = self._block(n2)
                row = block[index[b]]
                terms.append((c, _dot((c1, row[index[b1]])
                                      for c1, b1 in by_grade[n2]).conjugate()))
        return _dot(terms)

    def gram(self, n2: int) -> tuple:
        """The basis of grade n2 and its Gram matrix, which is the memo
        itself: callers must not change it."""
        return self.level_basis(n2), self._block(n2)[1]

    def _conjugate_echelon(self, n2: int) -> Echelon:
        """The conjugated Gram rows of grade n2 (the Hermitian block's
        columns), reduced: their kernel is the v with <w, v> = 0 for all w,
        as <w, v> is conjugate-linear in v."""
        block = self._block(n2)[1]
        ech = Echelon()
        for i in range(len(block)):
            ech.add({j: row[i] for j, row in enumerate(block) if row[i]})
        return ech

    def kernel_vectors(self, n2: int) -> list:
        basis = self.level_basis(n2)
        return [StateVector((basis[j], x) for j, x in vec.items())
                for vec in self._conjugate_echelon(n2).kernel(len(basis))]

    def irreducible_dims(self, depth2: int) -> list:
        return [len(self._conjugate_echelon(n2)) for n2 in range(depth2 + 1)]

    def ghost_report(self, depth2: int) -> dict:
        levels = []
        first_negative = None
        for n2 in range(depth2 + 1):
            basis, matrix = self.gram(n2)
            pos, zero, neg, witness = inertia_with_witness(matrix)
            entry = {"grade": grade_str(n2), "dim": len(basis),
                     "positive": pos, "zero": zero, "negative": neg}
            if witness is not None:
                entry["witness"] = StateVector(zip(basis, witness))
            if neg and first_negative is None:
                first_negative = grade_str(n2)
            levels.append(entry)
        return {"levels": levels,
                "has_ghost": first_negative is not None,
                "first_negative_grade": first_negative}

    # -- translation -----------------------------------------------------

    def operator_T(self, vec: dict) -> StateVector:
        table = self._table
        out = {}
        for state, coeff in vec.items():
            _add(out, self._translate_basis(state), table.handle(coeff),
                 table)
        return self.vector(out)

    def _translate_basis(self, state: BasisState) -> dict:
        """T applied to a basis state, as handles."""
        table = self._table
        if not state.word:
            return {st: table.handle(c) for st, c
                    in self.translation_floor(state.floor).items()}
        head, rest = state.word[0], state._rest()
        out = {}
        for st, c in self._translate_basis(rest).items():
            _add(out, self.apply_to_basis(head, st), c, table)
        # [T, A(n)] = -n A(n-1) at the head's slot n
        kappa = -slot_of_index2(GENERATOR_WEIGHT2[head.kind], head.n2)
        if kappa:
            shifted = Mode(head.kind, head.color, head.n2 - 2)
            _add(out, self.apply_to_basis(shifted, rest), table.handle(kappa),
                 table)
        return out


class VermaModule(Module):
    """Verma module V(c, h) of the Virasoro or Neveu-Schwarz algebra.

    algebra="virasoro" uses L modes only; algebra="ns" adds the odd
    G modes of the super extension, indexed by Z + 1/2.
    """

    def __init__(self, algebra: str, c, h):
        super().__init__()
        if algebra not in ("virasoro", "ns"):
            raise ValueError(f"unknown algebra {algebra!r}")
        self.algebra = algebra
        self.kinds = {"L": 1} if algebra == "virasoro" else {"L": 1, "G": 1}
        self.c = Scalar.of(c)
        self.h = Scalar.of(h)

    def floor_action0(self, mode: Mode, floor: int) -> list:
        if mode.kind == "L":
            return [(self.h, floor)] if self.h else []
        raise ValueError(f"no index-zero action for {mode}")

    def bracket(self, m1: Mode, m2: Mode) -> list:
        k1, k2 = m1.kind, m2.kind
        if k1 == "L" and k2 == "L":
            m, n = m1.n2 // 2, m2.n2 // 2
            out = []
            if m != n:
                out.append((Scalar.of(m - n), Mode("L", 0, m1.n2 + m2.n2)))
            if m + n == 0 and m ** 3 - m:
                out.append((self.c * Fraction(m ** 3 - m, 12), None))
            return out
        if k1 == "G" and k2 == "L":
            coeff = Fraction(2 * m1.n2 - m2.n2, 4)
            if not coeff:
                return []
            return [(Scalar.of(coeff), Mode("G", 0, m1.n2 + m2.n2))]
        if k1 == "L" and k2 == "G":
            return [(-c, mode) for (c, mode) in self.bracket(m2, m1)]
        # G, G anticommutator
        out = [(Scalar.of(2), Mode("L", 0, m1.n2 + m2.n2))]
        if m1.n2 + m2.n2 == 0:
            central = self.c * Fraction(m1.n2 * m1.n2 - 1, 12)
            if central:
                out.append((central, None))
        return out

    def creation_modes(self, max_n2: int) -> list:
        modes = [Mode("L", 0, -m2) for m2 in range(2, max_n2 + 1, 2)]
        if self.algebra == "ns":
            modes += [Mode("G", 0, -m2) for m2 in range(1, max_n2 + 1, 2)]
        return modes

    def translation_floor(self, floor: int) -> dict:
        return {BasisState((Mode("L", 0, -2),), floor): ONE}


class FockModule(Module):
    """Currents of an affine Lie algebra tensored with `colors` free
    fermions, induced from a highest-weight floor.

    [x^a_m, x^b_n] = i sum_c Gamma_ab^c x^c_{m+n} + m delta_ab delta_{m+n}
    * level with m in Z, {psi^a_m, psi^b_n} = delta_ab delta_{m+n} with m
    in Z + 1/2, and the two families commute, so no Koszul sign crosses
    between them; every mode's adjoint negates its index.  Positive modes
    kill the floor, and x^a_0 acts there by the floor matrices: trivially,
    or on the sl2 spin floor of twice-spin spin2.  With no Lie algebra the
    module is the fermion Fock space alone.
    """

    def __init__(self, lie: LieAlgebra | None = None, level: int = 0,
                 colors: int = 0, spin2: int = 0, home: Module | None = None):
        super().__init__(home)
        self.lie = lie
        self.level = _exact_int(level, "level")
        self.colors = _exact_int(colors, "colors")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.colors < (0 if lie else 1):
            raise ValueError("need at least one fermion")
        self.kinds = {"x": lie.dim} if lie else {}
        if self.colors:
            self.kinds["psi"] = self.colors
        self.spin2 = spin2
        if spin2:
            check_sl2_floor(lie)
            self._floor_dim, self._floor_mats, self._floor_gram = sl2_floor(spin2)
        else:
            self._floor_dim, self._floor_gram = 1, [ONE]

    def floor_dim(self) -> int:
        return self._floor_dim

    def floor_pairing(self, i: int, j: int) -> Scalar:
        return self._floor_gram[i] if i == j else ZERO

    def floor_action0(self, mode: Mode, floor: int) -> list:
        if not self.spin2:
            return []
        mat = self._floor_mats[mode.color]
        return [(val, r) for (r, c), val in mat.items() if c == floor]

    def bracket(self, m1: Mode, m2: Mode) -> list:
        if m1.kind != m2.kind:
            return []
        dual = m1.color == m2.color and m1.n2 + m2.n2 == 0
        if m1.kind == "psi":
            return [(ONE, None)] if dual else []
        out = [(I * coeff, Mode("x", c, m1.n2 + m2.n2))
               for c, coeff in self.lie.bracket_coeffs(m1.color, m2.color)]
        if dual and m1.n2 and self.level:
            out.append((Scalar.of(m1.n2 // 2 * self.level), None))
        return out

    def creation_modes(self, max_n2: int) -> list:
        return [Mode(kind, a, -m2) for kind, count in self.kinds.items()
                for m2 in range(2 - mode_parity(kind), max_n2 + 1, 2)
                for a in range(count)]


def half2(value, name: str) -> int:
    """Twice a half-integer given as a number or a fraction string; a
    bool, or a value that is not a half-integer, raises.  The caller
    checks the sign that it needs."""
    try:
        twice = 2 * Fraction(value)
        if isinstance(value, bool) or twice.denominator != 1:
            raise ValueError
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a half-integer, got {value!r}") \
            from None
    return int(twice)


def module_from_descriptor(desc: dict) -> Module:
    """Build a module from a JSON descriptor.

    Supported: {"type": "ns_verma", "c": ..., "h": ...} (and
    "virasoro_verma"), {"type": "affine", "algebra": "sl2", "level": n,
    "spin": j}, {"type": "fermion", "colors": n}, and {"type": "tensor",
    "factors": [affine, fermion]}; the last three build a FockModule.
    Scalar entries accept the JSON term list, a bare integer, or a
    fraction string.
    """
    if not isinstance(desc, dict):
        raise ValueError("module descriptor must be an object")
    kind = desc.get("type")
    if kind == "ns_verma" or kind == "virasoro_verma":
        algebra = "ns" if kind == "ns_verma" else "virasoro"
        return VermaModule(algebra, *(
            Scalar.from_json(_json_key(desc, k, f"{kind} descriptor"))
            for k in ("c", "h")))
    if kind == "fermion":
        return FockModule(colors=desc.get("colors", 1))
    if kind == "affine":
        name = desc.get("algebra", "sl2")
        if isinstance(name, dict):
            lie = LieAlgebra.from_json(name)
        elif name == "sl2":
            lie = sl2()
        else:
            raise ValueError(f"unknown algebra {name!r}")
        return FockModule(lie, _json_key(desc, "level", "affine descriptor"),
                          spin2=half2(desc.get("spin", 0), "spin"))
    if kind == "tensor":
        # each factor reports its own errors before the order is checked
        descs = _json_list(_json_key(desc, "factors", "tensor descriptor"),
                           "tensor factors")
        factors = [module_from_descriptor(f) for f in descs]
        if [f["type"] for f in descs] != ["affine", "fermion"]:
            raise ValueError("tensor descriptor needs [affine, fermion] factors")
        x, psi = factors
        return FockModule(x.lie, x.level, psi.colors, x.spin2)
    raise ValueError(f"unknown module type {kind!r}")
