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

from .liealg import LieAlgebra, sl2, sl2_floor
from .linalg import inertia_with_witness, kernel_basis
from .scalars import (ONE, ZERO, I, Scalar, _acc, _add, _dot, _exact_int,
                      _interned, _json_key, _json_list)

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


_new_state = tuple.__new__


class _StateFields(NamedTuple):
    word: tuple
    floor: int
    grade2: int


class BasisState(_StateFields):
    """A word of creation modes on a floor state.  BasisState(word,
    floor) stores the doubled grade -sum n2 of the word as its third
    field, computed once; _rest and _prepend derive a state from this
    one's grade without summing the word again.  The field is a function
    of the word, so states compare and sort as (word, floor) does."""

    __slots__ = ()

    def __new__(cls, word: tuple, floor: int):
        return _new_state(cls, (word, floor, -sum(m.n2 for m in word)))

    def __getnewargs__(self):
        return self.word, self.floor

    def _rest(self) -> "BasisState":
        """The state without the head mode of its word."""
        word = self.word
        return _new_state(BasisState, (word[1:], self.floor,
                                       self.grade2 + word[0].n2))

    def _prepend(self, mode: Mode) -> "BasisState":
        """The state with mode put in front of its word; the caller
        keeps the word in normal order."""
        return _new_state(BasisState, ((mode,) + self.word, self.floor,
                                       self.grade2 - mode.n2))

    def __str__(self):
        if not self.word:
            core = "Ω"
        else:
            core = " ".join(str(m) for m in self.word) + " Ω"
        return core if self.floor == 0 else f"{core}[{self.floor}]"


def state_grade2(state: BasisState) -> int:
    """The doubled grade of a basis state, which it stores."""
    return state.grade2


def state_parity(state: BasisState) -> int:
    return sum(mode_parity(m.kind) for m in state.word) & 1


def grade_str(n2: int) -> str:
    return str(Fraction(n2, 2))


class StateVector(dict):
    """A finite linear combination of basis states: the dict that maps
    each basis state to its nonzero Scalar coefficient, so it equals a
    mode action with the same entries."""

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
        _add(out, self, ONE)
        _add(out, other, coeff)
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
    index-zero mode on a floor vector, as [(coeff, floor')])."""

    kinds: dict     # generator kind -> number of colors

    def __init__(self):
        self._apply_cache = {}
        # grade n2 -> (index, block): each basis state's position and the
        # Hermitian Gram matrix of the grade (see _block)
        self._gram_cache = {}
        self._basis_cache = {}
        self._bracket_cache = {}
        # exact key of a coefficient value -> the first Scalar stored with
        # it, so equal coefficients in the memos are one object
        self._values = {}
        # the state-field memo of fields.py: a basis state or vector ->
        # its field, (A, B, j) -> the product field of bracket_from_ope, a
        # field of state_field on a vacuum module -> its state, and (field,
        # kind, color) -> the products that commute it past a head mode
        self._field_cache = {}

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

    def apply_to_basis(self, mode: Mode, state: BasisState) -> dict:
        """mode . state as a frozen dict; callers must not mutate the result."""
        key = (mode, state)
        out = self._apply_cache.get(key)
        if out is None:
            out = self._share(self._apply_uncached(mode, state))
            self._apply_cache[key] = out
        return out

    def _bracket(self, m1: Mode, m2: Mode) -> list:
        """self.bracket(m1, m2), memoized; callers must not change it."""
        key = (m1, m2)
        out = self._bracket_cache.get(key)
        if out is None:
            out = self._bracket_cache[key] = self.bracket(m1, m2)
        return out

    def _share(self, out: dict) -> dict:
        """out, a new action dict, with each coefficient swapped in place
        for its shared Scalar."""
        values = self._values
        for state, c in out.items():
            out[state] = _interned(values, c)
        return out

    def _apply_uncached(self, mode: Mode, state: BasisState) -> dict:
        self.check_mode(mode)
        if mode.n2 > state.grade2:
            return {}
        word = state.word
        if not word:
            if mode.n2 > 0:
                return {}
            if mode.n2 == 0:
                out = {}
                for coeff, fl in self.floor_action0(mode, state.floor):
                    _acc(out, BasisState((), fl), coeff)
                return out
            return {state._prepend(mode): ONE}
        head = word[0]
        if mode.n2 < 0:
            k, k1 = mode_key(mode), mode_key(head)
            if k > k1 or (k == k1 and not mode_parity(mode.kind)):
                return {state._prepend(mode): ONE}
            if k == k1:
                # square of an odd mode: m^2 = (1/2)[m, m]_+
                rest = state._rest()
                out = {}
                for coeff, bmode in self._bracket(mode, head):
                    half = coeff * Fraction(1, 2)
                    if bmode is None:
                        _acc(out, rest, half)
                    else:
                        _add(out, self.apply_to_basis(bmode, rest), half)
                return out
        rest = state._rest()
        sign = -1 if mode_parity(mode.kind) and mode_parity(head.kind) else 1
        out = {}
        for st, c in self.apply_to_basis(mode, rest).items():
            _add(out, self.apply_to_basis(head, st), -c if sign < 0 else c)
        for coeff, bmode in self._bracket(mode, head):
            if bmode is None:
                _acc(out, rest, coeff)
            else:
                _add(out, self.apply_to_basis(bmode, rest), coeff)
        return out

    def apply(self, mode: Mode, vec: dict) -> StateVector:
        out = StateVector()
        for state, coeff in vec.items():
            _add(out, self.apply_to_basis(mode, state), coeff)
        return out

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
        values = self._values
        for i, b in enumerate(basis):
            if b.word:
                head = b.word[0]
                # moving the head across keeps the grades equal
                low_index, low = self._block(n2 + head.n2)
                w = low[low_index[b._rest()]]
                adj = adjoint_mode(head)
                row = (_dot((c, w[low_index[t]]) for t, c in
                            self.apply_to_basis(adj, basis[j]).items())
                       for j in range(i, len(basis)))
            else:
                row = (self.floor_pairing(b.floor, basis[j].floor)
                       for j in range(i, len(basis)))
            for j, x in enumerate(row, i):
                block[i][j] = x = _interned(values, x)
                y = x.conjugate()
                block[j][i] = y if y is x else _interned(values, y)
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

    def kernel_vectors(self, n2: int) -> list:
        basis, matrix = self.gram(n2)
        # null vectors of the pairing: v with <w, v> = 0 for all w; the
        # Gram columns are conjugate-linear in v, so solve with the
        # conjugated matrix (real Grams are unaffected)
        conj = [[x.conjugate() for x in row] for row in matrix]
        return [StateVector(zip(basis, coeffs)) for coeffs in kernel_basis(conj)]

    def irreducible_dims(self, depth2: int) -> list:
        return [len(self.level_basis(n2)) - len(self.kernel_vectors(n2))
                for n2 in range(depth2 + 1)]

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
        out = StateVector()
        for state, coeff in vec.items():
            _add(out, self._translate_basis(state), coeff)
        return out

    def _translate_basis(self, state: BasisState) -> dict:
        if not state.word:
            return self.translation_floor(state.floor)
        head, rest = state.word[0], state._rest()
        out = {}
        for st, c in self._translate_basis(rest).items():
            _add(out, self.apply_to_basis(head, st), c)
        # [T, A(n)] = -n A(n-1) at the head's slot n
        kappa = -slot_of_index2(GENERATOR_WEIGHT2[head.kind], head.n2)
        if kappa:
            shifted = Mode(head.kind, head.color, head.n2 - 2)
            _add(out, self.apply_to_basis(shifted, rest), kappa)
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
                 colors: int = 0, spin2: int = 0):
        super().__init__()
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
            if lie is None or lie.name != "sl2":
                raise ValueError("spin floors are available for sl2 only")
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
