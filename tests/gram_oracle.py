"""Reference Gram entries by the per-pair recursion.

The earlier implementation of ``Module.inner_basis``, kept as an
independent oracle for tests/test_gram_oracle.py.  Each entry <b1, b2>
moves the head h of b1 = h w across as its adjoint, <w, h^dag b2>, and
recurses one memoized pair at a time with generic Scalar arithmetic; a
bare floor state on the left is conjugated over to the right, and two
floor states pair by the module's floor pairing.  Every entry, both
triangles included, is computed by the recursion.
"""

from __future__ import annotations

from nsvertex.modules import BasisState, adjoint_mode
from nsvertex.scalars import ZERO


class GramOracle:
    """The pairing of one module's basis states, pair by pair."""

    def __init__(self, module):
        self.module = module
        self._cache = {}

    def inner_basis(self, b1: BasisState, b2: BasisState):
        if b1.grade2 != b2.grade2:
            return ZERO
        return self._inner_same_grade(b1, b2)

    def _inner_same_grade(self, b1: BasisState, b2: BasisState):
        key = (b1, b2)
        out = self._cache.get(key)
        if out is None:
            if not b1.word:
                if not b2.word:
                    out = self.module.floor_pairing(b1.floor, b2.floor)
                else:
                    out = self._inner_same_grade(b2, b1).conjugate()
            else:
                head, rest = b1.word[0], BasisState(b1.word[1:], b1.floor)
                out = ZERO
                moved = self.module.apply_to_basis(adjoint_mode(head), b2)
                for t, c in moved.items():
                    out = out + c.conjugate() * self._inner_same_grade(rest, t)
            self._cache[key] = out
        return out

    def inner(self, u: dict, v: dict):
        out = ZERO
        for b1, c1 in u.items():
            for b2, c2 in v.items():
                out = out + c1 * c2.conjugate() * self.inner_basis(b1, b2)
        return out

    def gram(self, n2: int) -> list:
        basis = self.module.level_basis(n2)
        return [[self.inner_basis(b1, b2) for b2 in basis] for b1 in basis]
