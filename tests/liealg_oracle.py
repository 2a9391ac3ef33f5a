"""Reference structure-constant tensor with antisymmetry applied per call.

The earlier implementation of ``nsvertex.liealg.LieAlgebra``'s
``gamma_entry``, ``bracket_coeffs`` and ``validate``, and of the
fermion current states built from them, kept unchanged as an
independent oracle for tests/test_liealg_oracle.py: every entry sorts
its triple and signs the permutation, the bracket table is built on
first use, and validation runs dense loops over every index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from nsvertex.modules import BasisState, Mode, StateVector, _acc
from nsvertex.scalars import I, Scalar


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


class LieAlgebra:
    """A Lie algebra given by totally antisymmetric structure constants."""

    def __init__(self, name: str, dim: int, gamma: dict):
        """gamma maps sorted index triples (a < b < c, 0-based) to Scalar."""
        self.name = name
        self.dim = dim
        self.gamma = {k: Scalar.of(v) for k, v in gamma.items() if Scalar.of(v)}
        for (a, b, c) in self.gamma:
            if not (0 <= a < b < c < dim):
                raise ValueError(f"bad structure constant triple {(a, b, c)}")
        self._bracket_table = None

    def gamma_entry(self, a: int, b: int, c: int) -> Scalar:
        """Gamma_ab^c, antisymmetrized over all three indices."""
        if len({a, b, c}) < 3:
            return Scalar.of(0)
        order = sorted((a, b, c))
        val = self.gamma.get(tuple(order))
        if val is None:
            return Scalar.of(0)
        sign = _perm_sign([order.index(a), order.index(b), order.index(c)])
        return val if sign == 1 else -val

    def bracket_coeffs(self, a: int, b: int) -> list[tuple[int, Scalar]]:
        """[X_a, X_b] = i * sum over returned (c, Gamma_ab^c) of X_c."""
        if self._bracket_table is None:
            table = {}
            for (i, j, k), val in self.gamma.items():
                for (a1, b1, c1) in permutations((i, j, k)):
                    sign = _perm_sign([(i, j, k).index(a1), (i, j, k).index(b1),
                                       (i, j, k).index(c1)])
                    table.setdefault((a1, b1), []).append(
                        (c1, val if sign == 1 else -val))
            self._bracket_table = table
        return self._bracket_table.get((a, b), [])

    def validate(self) -> dict:
        """Check realness, antisymmetry, Jacobi and the normalization.

        Returns a report with one entry per check and, when the
        normalization holds, the dual Coxeter number g.
        """
        checks = {}
        checks["real"] = all(v.is_real() for v in self.gamma.values())
        # antisymmetry is structural for the stored triples; verify the
        # expanded tensor anyway
        anti = True
        for a in range(self.dim):
            for b in range(self.dim):
                for c in range(self.dim):
                    g = self.gamma_entry(a, b, c)
                    if g != -self.gamma_entry(b, a, c) or g != -self.gamma_entry(a, c, b):
                        anti = False
        checks["antisymmetric"] = anti
        jacobi = True
        for a in range(self.dim):
            for b in range(self.dim):
                for c in range(self.dim):
                    for d in range(self.dim):
                        total = Scalar.of(0)
                        for e in range(self.dim):
                            total = total + self.gamma_entry(a, b, e) * self.gamma_entry(c, d, e)
                            total = total + self.gamma_entry(d, a, e) * self.gamma_entry(c, b, e)
                            total = total + self.gamma_entry(d, b, e) * self.gamma_entry(a, c, e)
                        if total:
                            jacobi = False
        checks["jacobi"] = jacobi
        norm_ok = True
        g_value = None
        for b in range(self.dim):
            for d in range(self.dim):
                total = Scalar.of(0)
                for a in range(self.dim):
                    for c in range(self.dim):
                        total = total + self.gamma_entry(a, c, b) * self.gamma_entry(a, c, d)
                if b == d:
                    if g_value is None:
                        g_value = total / 2
                    elif total / 2 != g_value:
                        norm_ok = False
                elif total:
                    norm_ok = False
        checks["normalized"] = norm_ok
        report = {
            "name": self.name,
            "dim": self.dim,
            "checks": checks,
            "valid": all(checks.values()),
        }
        if norm_ok and g_value is not None:
            report["dual_coxeter"] = g_value
        return report


def current_state(lie, c: int) -> StateVector:
    """S^c = -(i/2) sum_{a,b} Gamma_ab^c psi^a(-1/2) psi^b(-1/2) vac.

    Basis words list the higher color first, so the a < b terms pick up
    a reordering sign."""
    out = {}
    half_i = I * Fraction(-1, 2)
    for a in range(lie.dim):
        for b in range(lie.dim):
            if a == b:
                continue
            coeff = lie.gamma_entry(a, b, c)
            if not coeff:
                continue
            if a > b:
                st = BasisState((Mode("psi", a, -1), Mode("psi", b, -1)), 0)
                _acc(out, st, half_i * coeff)
            else:
                st = BasisState((Mode("psi", b, -1), Mode("psi", a, -1)), 0)
                _acc(out, st, -(half_i * coeff))
    return StateVector(out)
