"""Structure-constant data for finite-dimensional Lie algebras.

A compact form is presented by a basis X_1 .. X_N with

    [X_a, X_b] = i * sum_c Gamma_ab^c X_c,

where Gamma is real and totally antisymmetric in its three indices, the
adjoint invariant form is normalized by

    sum_{a,c} Gamma_ac^b Gamma_ac^d = 2 g delta_bd,

and g is the dual Coxeter number.  Indices are 0-based internally and
1-based in JSON files.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .scalars import Scalar, rational


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
        self._dual_coxeter = None

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

    # -- validation ------------------------------------------------------

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

    def dual_coxeter(self) -> Scalar:
        """g = (1/2) sum_{a,c} (Gamma_ac^b)^2 for any fixed b."""
        if self._dual_coxeter is None:
            report = self.validate()
            if not report["valid"]:
                raise ValueError(f"invalid structure constants for {self.name}")
            self._dual_coxeter = report["dual_coxeter"]
        return self._dual_coxeter

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for (a, b, c), val in sorted(self.gamma.items()):
            entries.append({"a": a + 1, "b": b + 1, "c": c + 1, "val": val.to_json()})
        return {"name": self.name, "dim": self.dim, "gamma": entries}

    @staticmethod
    def from_json(data: dict) -> "LieAlgebra":
        dim = data["dim"]
        gamma = {}
        for item in data["gamma"]:
            a, b, c = item["a"] - 1, item["b"] - 1, item["c"] - 1
            if not a < b:
                raise ValueError("gamma entries must have a < b")
            val = Scalar.from_json(item["val"])
            idx = tuple(sorted((a, b, c)))
            sign = _perm_sign([idx.index(a), idx.index(b), idx.index(c)])
            canon = val if sign == 1 else -val
            if idx in gamma and gamma[idx] != canon:
                raise ValueError(f"conflicting entries for triple {idx}")
            gamma[idx] = canon
        return LieAlgebra(data["name"], dim, gamma)


def sl2() -> LieAlgebra:
    """The compact form of sl2: Gamma_12^3 = sqrt(2), totally antisymmetric.

    Realized by X_1 = (i sqrt2 / 2)(E - F), X_2 = (sqrt2 / 2)(E + F),
    X_3 = (sqrt2 / 2) H.
    """
    return LieAlgebra("sl2", 3, {(0, 1, 2): Scalar.root(2)})


def casimir_constant_sl2(j) -> Scalar:
    """Eigenvalue of sum_a X_a^2 on the spin-j representation: 2j^2 + 2j."""
    j = Fraction(j)
    return rational(2 * j * j + 2 * j)


def sl2_floor(j2: int):
    """Spin j = j2/2 representation data on the basis v_k = F^k v_0.

    Returns (dim, matrices, gram) where matrices[a] is the action of
    X_{a+1} as {(row, col): Scalar} and gram is the diagonal of the
    invariant Hermitian form, <v_k, v_k> = k! (2j)! / (2j - k)!.
    """
    if j2 < 0:
        raise ValueError("spin must be nonnegative")
    dim = j2 + 1
    e = {}
    f = {}
    h = {}
    for k in range(dim):
        if k > 0:
            e[(k - 1, k)] = rational(k * (j2 + 1 - k))
        if k < j2:
            f[(k + 1, k)] = rational(1)
        if j2 - 2 * k:
            h[(k, k)] = rational(j2 - 2 * k)

    def combine(coeff_e, coeff_f, coeff_h):
        out = {}
        for mat, coeff in ((e, coeff_e), (f, coeff_f), (h, coeff_h)):
            if not coeff:
                continue
            for pos, val in mat.items():
                acc = out.get(pos, Scalar.of(0)) + coeff * val
                if acc:
                    out[pos] = acc
                elif pos in out:
                    del out[pos]
        return out

    half_i_root2 = Scalar({-2: Fraction(1, 2)})   # i*sqrt(2)/2
    half_root2 = Scalar({2: Fraction(1, 2)})
    matrices = [
        combine(half_i_root2, -half_i_root2, Scalar.of(0)),
        combine(half_root2, half_root2, Scalar.of(0)),
        combine(Scalar.of(0), Scalar.of(0), half_root2),
    ]
    gram = []
    norm = Fraction(1)
    for k in range(dim):
        if k > 0:
            norm *= k * (j2 + 1 - k)
        gram.append(rational(norm))
    return dim, matrices, gram


CATALOG = [
    {"family": "A", "rank": "n", "dim": "n^2 + 2n", "dual_coxeter": "n + 1"},
    {"family": "B", "rank": "n", "dim": "2n^2 + n", "dual_coxeter": "2n - 1"},
    {"family": "C", "rank": "n", "dim": "2n^2 + n", "dual_coxeter": "n + 1"},
    {"family": "D", "rank": "n", "dim": "2n^2 - n", "dual_coxeter": "2n - 2"},
    {"family": "E", "rank": "6", "dim": "78", "dual_coxeter": "12"},
    {"family": "E", "rank": "7", "dim": "133", "dual_coxeter": "18"},
    {"family": "E", "rank": "8", "dim": "248", "dual_coxeter": "30"},
    {"family": "F", "rank": "4", "dim": "52", "dual_coxeter": "9"},
    {"family": "G", "rank": "2", "dim": "14", "dual_coxeter": "4"},
]


def catalog_entry(family: str, rank: int) -> tuple[int, int]:
    """(dimension, dual Coxeter number) for a simple family member."""
    family = family.upper()
    n = rank
    if family == "A" and n >= 1:
        return n * n + 2 * n, n + 1
    if family == "B" and n >= 2:
        return 2 * n * n + n, 2 * n - 1
    if family == "C" and n >= 2:
        return 2 * n * n + n, n + 1
    if family == "D" and n >= 3:
        return 2 * n * n - n, 2 * n - 2
    if family == "E" and n in (6, 7, 8):
        return {6: (78, 12), 7: (133, 18), 8: (248, 30)}[n]
    if family == "F" and n == 4:
        return 52, 9
    if family == "G" and n == 2:
        return 14, 4
    raise ValueError(f"no catalog entry for {family}{rank}")
