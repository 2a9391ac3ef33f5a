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

from .scalars import ZERO, Scalar, _add, _exact_int, _json_key, _json_list


# signs of itertools.permutations of a triple, in the order it yields them
_PERMUTATION_SIGNS = (1, -1, -1, 1, 1, -1)


def _signed_permutations(triple):
    """(permuted triple, sign of the permutation) for each ordering."""
    return zip(permutations(triple), _PERMUTATION_SIGNS)


class LieAlgebra:
    """A Lie algebra given by totally antisymmetric structure constants."""

    def __init__(self, name: str, dim: int, gamma: dict):
        """gamma maps sorted index triples (a < b < c, 0-based) to Scalar.

        The tensor is expanded once: every nonzero Gamma_ab^c, and for
        each (a, b) the list of (c, Gamma_ab^c) that bracket_coeffs
        returns."""
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim must be a nonnegative integer, got {dim!r}")
        self.name = name
        self.dim = dim
        self.gamma = {k: Scalar.of(v) for k, v in gamma.items() if Scalar.of(v)}
        self._tensor = {}
        self._brackets = {}
        for (i, j, k), val in self.gamma.items():
            if not (0 <= i < j < k < dim):
                raise ValueError(f"bad structure constant triple {(i, j, k)}")
            for (a, b, c), sign in _signed_permutations((i, j, k)):
                entry = val if sign == 1 else -val
                self._tensor[a, b, c] = entry
                self._brackets.setdefault((a, b), []).append((c, entry))
        self._dual_coxeter = None

    def gamma_entry(self, a: int, b: int, c: int) -> Scalar:
        """Gamma_ab^c, antisymmetrized over all three indices."""
        return self._tensor.get((a, b, c), ZERO)

    def bracket_coeffs(self, a: int, b: int) -> list[tuple[int, Scalar]]:
        """[X_a, X_b] = i * sum over returned (c, Gamma_ab^c) of X_c."""
        return self._brackets.get((a, b), [])

    # -- validation ------------------------------------------------------

    def validate(self) -> dict:
        """Check realness, antisymmetry, Jacobi and the normalization.

        Returns a report with one entry per check and, when the
        normalization holds, the dual Coxeter number g.  Jacobi and the
        invariant form are contracted over the nonzero entries only.
        """
        tensor, brackets = self._tensor, self._brackets
        checks = {"real": all(v.is_real() for v in self.gamma.values())}
        # antisymmetry is structural for the stored triples; verify the
        # expanded tensor anyway
        checks["antisymmetric"] = all(
            val == -tensor.get((b, a, c), ZERO)
            and val == -tensor.get((a, c, b), ZERO)
            for (a, b, c), val in tensor.items())

        # sum_e Gamma_ab^e Gamma_ec^f plus its cyclic shifts in (a, b, c):
        # any nonzero one is reached from a pair (a, b) with [X_a, X_b] != 0
        jacobi = True
        for (a, b), ab in brackets.items():
            for c in range(self.dim):
                total = {}
                for pairs, d in ((ab, c), (brackets.get((b, c), ()), a),
                                 (brackets.get((c, a), ()), b)):
                    for e, x in pairs:
                        for f, y in brackets.get((e, d), ()):
                            total[f] = total.get(f, ZERO) + x * y
                if any(total.values()):
                    jacobi = False
        checks["jacobi"] = jacobi
        # K_bd = sum_{a,c} Gamma_ac^b Gamma_ac^d
        form = {}
        for pairs in brackets.values():
            for b, x in pairs:
                for d, y in pairs:
                    form[b, d] = form.get((b, d), ZERO) + x * y
        diagonal = [form.get((b, b), ZERO) / 2 for b in range(self.dim)]
        g_value = diagonal[0] if diagonal else None
        norm_ok = all(v == g_value for v in diagonal) and not any(
            v for (b, d), v in form.items() if b != d)
        checks["normalized"] = norm_ok
        report = {"name": self.name, "dim": self.dim, "checks": checks,
                  "valid": all(checks.values())}
        if norm_ok and g_value is not None:
            report["dual_coxeter"] = g_value
        return report

    def dual_coxeter(self) -> Scalar:
        """g = (1/2) sum_{a,c} (Gamma_ac^b)^2 for any fixed b."""
        if self._dual_coxeter is None:
            report = self.validate()
            failed = [k for k, ok in report["checks"].items() if not ok]
            if failed:
                raise ValueError(f"invalid structure constants for "
                                 f"{self.name}: {', '.join(failed)}")
            if "dual_coxeter" not in report:
                raise ValueError(f"{self.name} has no dual Coxeter number: "
                                 f"its invariant form is empty (dim {self.dim})")
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
        name, dim, entries = (_json_key(data, k, "algebra")
                              for k in ("name", "dim", "gamma"))
        gamma = {}
        for item in _json_list(entries, "gamma"):
            a, b, c = (_exact_int(_json_key(item, k, "gamma entry"),
                                  f"gamma index {k}") - 1
                       for k in "abc")
            if not a < b:
                raise ValueError("gamma entries must have a < b")
            val = Scalar.from_json(_json_key(item, "val", "gamma entry"))
            idx = tuple(sorted((a, b, c)))
            sign = dict(_signed_permutations(idx))[a, b, c]
            canon = val if sign == 1 else -val
            if idx in gamma and gamma[idx] != canon:
                raise ValueError(f"conflicting entries for triple {idx}")
            gamma[idx] = canon
        return LieAlgebra(name, dim, gamma)


def sl2() -> LieAlgebra:
    """The compact form of sl2: Gamma_12^3 = sqrt(2), totally antisymmetric.

    Realized by X_1 = (i sqrt2 / 2)(E - F), X_2 = (sqrt2 / 2)(E + F),
    X_3 = (sqrt2 / 2) H.
    """
    return LieAlgebra("sl2", 3, {(0, 1, 2): Scalar.root(2)})


def casimir_constant_sl2(j) -> Scalar:
    """Eigenvalue of sum_a X_a^2 on the spin-j representation: 2j^2 + 2j."""
    j = Fraction(j)
    return Scalar.of(2 * j * j + 2 * j)


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
            e[(k - 1, k)] = Scalar.of(k * (j2 + 1 - k))
        if k < j2:
            f[(k + 1, k)] = Scalar.of(1)
        if j2 - 2 * k:
            h[(k, k)] = Scalar.of(j2 - 2 * k)

    def combine(coeff_e, coeff_f, coeff_h):
        out = {}
        for mat, coeff in ((e, coeff_e), (f, coeff_f), (h, coeff_h)):
            if coeff:
                _add(out, mat, coeff)
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
        gram.append(Scalar.of(norm))
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
