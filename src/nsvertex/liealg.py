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

from .certify import sweep
from .scalars import ZERO, Scalar, _acc, _exact_int, _json_key, _json_list


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
        """Sweep realness, antisymmetry, Jacobi and the normalization.

        Returns a report with one entry per check and, when the
        normalization holds, the dual Coxeter number g.  When a check
        fails, `failures` maps it to its failing points, with 1-based
        indices: the triples (a, b, c) of a non-real entry, of a tensor
        entry that some transposition does not negate, or of a Jacobi
        sum that is not zero, and the pairs (b, d) where the invariant
        form is not 2 g delta_bd.  Jacobi and the invariant form are
        contracted over the nonzero entries only.
        """
        tensor, brackets, span = self._tensor, self._brackets, range(self.dim)

        def entry(a, b, c):
            return tensor.get((a - 1, b - 1, c - 1), ZERO)

        def jacobi_sum(a, b, c):
            # sum_e Gamma_ab^e Gamma_ec^f plus its cyclic shifts in
            # (a, b, c), by f: any nonzero one is reached from a pair
            # (a, b) with [X_a, X_b] != 0
            a, b, c = a - 1, b - 1, c - 1
            total = {}
            for pairs, d in ((brackets[a, b], c),
                             (brackets.get((b, c), ()), a),
                             (brackets.get((c, a), ()), b)):
                for e, x in pairs:
                    for f, y in brackets.get((e, d), ()):
                        total[f] = total.get(f, ZERO) + x * y
            return {f: v for f, v in total.items() if v}

        # K_bd = sum_{a,c} Gamma_ac^b Gamma_ac^d
        form = {}
        for pairs in brackets.values():
            for b, x in pairs:
                for d, y in pairs:
                    form[b, d] = form.get((b, d), ZERO) + x * y
        g_value = form.get((0, 0), ZERO) / 2 if self.dim else None

        def triples(keys):
            return ({"a": a + 1, "b": b + 1, "c": c + 1} for a, b, c in keys)

        failures = {
            "real": sweep(triples(self.gamma), lambda a, b, c: True,
                          lambda a, b, c: entry(a, b, c).is_real()),
            # structural for the stored triples; verify the expanded
            # tensor anyway
            "antisymmetric": sweep(
                triples(tensor), lambda a, b, c: (entry(a, b, c),) * 2,
                lambda a, b, c: (-entry(b, a, c), -entry(a, c, b))),
            "jacobi": sweep(
                ({"a": a + 1, "b": b + 1, "c": c + 1} for a, b in brackets
                 for c in span), jacobi_sum, lambda a, b, c: {}),
            "normalized": sweep(
                ({"b": b + 1, "d": d + 1} for b in span for d in span),
                lambda b, d: form.get((b - 1, d - 1), ZERO),
                lambda b, d: 2 * g_value if b == d else ZERO),
        }
        failures = {name: rep["failures"] for name, rep in failures.items()}
        checks = {name: not found for name, found in failures.items()}
        report = {"name": self.name, "dim": self.dim, "checks": checks,
                  "valid": all(checks.values())}
        if checks["normalized"] and g_value is not None:
            report["dual_coxeter"] = g_value
        if not report["valid"]:
            report["failures"] = {name: found for name, found
                                  in failures.items() if found}
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


def check_sl2_floor(lie: LieAlgebra | None) -> None:
    """Raise unless lie has the structure constants that sl2_floor's
    matrices represent, those of sl2(): a table with another sign, under
    whatever name, builds a floor whose zero modes do not represent its
    bracket."""
    if lie is None or lie.dim != 3 or lie.gamma != sl2().gamma:
        raise ValueError(
            "spin floors are available for sl2 only: the floor matrices "
            "represent Gamma_12^3 = sqrt(2)"
            + ("" if lie is None else
               f", and the table {lie.name!r} has other structure constants"))


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
            for key, val in mat.items():
                _acc(out, key, val * coeff)
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
