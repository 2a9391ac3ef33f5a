"""Exact linear algebra over the scalar field.

Echelon is the one row reduction: it reduces sparse rows
incrementally, and the reduced row echelon form and kernels are built
on it.  They work over the full field (radicals allowed).
The inertia of a symmetric form is restricted to rational entries, where
signs are decidable: its congruence elimination runs fraction-free on
the integer matrix left after clearing denominators once, and a
negative-norm witness is solved for only when one exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import ONE, ZERO, Scalar, _add, _ratio


def _acc(d: dict, key, coeff: Scalar):
    """d[key] += coeff, dropping the entry if it vanishes."""
    cur = d.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


class Echelon:
    """Incremental row reduction: sparse rows {key: Scalar}, each scaled
    to lead with 1 and kept under its leading (least) key."""

    def __init__(self):
        self.rows = {}

    def add(self, vec: dict) -> bool:
        """Reduce vec against the rows; keep it and return True when it
        is independent of them."""
        v = dict(vec)
        while v:
            pivot = min(v)
            row = self.rows.get(pivot)
            if row is None:
                inv = v[pivot].inverse()
                self.rows[pivot] = {s: c * inv for s, c in v.items()}
                return True
            _add(v, row, -v[pivot])
        return False

    def __len__(self):
        return len(self.rows)


def row_reduce(matrix: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ech = Echelon()
    for row in matrix:
        ech.add({j: x for j, x in enumerate(row) if x})
    pivots = sorted(ech.rows)
    # back-substitute, last pivot first: clear every later pivot column
    for i in reversed(range(len(pivots))):
        row = ech.rows[pivots[i]]
        for p in pivots[i + 1:]:
            if p in row:
                _add(row, ech.rows[p], -row[p])
    ncols = len(matrix[0]) if matrix else 0
    return [[ech.rows[p].get(j, ZERO) for j in range(ncols)]
            for p in pivots], pivots


def kernel_basis(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Basis of the right kernel {x : M x = 0}, one vector per free column."""
    if not matrix:
        return []
    rows, pivots = row_reduce(matrix)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _integer_matrix(matrix) -> list[list[int]]:
    """The rational matrix times the least common multiple of its denominators."""
    den = lcm(*(_ratio(x)[1] for row in matrix for x in row))
    return [[n * (den // d) for n, d in map(_ratio, row)] for row in matrix]


def _swap(a: list[list[int]], idx: list[int], i: int, k: int):
    """Exchange positions i and k of a symmetric block and of its index list."""
    a[i], a[k] = a[k], a[i]
    for row in a:
        row[i], row[k] = row[k], row[i]
    idx[i], idx[k] = idx[k], idx[i]


def _content_free(block: list[list[int]]) -> list[list[int]]:
    """The block divided by the gcd of its entries."""
    g = 0
    for row in block:
        g = gcd(g, *row)
        if g == 1:
            return block
    return [[x // g for x in row] for row in block] if g else block


def _orthogonal_witness(a0: list[list[int]], done: list[int],
                        target: dict[int, int]) -> list[Fraction]:
    """The w with w[t] = target[t] on the targets, supported on those and
    on done, and a0-orthogonal to the basis vector of every index in done.

    The a0-block on done is nonsingular (congruent to the pivots
    eliminated there), so w is unique.
    """
    rhs = [-sum(v * a0[p][t] for t, v in target.items()) for p in done]
    system = [[Scalar.of(a0[p][q]) for q in done] + [Scalar.of(b)]
              for p, b in zip(done, rhs)]
    solved, _ = row_reduce(system)
    w = [Fraction(0)] * len(a0)
    for t, v in target.items():
        w[t] = Fraction(v)
    for p, row in zip(done, solved):
        w[p] = row[-1].as_fraction()
    return w


def inertia_with_witness(matrix) -> tuple[int, int, int, list[Fraction] | None]:
    """Signature of a rational symmetric matrix plus a negative-norm witness.

    The witness w (coordinates in the given basis) satisfies w M w^T < 0;
    None when the form is positive semidefinite.  Congruence elimination:
    nonzero diagonal pivots contribute their sign, a zero-diagonal block
    with a nonzero off-diagonal entry is a hyperbolic pair (+1, -1).

    The elimination runs on integers.  The matrix is scaled once by the
    common denominator of its entries, and after each pivot the remaining
    block is a positive multiple of the rational Schur complement: it is
    rescaled by the pivot's absolute value and divided by the gcd of its
    entries.  Every zero test and sign, and so the pivot order, is that of
    the rational elimination.  Only the order of the pivots is kept; the
    witness is built at the first negative pivot or hyperbolic pair, from
    one rational solve on the pivots eliminated before it.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    a0 = _integer_matrix(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if a0[i][j] != a0[j][i]:
                raise ValueError("matrix is not symmetric")
    a = [row[:] for row in a0]
    idx = list(range(n))    # basis index at each position of the block
    done = []               # basis indices of the pivots eliminated so far
    pos = neg = zero = 0
    witness = None
    while a:
        m = len(a)
        k = next((j for j in range(m) if a[j][j]), None)
        if k is not None:
            if k:
                _swap(a, idx, 0, k)
            d = a[0][0]
            if d > 0:
                pos += 1
                sign = 1
            else:
                neg += 1
                if witness is None:
                    witness = _orthogonal_witness(a0, done, {idx[0]: 1})
                sign, d = -1, -d
            # |pivot| * (a - b b^T / pivot), with b the pivot's column
            col = [sign * a[r][0] for r in range(1, m)]
            block = [[d * x - a[r][0] * c for x, c in zip(a[r][1:], col)]
                     for r in range(1, m)]
            width = 1
        else:
            hyp = next(((r, s) for r in range(m) for s in range(r + 1, m)
                        if a[r][s]), None)
            if hyp is None:
                zero += m
                break
            r, s = hyp
            if r:
                _swap(a, idx, 0, r)
            if s != 1:
                _swap(a, idx, 1, s)
            off = a[0][1]
            pos += 1
            neg += 1
            if witness is None:
                witness = _orthogonal_witness(
                    a0, done, {idx[0]: 1, idx[1]: -1 if off > 0 else 1})
            sign, off = (1, off) if off > 0 else (-1, -off)
            # |off| * (a - (b1 b2^T + b2 b1^T) / off), b1 and b2 the pair's columns
            b1 = [sign * a[r][0] for r in range(2, m)]
            b2 = [a[r][1] for r in range(2, m)]
            block = [[off * x - c1 * d2 - c2 * d1
                      for x, d1, d2 in zip(a[r][2:], b1, b2)]
                     for r, c1, c2 in zip(range(2, m), b1, b2)]
            width = 2
        a = _content_free(block)
        done.extend(idx[:width])
        del idx[:width]
    return pos, zero, neg, witness
