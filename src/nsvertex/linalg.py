"""Exact linear algebra over the scalar field.

Echelon is the one elimination over Scalars: it reduces sparse rows
incrementally, and back-substitutes them once for the right kernel,
which answers every rank, kernel and linear solve.  It works over the
full field (radicals allowed), on handles of a table of its own.
The inertia of a symmetric form is restricted to rational entries, where
signs are decidable: its congruence elimination runs fraction-free on
the integer matrix left after clearing denominators once, and a
negative-norm witness is solved for only when one exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import ONE, Coefficients, Scalar, _add, _ratio


class Echelon:
    """Incremental row reduction: sparse rows {key: handle} of the
    echelon's own table, each scaled to lead with 1 and kept under its
    leading (least) key.  Vectors come in and go out as Scalars."""

    def __init__(self):
        self.rows = {}
        self._table = Coefficients()

    def add(self, vec: dict) -> bool:
        """Reduce the Scalar vector vec against the rows; keep it and
        return True when it is independent of them."""
        table = self._table
        v = {key: table.handle(c) for key, c in vec.items()}
        minus = table.handle(-1)
        while v:
            pivot = min(v)
            row = self.rows.get(pivot)
            if row is None:
                row = self.rows[pivot] = {}
                inverse = table.values[v[pivot]].inverse()
                _add(row, v, table.handle(inverse), table)
                return True
            _add(v, row, table.product(v[pivot], minus), table)
        return False

    def __len__(self):
        return len(self.rows)

    def row(self, pivot) -> dict:
        """The row kept under pivot, as Scalars."""
        values = self._table.values
        return {key: values[c] for key, c in self.rows[pivot].items()}

    def kernel(self, ncols: int) -> list[dict]:
        """The right kernel over columns 0..ncols-1, as Scalar vectors:
        for each free column f the x with x_f = 1 and x_p = -(reduced
        row p)_f at each pivot p.  The rows are left reduced: zero at
        every pivot but their own."""
        table = self._table
        minus = table.handle(-1)
        # last pivot first, so the rows subtracted are reduced already
        for q in sorted(self.rows, reverse=True):
            row = self.rows[q]
            for p in [p for p in row if p != q and p in self.rows]:
                _add(row, self.rows[p], table.product(row[p], minus), table)
        values = table.values
        return [{f: ONE} | {p: -values[row[f]] for p, row in self.rows.items()
                            if f in row}
                for f in range(ncols) if f not in self.rows]


def _integer_matrix(matrix) -> list[list[int]]:
    """The rational matrix times the least common multiple of its denominators."""
    ratios = [list(map(_ratio, row)) for row in matrix]
    den = lcm(*(d for row in ratios for _, d in row))
    return [[n * (den // d) for n, d in row] for row in ratios]


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
    eliminated there), so w is unique: on done it is the one kernel
    vector of that block with the column sum_t target[t] a0[p][t] added."""
    k = len(done)
    ech = Echelon()
    for p in done:
        row = {j: Scalar.of(a0[p][q]) for j, q in enumerate(done) if a0[p][q]}
        if (b := sum(v * a0[p][t] for t, v in target.items())):
            row[k] = Scalar.of(b)
        ech.add(row)
    w = [Fraction(0)] * len(a0)
    for t, v in target.items():
        w[t] = Fraction(v)
    [solved] = ech.kernel(k + 1)
    for j, p in enumerate(done):
        if j in solved:
            w[p] = solved[j].as_fraction()
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
