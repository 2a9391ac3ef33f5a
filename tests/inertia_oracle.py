"""Reference signature of a rational symmetric form, in Fractions, and
reference dense row reduction and kernel.

Earlier implementations from ``nsvertex.linalg``, kept as independent
oracles for the tests.  ``inertia_with_witness`` is congruence
elimination in ``fractions.Fraction`` that carries the congruence rows
``u`` through every pivot and copies the witness from them;
``row_reduce`` is Gauss-Jordan elimination on dense rows, column by
column, and ``kernel_basis`` reads the right kernel off its reduced form.
"""

from __future__ import annotations

from fractions import Fraction

from nsvertex.scalars import Scalar


def row_reduce(matrix: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def kernel_basis(matrix: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel {x : M x = 0}, one vector per free column."""
    rows, pivots = row_reduce(matrix)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Scalar.of(0)] * ncols
            vec[fc] = Scalar.of(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(vec)
    return basis


def _as_fraction_matrix(matrix: list[list[Scalar]]) -> list[list[Fraction]]:
    out = []
    for row in matrix:
        out.append([x.as_fraction() for x in row])
    return out


def inertia_with_witness(matrix) -> tuple[int, int, int, list[Fraction] | None]:
    """Signature of a rational symmetric matrix plus a negative-norm witness.

    The witness w (coordinates in the given basis) satisfies w M w^T < 0;
    None when the form is positive semidefinite.  Congruence elimination:
    nonzero diagonal pivots contribute their sign, a zero-diagonal block
    with a nonzero off-diagonal entry is a hyperbolic pair (+1, -1).
    """
    a = _as_fraction_matrix(matrix) if matrix and isinstance(matrix[0][0], Scalar) else [
        [Fraction(x) for x in row] for row in matrix
    ]
    n = len(a)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    # u[i] tracks the congruence: current a = U a0 U^T restricted to active rows
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    witness = None
    i = 0
    while i < n:
        k = next((j for j in range(i, n) if a[j][j] != 0), None)
        if k is not None:
            if k != i:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
                u[i], u[k] = u[k], u[i]
            d = a[i][i]
            if d > 0:
                pos += 1
            else:
                neg += 1
                if witness is None:
                    witness = u[i][:]
            fs = [a[r][i] / d for r in range(i + 1, n)]
            for r in range(i + 1, n):
                f = fs[r - i - 1]
                if f:
                    u[r] = [ur - f * ui for ur, ui in zip(u[r], u[i])]
            for r in range(i + 1, n):
                for s in range(i + 1, n):
                    a[r][s] -= fs[r - i - 1] * fs[s - i - 1] * d
            i += 1
            continue
        hyp = None
        for r in range(i, n):
            for s in range(r + 1, n):
                if a[r][s] != 0:
                    hyp = (r, s)
                    break
            if hyp:
                break
        if hyp is None:
            zero += n - i
            break
        r, s = hyp
        if r != i:
            a[i], a[r] = a[r], a[i]
            for row in a:
                row[i], row[r] = row[r], row[i]
            u[i], u[r] = u[r], u[i]
            if s == i:
                s = r
        if s != i + 1:
            a[i + 1], a[s] = a[s], a[i + 1]
            for row in a:
                row[i + 1], row[s] = row[s], row[i + 1]
            u[i + 1], u[s] = u[s], u[i + 1]
        off = a[i][i + 1]
        pos += 1
        neg += 1
        if witness is None:
            if off > 0:
                witness = [x - y for x, y in zip(u[i], u[i + 1])]
            else:
                witness = [x + y for x, y in zip(u[i], u[i + 1])]
        for r in range(i + 2, n):
            x = a[r][i + 1] / off
            y = a[r][i] / off
            if x or y:
                u[r] = [ur - x * ui - y * uj for ur, ui, uj in zip(u[r], u[i], u[i + 1])]
        bs = [(a[r][i], a[r][i + 1]) for r in range(i + 2, n)]
        for r in range(i + 2, n):
            b1r, b2r = bs[r - i - 2]
            for s in range(i + 2, n):
                b1s, b2s = bs[s - i - 2]
                a[r][s] -= (b1r * b2s + b2r * b1s) / off
        i += 2
    return pos, zero, neg, witness
