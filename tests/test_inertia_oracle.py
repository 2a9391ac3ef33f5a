"""Integer inertia against the Fraction-based oracle.

``tests/inertia_oracle.py`` keeps the earlier elimination, which runs in
``Fraction`` and carries the congruence rows through every pivot.  The
integer elimination must return the same ``(pos, zero, neg, witness)``
tuple, witness entries included, on every rational symmetric matrix,
with ``Fraction`` and with ``Scalar`` entries, and on every level of the
ghost tables.  The examples are derandomized, so every run draws the
same ones.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inertia_oracle as oracle
from nsvertex import linalg
from nsvertex.linalg import Echelon, inertia_with_witness
from nsvertex.modules import StateVector, VermaModule
from nsvertex.scalars import Scalar

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)

# sampling from a fixed list draws far faster than st.fractions
VALUES = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 7)})
entries = st.sampled_from(VALUES)
nonzero = st.sampled_from([x for x in VALUES if x])
sparse_entries = st.one_of(st.just(Fraction(0)), entries)


def _assert_matches(matrix):
    """The integer elimination matches the oracle on the matrix and on
    its entries as Scalars, the entries ghost_report passes."""
    want = oracle.inertia_with_witness(matrix)
    for m in matrix, [[Scalar.of(x) for x in row] for row in matrix]:
        got = inertia_with_witness(m)
        assert got == want
        if want[3] is not None:
            assert all(type(x) is Fraction for x in got[3])


def _symmetric(draw, n, diagonal, off_diagonal):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(off_diagonal)
    return m


@st.composite
def zero_diagonal_heavy(draw):
    """Mostly zero diagonals, so the hyperbolic branch runs."""
    n = draw(st.integers(1, 9))
    diagonal = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), entries)
    return _symmetric(draw, n, diagonal, sparse_entries)


@st.composite
def low_rank(draw):
    """B^T D B with fewer rows than columns, so the zero tail runs."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, n - 1))
    b = [[draw(sparse_entries) for _ in range(n)] for _ in range(k)]
    d = [draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(k)]
    return [[sum((b[t][i] * d[t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(n)] for i in range(n)]


@st.composite
def hyperbolic_then_negative(draw):
    """A hyperbolic pair (0, 1) whose Schur complement opens on a negative pivot.

    Every diagonal entry is zero and a[0][1] = o is not, so the first
    step pairs rows 0 and 1.  Row r >= 2 then has diagonal
    -2 a[r][0] a[r][1] / o, made negative by giving a[r][1] the sign of
    o * a[r][0].
    """
    n = draw(st.integers(3, 9))
    m = _symmetric(draw, n, st.just(Fraction(0)), sparse_entries)
    o = draw(nonzero)
    m[0][1] = m[1][0] = o
    for r in range(2, n):
        b = draw(nonzero)
        c = abs(draw(nonzero)) * (1 if (o > 0) == (b > 0) else -1)
        m[r][0], m[0][r] = b, b
        m[r][1], m[1][r] = c, c
    return m


@st.composite
def positive_then_hyperbolic(draw):
    """P^T (D + Z) P: positive pivots D first, then a zero-diagonal block Z.

    P = [[U, X], [0, 1]] with U unit upper triangular keeps the leading
    minors of D, so D's pivots come first and leave Z as the Schur
    complement; the witness of its hyperbolic pair solves on D's rows.
    """
    j = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    n = j + k
    pos = st.sampled_from([x for x in VALUES if x > 0])
    z = _symmetric(draw, k, st.just(Fraction(0)), sparse_entries)
    z[0][1] = z[1][0] = draw(nonzero)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(j):
        d[i][i] = draw(pos)
    for r in range(k):
        d[j + r][j:] = z[r]
    p = [[Fraction(int(r == c)) if r >= j or c <= r else draw(sparse_entries)
          for c in range(n)] for r in range(n)]
    dp = [[sum((d[r][t] * p[t][c] for t in range(n)), Fraction(0))
           for c in range(n)] for r in range(n)]
    return [[sum((p[t][r] * dp[t][c] for t in range(n)), Fraction(0))
             for c in range(n)] for r in range(n)]


@SETTINGS
@given(positive_then_hyperbolic())
def test_hyperbolic_witness_after_positive_pivots_matches_oracle(m):
    _assert_matches(m)
    assert oracle.inertia_with_witness(m)[3] is not None


@SETTINGS
@given(zero_diagonal_heavy())
def test_zero_diagonal_matrices_match_oracle(m):
    _assert_matches(m)


@SETTINGS
@given(low_rank())
def test_low_rank_congruences_match_oracle(m):
    _assert_matches(m)


@SETTINGS
@given(hyperbolic_then_negative())
def test_negative_pivot_after_hyperbolic_pair_matches_oracle(m):
    _assert_matches(m)
    assert oracle.inertia_with_witness(m)[2] >= 2


@st.composite
def dense(draw):
    n = draw(st.integers(1, 9))
    return _symmetric(draw, n, entries, entries)


@SETTINGS
@given(dense())
def test_scalar_matrices_match_oracle(m):
    _assert_matches([[Scalar.of(x) for x in row] for row in m])


def test_imaginary_entries_are_not_rational():
    with pytest.raises(ValueError) as err:
        inertia_with_witness([[Scalar.root(-1)]])
    assert str(err.value) == "not rational: i"


@pytest.mark.parametrize("algebra,c,h,depth2", [
    ("ns", Fraction(1, 2), Fraction(0), 16),
    ("virasoro", Fraction(1, 2), Fraction(-1, 4), 20),
    ("ns", Fraction(7, 10), Fraction(1, 10), 16),
])
def test_ghost_report_matches_oracle(algebra, c, h, depth2):
    module = VermaModule(algebra, Scalar.of(c), Scalar.of(h))
    report = module.ghost_report(depth2)
    assert len(report["levels"]) == depth2 + 1
    for n2, level in enumerate(report["levels"]):
        basis, matrix = module.gram(n2)
        pos, zero, neg, witness = oracle.inertia_with_witness(matrix)
        assert (level["positive"], level["zero"], level["negative"]) == \
            (pos, zero, neg)
        if witness is None:
            assert "witness" not in level
        else:
            assert level["witness"] == StateVector(
                {b: Scalar.of(x) for b, x in zip(basis, witness) if x})


# -- row reduction -------------------------------------------------------

RADICANDS = [1, 2, 3, 6, -1, -2]
scalars = st.builds(Scalar, st.dictionaries(st.sampled_from(RADICANDS),
                                            nonzero, max_size=3))


@st.composite
def row_matrices(draw):
    """Rows that are zero, drawn, or combinations of earlier rows, with
    entries in Q(sqrt2, sqrt3, i)."""
    ncols = draw(st.integers(1, 7))
    m = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["zero", "drawn", "drawn", "combination"]))
        if kind == "zero" or (kind == "combination" and not m):
            m.append([Scalar.of(0)] * ncols)
        elif kind == "drawn":
            m.append([draw(st.one_of(st.just(Scalar.of(0)), scalars))
                      for _ in range(ncols)])
        else:
            coeffs = [draw(scalars) for _ in m]
            m.append([sum((c * row[j] for c, row in zip(coeffs, m)),
                          Scalar.of(0)) for j in range(ncols)])
    return m


def _echelon(matrix):
    ech = Echelon()
    for row in matrix:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech


@SETTINGS
@given(row_matrices())
def test_echelon_kernel_matches_dense_oracle(m):
    ncols = len(m[0]) if m else 0
    ech = _echelon(m)
    kernel = ech.kernel(ncols)
    assert [[vec.get(j, Scalar.of(0)) for j in range(ncols)]
            for vec in kernel] == oracle.kernel_basis(m, ncols)
    # the rows are left in the reduced row echelon form
    rows, pivots = oracle.row_reduce(m)
    assert sorted(ech.rows) == pivots
    assert [ech.row(p) for p in pivots] == [
        {j: x for j, x in enumerate(row) if x} for row in rows]


def _dense_witness(a0, done, target):
    """The witness solve as a dense system [a0 on done | rhs] reduced by
    the oracle, with the solution read off the last column."""
    rhs = [-sum(v * a0[p][t] for t, v in target.items()) for p in done]
    system = [[Scalar.of(a0[p][q]) for q in done] + [Scalar.of(b)]
              for p, b in zip(done, rhs)]
    solved, _ = oracle.row_reduce(system)
    w = [Fraction(0)] * len(a0)
    for t, v in target.items():
        w[t] = Fraction(v)
    for p, row in zip(done, solved):
        w[p] = row[-1].as_fraction()
    return w


def _assert_witness_solves_match(matrices):
    """Every witness solve of the inertia solves as the dense oracle
    solves it."""
    solves = []
    solve = linalg._orthogonal_witness

    def recording(a0, done, target):
        solves.append((a0, list(done), dict(target)))
        return solve(a0, done, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_orthogonal_witness", recording)
        for m in matrices:
            inertia_with_witness(m)
    for a0, done, target in solves:
        w = solve(a0, done, target)
        assert w == _dense_witness(a0, done, target)
        assert all(type(x) is Fraction for x in w)
    return solves


@SETTINGS
@given(st.one_of(positive_then_hyperbolic(), hyperbolic_then_negative()))
def test_witness_solves_match_dense_oracle(m):
    assert _assert_witness_solves_match([m])


def test_ghost_witness_solves_match_dense_oracle():
    module = VermaModule("ns", Scalar.of(Fraction(7, 10)),
                         Scalar.of(Fraction(-1, 10)))
    solves = _assert_witness_solves_match(
        [module.gram(n2)[1] for n2 in range(13)])
    assert any(done for _, done, _ in solves)
