"""The NS Kac determinant as an oracle for the Verma Gram blocks.

det G_n(c, h) = K_n prod (h - h_{r,s})^{P(n - rs/2)} over r, s >= 1
with r = s mod 2 and rs/2 <= n, where c = 15/2 - 3(t + 1/t),
h_{r,s} = ((r^2 - 1) t + (s^2 - 1)/t - 2(rs - 1))/8, and P(k) is the
number of NS basis states at grade k (Kac 1979; Meurman-Rocha-Caridi,
Comm. Math. Phys. 107, 1986).  The constant K_n depends on the basis
only, so the quotient must be the same at every (t, h) of a grade.
The determinant is taken in Fractions here, independently of linalg.
"""

from fractions import Fraction

import pytest

from nsvertex.modules import VermaModule

# K_n of this basis at grades 1/2, 1, ..., 3
CONSTANTS = [2, 2, 8, 128, 1024, 73728]
# two generic values of t, and two values of h for each
POINTS = [(Fraction(11, 7), Fraction(1, 3)), (Fraction(11, 7), Fraction(-2, 9)),
          (Fraction(13, 5), Fraction(3, 4)), (Fraction(13, 5), Fraction(5, 11))]


def ns_dims(depth2: int) -> list:
    """Coefficients of prod_n (1 + q^(n-1/2)) / (1 - q^n), by doubled grade."""
    dims = [1] + [0] * depth2
    for k in range(1, depth2 + 1):
        if k % 2:
            for g2 in range(depth2, k - 1, -1):
                dims[g2] += dims[g2 - k]
        else:
            for g2 in range(k, depth2 + 1):
                dims[g2] += dims[g2 - k]
    return dims


def det(matrix: list) -> Fraction:
    a = [list(row) for row in matrix]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def kac_product(t: Fraction, h: Fraction, n2: int, dims: list) -> Fraction:
    out = Fraction(1)
    for r in range(1, n2 + 1):
        for s in range(1, n2 // r + 1):
            if (r - s) % 2 == 0:
                h_rs = ((r * r - 1) * t + (s * s - 1) / t
                        - 2 * (r * s - 1)) / 8
                out *= (h - h_rs) ** dims[n2 - r * s]
    return out


@pytest.mark.parametrize("n2", range(1, 7))
def test_det_over_the_kac_product_is_one_constant(n2):
    dims = ns_dims(n2)
    for t, h in POINTS:
        c = Fraction(15, 2) - 3 * (t + 1 / t)
        module = VermaModule("ns", c, h)
        assert len(module.level_basis(n2)) == dims[n2]
        product = kac_product(t, h, n2, dims)
        assert product, (t, h)    # h is away from every h_{r,s}
        gram = [[x.as_fraction() for x in row] for row in module.gram(n2)[1]]
        assert det(gram) / product == CONSTANTS[n2 - 1], (t, h)


def test_det_vanishes_at_a_kac_zero():
    # h_{1,1} = 0: G_{-1/2} of the vacuum is null, so det G_n = 0 at n >= 1/2
    t = Fraction(11, 7)
    module = VermaModule("ns", Fraction(15, 2) - 3 * (t + 1 / t), 0)
    for n2 in range(1, 5):
        gram = [[x.as_fraction() for x in row] for row in module.gram(n2)[1]]
        assert det(gram) == 0
