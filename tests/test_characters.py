"""Ghost tables at unitary minimal-model points against their characters.

At a unitary point the Gram form of the Verma module is positive
semidefinite, and its rank per level is the irreducible character.  For
the minimal model (p, p') with Kac label (r, s) that character is the
alternating sum (Rocha-Caridi 1985; Meurman and Rocha-Caridi 1986 for
the Neveu-Schwarz sector)

    P(q) * sum_k (q^{h(2pp'k + p'r - ps)} - q^{h(2pp'k + p'r + ps)}),

with P the partition function of the Verma module and
h(x) = (x^2 - (p' - p)^2) / (8pp') - h for Neveu-Schwarz, with 4pp' in
place of 8pp' for Virasoro.  Every series here is a list of plain
integers indexed by twice the grade, computed without the library.
"""

from fractions import Fraction

import pytest

from nsvertex.modules import VermaModule
from nsvertex.scalars import Scalar


def verma_partitions(sector: str, depth2: int) -> list:
    """prod_n 1/(1 - q^n), times prod_n (1 + q^(n - 1/2)) for NS, by 2*grade."""
    out = [1] + [0] * depth2
    for g2 in range(1, depth2 + 1):
        if g2 % 2 == 0:
            for i in range(g2, depth2 + 1):
                out[i] += out[i - g2]
        elif sector == "ns":
            for i in range(depth2, g2 - 1, -1):
                out[i] += out[i - g2]
    return out


def minimal_character(sector: str, p: int, pp: int, r: int, s: int,
                      depth2: int) -> list:
    """Irreducible character of h = h_{r,s} with q^h removed, by 2*grade."""
    scale = 8 if sector == "ns" else 4
    h = Fraction((pp * r - p * s) ** 2 - (pp - p) ** 2, scale * p * pp)

    def grade2(x):
        g = 2 * (Fraction(x * x - (pp - p) ** 2, scale * p * pp) - h)
        assert g.denominator == 1 and g >= 0
        return int(g)

    theta = [0] * (depth2 + 1)
    for k in range(-depth2 - 1, depth2 + 2):
        for x, sign in ((2 * p * pp * k + pp * r - p * s, 1),
                        (2 * p * pp * k + pp * r + p * s, -1)):
            g2 = grade2(x)
            if g2 <= depth2:
                theta[g2] += sign
    base = verma_partitions(sector, depth2)
    return [sum(theta[j] * base[g2 - j] for j in range(g2 + 1))
            for g2 in range(depth2 + 1)]


def test_tricritical_ising_character_by_hand():
    assert minimal_character("ns", 3, 5, 1, 3, 16) == \
        [1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 7, 8, 9, 11]


def test_ising_character_by_hand():
    # the sigma character 1 + q + q^2 + 2q^3 + 2q^4 + 3q^5 + ...
    assert minimal_character("virasoro", 3, 4, 1, 2, 20)[::2] == \
        [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


def ns_kac_points(depth2: int) -> list:
    """Every NS Kac point of the unitary series m = 3, 4, 5: (p, p') =
    (m, m + 2), 1 <= r < p, 1 <= s < p' and r = s mod 2, with
    c = (3/2)(1 - 2(p' - p)^2 / (pp')) and h = h_{r,s}."""
    points = []
    for m in (3, 4, 5):
        p, pp = m, m + 2
        c = Fraction(3, 2) * (1 - Fraction(2 * (pp - p) ** 2, p * pp))
        points += [("ns", c, Fraction((pp * r - p * s) ** 2 - (pp - p) ** 2,
                                      8 * p * pp), p, pp, r, s, depth2)
                   for r in range(1, p) for s in range(1, pp)
                   if (r - s) % 2 == 0]
    return points


def test_ns_kac_points_of_the_first_three_models():
    points = ns_kac_points(8)
    assert len(points) == 24
    assert {pt[1] for pt in points} == \
        {Fraction(7, 10), Fraction(1), Fraction(81, 70)}
    assert ("ns", Fraction(7, 10), Fraction(1, 10), 3, 5, 1, 3, 8) in points


@pytest.mark.parametrize("sector,c,h,p,pp,r,s,depth2", [
    ("ns", Fraction(7, 10), Fraction(1, 10), 3, 5, 1, 3, 20),
    ("virasoro", Fraction(1, 2), Fraction(1, 16), 3, 4, 1, 2, 20),
    *ns_kac_points(8),
])
def test_unitary_ghost_table_is_the_character(sector, c, h, p, pp, r, s, depth2):
    module = VermaModule(sector, Scalar.of(c), Scalar.of(h))
    report = module.ghost_report(depth2)
    levels = report["levels"]
    character = minimal_character(sector, p, pp, r, s, depth2)
    assert [lv["positive"] for lv in levels] == character
    assert [lv["dim"] for lv in levels] == verma_partitions(sector, depth2)
    assert all(lv["negative"] == 0 for lv in levels)
    assert report["has_ghost"] is False
