"""Gram blocks and the _dot kernel against their references.

``tests/gram_oracle.py`` keeps the per-pair recursion that the grade
blocks of ``Module`` replaced.  Every entry of every block up to a
grade must equal it, on Verma and Fock modules with rational, radical
and imaginary entries and on a spin floor; ``Module.inner`` must equal
the plain double loop.  ``scalars._dot`` must equal the plain Scalar
loop on seeded operands: mixed radicands, all-rational lists (its one
integer numerator), rational pairs before a radical or i (its per-radicand
sum taking over), and i times a rational (conjugation flipping the sign).
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from gram_oracle import GramOracle
from nsvertex.liealg import sl2
from nsvertex.modules import FockModule, StateVector, VermaModule
from nsvertex.scalars import ZERO, Scalar, _dot

MODULES = {
    "ns_verma": (lambda: VermaModule("ns", Fraction(7, 10), Fraction(1, 10)),
                 8),
    "virasoro_verma": (lambda: VermaModule("virasoro", Fraction(1, 2), 0), 10),
    "sl2_fermions": (lambda: FockModule(sl2(), 1, 3), 4),
    "sl2_fermions_spin": (lambda: FockModule(sl2(), 1, 3, spin2=1), 3),
    "fermions": (lambda: FockModule(colors=2), 6),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_block_entry_equals_the_recursion(name):
    make, depth2 = MODULES[name]
    module = make()
    oracle = GramOracle(make())
    for n2 in range(depth2 + 1):
        basis, matrix = module.gram(n2)
        assert matrix == oracle.gram(n2), n2
        for b1 in basis:
            for b2 in basis:
                assert module.inner_basis(b1, b2) == oracle.inner_basis(b1, b2)
    # states of different grades are orthogonal
    low, high = module.level_basis(0)[0], module.basis_upto(depth2)[-1]
    assert high.word and module.inner_basis(low, high) == ZERO


@pytest.mark.parametrize("spin2, depth2", [(0, 4), (1, 2)])
def test_fock_blocks_hold_radicals_and_i(spin2, depth2):
    # i sqrt(2) from the sl2 structure constants reaches the entries at
    # grade 2, and the spin floor's matrices give i at grade 1, so the
    # conjugated lower triangle differs from the upper one
    module = FockModule(sl2(), 1, 3, spin2=spin2)
    entries = [x for row in module.gram(depth2)[1] for x in row]
    assert any(not x.is_real() for x in entries)
    assert any(abs(r) > 1 for x in entries for r in x.terms) == (not spin2)


@pytest.mark.parametrize("name", MODULES)
def test_inner_equals_the_double_loop(name):
    make, depth2 = MODULES[name]
    module = make()
    oracle = GramOracle(module)
    rng = random.Random(7)
    states = module.basis_upto(depth2)
    values = [Scalar.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
              + Scalar({r: Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
              for r in (-1, 2, -2) for _ in range(3)]
    for _ in range(30):
        u, v = (StateVector((rng.choice(states), rng.choice(values))
                            for _ in range(rng.randint(0, 5)))
                for _ in range(2))
        assert module.inner(u, v) == oracle.inner(u, v)


RADICANDS = (1, -1, 2, -2, 3, -3, 6, -6)


def _scalar(rng):
    terms = {r: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for r in rng.sample(RADICANDS, rng.randint(0, 3))}
    return Scalar(terms)


def _rational(rng):
    return Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def _assert_dot(pairs) -> Scalar:
    """_dot of the pairs equals the plain Scalar loop, in lowest terms,
    from a list and from an iterator."""
    want = ZERO
    for a, b in pairs:
        want = want + a.conjugate() * b
    got = _dot(pairs)
    assert got == want
    assert got._d > 0 and all(got._t.values())
    assert gcd(got._d, *got._t.values()) == 1
    assert _dot(iter(pairs)) == want
    return got


@pytest.mark.parametrize("seed", range(40))
def test_dot_equals_the_plain_scalar_loop(seed):
    rng = random.Random(seed)
    pairs = [(_scalar(rng), _scalar(rng)) for _ in range(rng.randint(0, 8))]
    # a pair and its negative cancel, so some sums vanish per radicand
    pairs += [(a, -b) for a, b in rng.sample(pairs, len(pairs) // 2)]
    _assert_dot(pairs)


@pytest.mark.parametrize("seed", range(40))
def test_dot_of_rational_pairs_equals_the_plain_scalar_loop(seed):
    rng = random.Random(seed)
    pairs = [(_rational(rng), _rational(rng))
             for _ in range(rng.randint(0, 8))]
    pairs += [(ZERO, _rational(rng)), (_rational(rng), ZERO)]
    rng.shuffle(pairs)
    _assert_dot(pairs)
    # every pair beside its negative: the one numerator cancels to zero
    assert _assert_dot(pairs + [(-a, b) for a, b in pairs]) == ZERO
    # a radical or i after rational pairs, and rational pairs after it:
    # the per-radicand sum takes over from the partial numerator
    odd = rng.choice([Scalar.root(2), Scalar.root(-1), Scalar.root(-6),
                      Scalar({1: 1, 3: Fraction(1, 2)})])
    q = Scalar.of(Fraction(rng.randint(1, 9), rng.randint(1, 12)))
    k = rng.randint(0, len(pairs))
    for pair in [(odd, q), (q, odd), (odd * q, odd)]:
        _assert_dot(pairs[:k] + [pair] + pairs[k:])
        _assert_dot(pairs + [pair])


@pytest.mark.parametrize("seed", range(20))
def test_dot_conjugates_i_times_a_rational(seed):
    rng = random.Random(seed)
    i = Scalar.root(-1)
    iq = [i * _rational(rng) for _ in range(6)]
    q = [_rational(rng) for _ in range(6)]
    # conj(i x) y = -i x y and conj(x) i y = i x y
    got = _assert_dot(list(zip(iq, q)))
    assert got == -_assert_dot(list(zip(q, iq)))
    assert _assert_dot(list(zip(iq, iq))) == _assert_dot(
        [(x * i, i * y) for x, y in zip(iq, iq)])
    _assert_dot(list(zip(q, q)) + list(zip(iq, q)) + list(zip(q, iq)))


def test_dot_of_nothing_is_zero():
    assert _dot([]) == ZERO
    assert _dot([(ZERO, Scalar.root(2)), (Scalar.root(3), ZERO)]) == ZERO
    i = Scalar.root(-1)
    assert _dot([(i, i)]) == Scalar.of(1)


@pytest.mark.parametrize("x, real", [
    (ZERO, True),
    (Scalar.of(Fraction(-3, 4)), True),
    (Scalar.root(2), True),
    (Scalar({1: 1, 2: -3, 6: Fraction(1, 2)}), True),
    (Scalar.root(-1), False),
    (Scalar.root(-2), False),
    (Scalar({1: 1, 2: 1, -1: Fraction(-1, 3)}), False),
])
def test_is_real(x, real):
    assert x.is_real() is real
    assert (x.conjugate() == x) is real
