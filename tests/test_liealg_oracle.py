"""The expanded structure-constant tensor against the per-call oracle.

``tests/liealg_oracle.py`` keeps the earlier ``gamma_entry``,
``bracket_coeffs`` and ``validate``, which sign a sorted triple on every
call and validate by dense loops, and the earlier hand-ordered fermion
current states.  Here every entry, every bracket list in order, every
validation report and every current state must be the same.  Tables
are sl2, su(3) with Gamma = sqrt(2) f from the Gell-Mann f (g = 3), and
derandomized tables: random ones (complex entries, almost never Jacobi)
and relabelled, sign-flipped and rescaled copies of sl2 and su(3)
beside central directions (Jacobi, often not normalized).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import liealg_oracle as oracle
from nsvertex.constructions import _current_state
from nsvertex.liealg import LieAlgebra, sl2
from nsvertex.modules import FockModule
from nsvertex.scalars import Scalar

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

# Gell-Mann f_abc on sorted 1-based triples, as {radicand: coefficient}
GELL_MANN = {(1, 2, 3): {1: 1}, (1, 4, 7): {1: Fraction(1, 2)},
             (1, 5, 6): {1: Fraction(-1, 2)}, (2, 4, 6): {1: Fraction(1, 2)},
             (2, 5, 7): {1: Fraction(1, 2)}, (3, 4, 5): {1: Fraction(1, 2)},
             (3, 6, 7): {1: Fraction(-1, 2)}, (4, 5, 8): {3: Fraction(1, 2)},
             (6, 7, 8): {3: Fraction(1, 2)}}


def su3() -> LieAlgebra:
    return LieAlgebra("su3", 8, {
        tuple(i - 1 for i in t): Scalar.root(2) * Scalar(f)
        for t, f in GELL_MANN.items()})


def assert_matches(lie: LieAlgebra):
    old = oracle.LieAlgebra(lie.name, lie.dim, lie.gamma)
    span = range(lie.dim)
    for a in span:
        for b in span:
            assert lie.bracket_coeffs(a, b) == old.bracket_coeffs(a, b)
            for c in span:
                assert lie.gamma_entry(a, b, c) == old.gamma_entry(a, b, c)
    report, want = lie.validate(), old.validate()
    # the oracle names no failing point: the report's failures, present
    # only when a check fails, list exactly the checks that fail
    failures = report.pop("failures", {})
    assert list(failures) == [name for name, ok in report["checks"].items()
                              if not ok]
    assert all(failures.values())
    assert report == want
    assert list(report) == list(want)
    assert list(report["checks"]) == list(want["checks"])
    module = FockModule(colors=max(lie.dim, 1))
    for c in span:
        assert list(_current_state(module, lie, c).items()) == \
            list(oracle.current_state(old, c).items())
    return report


def test_sl2_matches_oracle():
    assert assert_matches(sl2())["dual_coxeter"] == Scalar.of(2)


def test_su3_matches_oracle():
    lie = su3()
    assert assert_matches(lie)["dual_coxeter"] == Scalar.of(3)
    tensor = FockModule(lie, 1, lie.dim)
    old = oracle.LieAlgebra(lie.name, lie.dim, lie.gamma)
    for c in range(lie.dim):
        assert list(_current_state(tensor, lie, c).items()) == \
            list(oracle.current_state(old, c).items())


RADICANDS = [1, 2, 3, 6, -1, -2]
values = st.builds(Scalar, st.dictionaries(
    st.sampled_from(RADICANDS),
    st.sampled_from([Fraction(p, q) for p in range(-3, 4) if p
                     for q in (1, 2, 3)]),
    min_size=1, max_size=2))


@st.composite
def random_tables(draw):
    dim = draw(st.integers(0, 6))
    triples = [(a, b, c) for a in range(dim) for b in range(a + 1, dim)
               for c in range(b + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(triples), unique=True)
                  if triples else st.just([]))
    return LieAlgebra("random", dim, {t: draw(values) for t in chosen})


@st.composite
def relabelled_tables(draw):
    """A known algebra with its basis permuted into a larger index range,
    some basis vectors negated, and every entry scaled by one factor;
    the unused indices are central."""
    base = draw(st.sampled_from([sl2(), sl2(), su3()]))
    dim = base.dim + draw(st.integers(0, 2 if base.dim < 8 else 0))
    slots = draw(st.permutations(range(dim)))[:base.dim]
    flips = [draw(st.sampled_from([1, -1])) for _ in range(base.dim)]
    scale = draw(st.sampled_from([Scalar.of(1), Scalar.of(2),
                                  Scalar.root(2), Scalar.root(-1)]))
    gamma = {}
    for t, val in base.gamma.items():
        image = [slots[i] for i in t]
        order = sorted(image)
        sign = flips[t[0]] * flips[t[1]] * flips[t[2]] * oracle._perm_sign(
            [order.index(i) for i in image])
        gamma[tuple(order)] = val * scale * sign
    if base.dim < 8 and draw(st.booleans()):
        # a second, differently scaled copy of sl2 on fresh indices
        start = dim
        dim += 3
        gamma[start, start + 1, start + 2] = Scalar.root(2) * draw(
            st.sampled_from([1, 2]))
    return LieAlgebra("relabelled", dim, gamma)


@SETTINGS
@given(random_tables())
def test_random_tables_match_oracle(lie):
    assert_matches(lie)


@settings(SETTINGS, max_examples=30)
@given(relabelled_tables())
def test_relabelled_tables_match_oracle(lie):
    report = assert_matches(lie)
    assert report["checks"]["jacobi"]
