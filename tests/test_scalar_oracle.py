"""Scalar arithmetic against the Fraction-based oracle.

``tests/scalar_oracle.py`` keeps the earlier implementation, which
stores one ``Fraction`` per term.  Every operation on int, Fraction and
Scalar operands must give the same value, JSON, text, terms and hash
there as here, and every result here must be in lowest terms.  The
examples are derandomized, so every run draws the same ones.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from nsvertex.scalars import Scalar

RADICANDS = [r for a in (1, 2, 3, 5, 6, 7, 10, 30) for r in (a, -a)]
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=400)

coefficients = st.fractions(min_value=-12, max_value=12, max_denominator=30)
term_dicts = st.dictionaries(st.sampled_from(RADICANDS), coefficients,
                             max_size=4)
integers = st.integers(min_value=-40, max_value=40)
# a dict stands for the Scalar with those terms
operands = st.one_of(integers, coefficients, term_dicts)
scalar_first = st.tuples(term_dicts, operands)
scalar_second = st.tuples(operands, term_dicts)

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "==": operator.eq, "!=": operator.ne}


def new(x):
    return Scalar(x) if isinstance(x, dict) else x


def old(x):
    return oracle.Scalar(x) if isinstance(x, dict) else x


def assert_canonical(s):
    assert type(s._d) is int and s._d > 0
    assert type(s._t) is dict
    assert all(type(n) is int and n for n in s._t.values())
    assert gcd(s._d, *s._t.values()) == 1
    if not s._t:
        assert s._d == 1


def assert_matches(got, want):
    """got (a Scalar) reads exactly as the oracle's want does."""
    assert isinstance(got, Scalar)
    assert isinstance(want, oracle.Scalar)
    assert_canonical(got)
    assert got.to_json() == want.to_json()
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    got_terms = got.terms
    assert got_terms == want.terms
    assert all(type(c) is Fraction for c in got_terms.values())
    assert hash(got) == hash(want)
    assert got.is_rational() == want.is_rational()
    assert got.is_real() == want.is_real()
    assert bool(got) == (not want.is_zero())
    assert bool(got) == bool(want)
    if want.is_rational():
        q = got.as_fraction()
        assert type(q) is Fraction and q == want.as_fraction()
        assert hash(got) == hash(q)
    else:
        with pytest.raises(ValueError):
            got.as_fraction()


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def check_binary(x, y):
    for op, fn in BINARY.items():
        got = outcome(fn, new(x), new(y))
        want = outcome(fn, old(x), old(y))
        if op in ("==", "!="):
            assert got is want, op
        elif want is ZeroDivisionError:
            assert got is ZeroDivisionError, op
        else:
            assert_matches(got, want)


@SETTINGS
@given(pair=scalar_first)
def test_scalar_on_the_left_matches_oracle(pair):
    check_binary(*pair)


@SETTINGS
@given(pair=scalar_second)
def test_scalar_on_the_right_matches_oracle(pair):
    check_binary(*pair)


@SETTINGS
@given(t=term_dicts)
def test_construction_and_unary_operations_match_oracle(t):
    a, b = Scalar(t), oracle.Scalar(t)
    assert_matches(a, b)
    assert_matches(-a, -b)
    assert_matches(a.conjugate(), b.conjugate())
    assert_matches(Scalar.from_json(b.to_json()), b)
    if b:
        assert_matches(a.inverse(), b.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@SETTINGS
@given(t=term_dicts, n=st.integers(min_value=-3, max_value=4))
def test_powers_match_oracle(t, n):
    got = outcome(operator.pow, Scalar(t), n)
    want = outcome(operator.pow, oracle.Scalar(t), n)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        assert_matches(got, want)


@SETTINGS
@given(q=coefficients, n=st.integers(min_value=-200, max_value=200))
def test_rational_constructors_match_oracle(q, n):
    assert_matches(Scalar.of(q), oracle.Scalar.of(q))
    assert_matches(Scalar.of(n), oracle.Scalar.of(n))
    assert_matches(Scalar.root(n), oracle.Scalar.root(n))
    assert_matches(Scalar.sqrt_fraction(q), oracle.Scalar.sqrt_fraction(q))
    text = str(q)
    assert_matches(Scalar.from_json(text), oracle.Scalar.from_json(text))
    assert_matches(Scalar.from_json(n), oracle.Scalar.from_json(n))
