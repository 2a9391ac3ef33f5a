"""Exact arithmetic in multi-quadratic extensions of the rationals.

A scalar is a finite sum ``sum_r q_r * sqrt(r)`` with rational
coefficients ``q_r`` and square-free integer radicands ``r``.  The key
``r = 1`` carries the rational part.  A negative key stands for
``i*sqrt(|r|)``, so ``r = -1`` is the imaginary unit and ``r = -2`` is
``i*sqrt(2)``.  Square roots of distinct square-free integers are
linearly independent over Q, so the representation is canonical and the
zero scalar is the empty sum.

The coefficients share one denominator: a scalar stores a positive
integer ``_d`` and a dict ``_t`` from radicand to nonzero integer
numerator, with ``q_r = _t[r] / _d``.  Every scalar is kept in lowest
terms, ``gcd(_d, *_t.values()) == 1`` (zero is ``_d = 1`` with the
empty dict), so two scalars are equal exactly when both fields are, and
an operation is integer arithmetic followed by one gcd.

_add, the one sparse accumulate out += coeff * vec on dicts of scalars
keyed by basis states or columns, lives here with the representation it
reads; modules, fields and the row reduction share it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


def _exact_int(value, name: str) -> int:
    """An integer input, unchanged; a float, a bool or a string raises
    instead of being truncated."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_key(data, key: str, what: str):
    """data[key] of the JSON object that `what` names; data that is not
    an object, or one without the key, raises naming the fault."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    if key not in data:
        raise ValueError(f"{what} has no {key!r} key")
    return data[key]


def _json_list(value, what: str, length: int | None = None) -> list:
    """A JSON list, of the given length if one is given; anything else
    raises naming the expected shape."""
    if not isinstance(value, list) or (length is not None
                                       and len(value) != length):
        raise ValueError(f"{what} must be a list"
                         + (f" of {length} items" if length else "")
                         + f", got {value!r}")
    return value


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n = outer**2 * core with core square-free; the sign stays on core."""
    if n == 0:
        return 1, 0
    m = abs(n)
    outer = 1
    core = -1 if n < 0 else 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                core *= d
            outer *= d ** (e // 2)
        d += 1
    core *= m
    return outer, core


@cache   # trial division, asked once per term pair of every multiply
def _mul_rad(r: int, s: int) -> tuple[int, int]:
    """sqrt(r)*sqrt(s) = factor * sqrt(rad), with sqrt(neg) read as i*sqrt(|neg|)."""
    negatives = (r < 0) + (s < 0)
    outer, core = _squarefree_split(abs(r) * abs(s))
    if negatives == 1:
        return outer, -core
    if negatives == 2:
        return -outer, core
    return outer, core


def _new(d: int, t: dict) -> "Scalar":
    """The scalar t / d, which the caller has put in lowest terms."""
    s = object.__new__(Scalar)
    s._d, s._t, s._hash = d, t, None
    return s


def _reduce(d: int, t: dict) -> "Scalar":
    """The scalar t / d in lowest terms; d > 0 and no numerator is zero."""
    if d != 1:
        g = gcd(d, *t.values())
        if g != 1:
            d //= g
            t = {r: n // g for r, n in t.items()}
    return _new(d, t)


def _monomial(d: int, rad: int, n: int) -> "Scalar":
    """The scalar n sqrt(rad) / d in lowest terms; n != 0 and d > 0."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    if n == 1 and d == 1 and rad == 1:
        return _ONE
    return _new(d, {rad: n})


class Scalar:
    """An element of Q adjoined square roots of square-free integers."""

    __slots__ = ("_d", "_t", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for rad, coeff in terms.items():
                if type(rad) is not int:
                    raise TypeError(f"radicand must be int, got {rad!r}")
                if not rad:
                    raise ValueError("radicand 0 is not allowed")
                _, core = _squarefree_split(rad)
                if core != rad:
                    raise ValueError(f"radicand {rad} is not square-free")
                coeff = Fraction(coeff)
                if coeff:
                    t[rad] = coeff
        # lowest terms: each q_r is, and d is the lcm of their denominators
        d = lcm(*(q.denominator for q in t.values()))
        self._d = d
        self._t = {r: q.numerator * (d // q.denominator) for r, q in t.items()}
        self._hash = None

    @staticmethod
    def of(value) -> "Scalar":
        s = _coerce(value)
        return _coerce(Fraction(value)) if s is NotImplemented else s

    @staticmethod
    def root(n: int) -> "Scalar":
        """The square root of an integer, e.g. root(8) = 2*sqrt(2), root(-1) = i."""
        outer, core = _squarefree_split(n)
        if core == 0:
            return _ZERO
        return _new(1, {core: outer})

    @staticmethod
    def sqrt_fraction(q) -> "Scalar":
        """Square root of a rational number: sqrt(p/q) = sqrt(p*q)/q."""
        q = Fraction(q)
        if q == 0:
            return _ZERO
        outer, core = _squarefree_split(q.numerator * q.denominator)
        return Scalar({core: Fraction(outer, q.denominator)})

    # -- queries ---------------------------------------------------------

    def is_rational(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 1 in t)

    def as_fraction(self) -> Fraction:
        if not self._t:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return Fraction(self._t[1], self._d)

    def is_real(self) -> bool:
        return all(r > 0 for r in self._t)

    @property
    def terms(self) -> dict:
        d = self._d
        return {r: Fraction(n, d) for r, n in self._t.items()}

    # -- ring operations -------------------------------------------------

    def _scale(self, p: int, q: int) -> "Scalar":
        """self * p / q for integers p and q != 0."""
        if not p or not self._t:
            return _ZERO
        if q < 0:
            p, q = -p, -q
        return _reduce(self._d * q, {r: n * p for r, n in self._t.items()})

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._t, other._t
        d, d2 = self._d, other._d
        if d == d2:
            t, m2 = dict(a), 1
        else:
            g = gcd(d, d2)
            m, m2 = d2 // g, d // g
            t = {r: n * m for r, n in a.items()}
            d *= m
        for r, n in b.items():
            acc = t.get(r, 0) + n * m2
            if acc:
                t[r] = acc
            else:
                del t[r]
        return _reduce(d, t)

    __radd__ = __add__

    def __neg__(self):
        return _new(self._d, {r: -n for r, n in self._t.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            b, d = {1: other} if other else {}, self._d
        else:
            if type(other) is not Scalar:
                other = _coerce(other)
                if other is NotImplemented:
                    return NotImplemented
            b, d = other._t, self._d * other._d
        a = self._t
        if not a or not b:
            return _ZERO
        if len(a) == 1 and len(b) == 1:
            (r, x), = a.items()
            (s, y), = b.items()
            if r == 1:
                rad, n = s, x * y
            elif s == 1:
                rad, n = r, x * y
            else:
                f, rad = _mul_rad(r, s)
                n = x * y * f
            # _monomial(d, rad, n), inlined: a call costs ~5 % of a multiply
            if d != 1:
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
            if n == 1 and d == 1 and rad == 1:
                return _ONE
            return _new(d, {rad: n})
        t = {}
        for r, x in a.items():
            for s, y in b.items():
                f, rad = _mul_rad(r, s)
                acc = t.get(rad, 0) + x * y * f
                if acc:
                    t[rad] = acc
                elif rad in t:
                    del t[rad]
        return _reduce(d, t)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse by conjugate products.

        While the denominator d is irrational, one generator p of its
        radicands (i if any radicand is negative, else a prime) is
        removed by multiplying numerator and d by sigma_p(d), the sign
        flip of every term whose radicand p divides; d sigma_p(d) no
        longer involves p.  The rational d left at the end divides the
        numerator.
        """
        if not self._t:
            raise ZeroDivisionError("scalar division by zero")
        num, den = _ONE, self
        while not den.is_rational():
            if any(r < 0 for r in den._t):
                conj = den.conjugate()
            else:
                r = next(r for r in den._t if r != 1)
                p = next(k for k in range(2, r + 1) if r % k == 0)
                conj = _new(den._d, {rad: (-c if rad % p == 0 else c)
                                     for rad, c in den._t.items()})
            num, den = num * conj, den * conj
        return num._scale(den._d, den._t[1])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            if not other._t:
                raise ZeroDivisionError("scalar division by zero")
            return self._scale(other._d, other._t[1])
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, real radicals fixed; a real
        scalar is its own conjugate."""
        if self.is_real():
            return self
        return _new(self._d, {r: (-n if r < 0 else n) for r, n in self._t.items()})

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._t == other._t and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._t)

    # -- serialization and display --------------------------------------

    def to_json(self) -> list:
        return [
            {"num": c.numerator, "den": c.denominator, "rad": r}
            for r, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(data) -> "Scalar":
        if isinstance(data, bool) or not isinstance(data, (int, str, list)):
            raise ValueError(f"a scalar is a term list, an integer or a "
                             f"fraction string, not {data!r}")
        try:
            if isinstance(data, (int, str)):
                return Scalar.of(Fraction(data))
            t = {}
            for item in data:
                if not isinstance(item, dict):
                    raise ValueError(f"a scalar term is an object with "
                                     f"integer num, den and rad, not {item!r}")
                num = _exact_int(_json_key(item, "num", "scalar term"),
                                 "scalar term num")
                den, rad = (_exact_int(item.get(k, 1), f"scalar term {k}")
                            for k in ("den", "rad"))
                t[rad] = t.get(rad, 0) + Fraction(num, den)
        except ZeroDivisionError:
            raise ValueError(f"a scalar needs nonzero denominators, got "
                             f"{data!r}") from None
        return Scalar(t)

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for r, c in sorted(self.terms.items(), key=lambda rc: (abs(rc[0]), rc[0] < 0)):
            if r == 1:
                sym = ""
            elif r == -1:
                sym = "i"
            elif r > 0:
                sym = f"√{r}"
            else:
                sym = f"i·√{-r}"
            if not sym:
                text = str(c)
            elif c == 1:
                text = sym
            elif c == -1:
                text = f"-{sym}"
            else:
                text = f"{c}·{sym}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _add(out: dict, vec: dict, coeff):
    """out += coeff * vec on dicts of Scalars, dropping the entries that
    vanish.  vec is only read, so it may be a cached action; coeff is a
    Scalar or a number.  A unit coeff, or an entry that is ONE, passes
    the other factor through as the same object.

    When the entry and coeff are both single terms, the product and the
    running sum are taken on their integer numerators and denominators,
    and a Scalar is made only for a nonzero result."""
    if not vec:
        return
    k = coeff if type(coeff) is Scalar else _coerce(coeff)
    kt = k._t
    if not kt:
        return
    unit = k._d == 1 and kt == _ONE._t
    if len(kt) == 1:
        (s, y), = kt.items()
        e = k._d
    else:
        s = None
    for key, c in vec.items():
        ct = c._t
        cur = out.get(key)
        if s is None or len(ct) != 1:
            p = c if unit else k if c is _ONE else c * k
            cur = p if cur is None else cur + p
        else:
            (r, x), = ct.items()
            if r == 1:
                rad, n = s, x * y
            elif s == 1:
                rad, n = r, x * y
            else:
                f, rad = _mul_rad(r, s)
                n = x * y * f
            d = c._d * e
            if cur is None:
                out[key] = c if unit else k if c is _ONE \
                    else _monomial(d, rad, n)
                continue
            t = cur._t
            if len(t) == 1 and rad in t:
                # both terms sit at rad: one integer sum over a common d
                dc = cur._d
                if dc == d:
                    n += t[rad]
                else:
                    g = gcd(dc, d)
                    n = n * (dc // g) + t[rad] * (d // g)
                    d = d // g * dc
                if n:
                    out[key] = _monomial(d, rad, n)
                else:
                    del out[key]
                continue
            cur = cur + (c if unit else k if c is _ONE
                         else _monomial(d, rad, n))
        if cur:
            out[key] = cur
        elif key in out:
            del out[key]


def _acc(d: dict, key, coeff: Scalar):
    """d[key] += coeff, dropping the entry if it vanishes."""
    cur = d.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur:
        d[key] = cur
    elif key in d:
        del d[key]


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of a rational Scalar, int or Fraction."""
    if isinstance(x, Scalar) and x.is_rational():
        return x._t.get(1, 0), x._d
    x = x.as_fraction() if isinstance(x, Scalar) else Fraction(x)
    return x.numerator, x.denominator


def _interned(values: dict, c: Scalar) -> Scalar:
    """The first Scalar equal to c that the table values holds, stored
    there if it is the first; the key is exact: the common denominator
    and the sorted (radicand, numerator) pairs."""
    t = c._t
    items = t.items() if len(t) < 2 else sorted(t.items())
    return values.setdefault((c._d, *items), c)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if type(value) is int:
        return _new(1, {1: value} if value else {})
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        return _new(q.denominator, {1: q.numerator} if q else {})
    return NotImplemented


_ZERO = _new(1, {})
_ONE = _new(1, {1: 1})

ZERO = _ZERO
ONE = _ONE
I = _new(1, {-1: 1})
