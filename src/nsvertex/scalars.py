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

Inside the engine a coefficient is a handle: a small integer that
numbers a value in a Coefficients table, which holds one Scalar per
exact value and memoizes products and sums keyed by pairs of handles.
_add, the one sparse accumulate out += k * vec on dicts of handles
keyed by basis states or columns, lives here with the table it reads;
modules, fields and the row reduction share it.  A module owns one
table, and an echelon its own; no table is process-wide.  Scalars
appear at the boundary only, where _acc adds them one entry at a time
and _dot, the kernel of every Gram entry, sums conj(a) * b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from numbers import Number


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
            # n sqrt(rad) / d in lowest terms
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
        form = (f"a scalar is a term list, an integer or a fraction "
                f"string, not {data!r}")
        if isinstance(data, bool) or not isinstance(data, (int, str, list)):
            raise ValueError(form)
        try:
            if isinstance(data, (int, str)):
                try:
                    return Scalar.of(Fraction(data))
                except ValueError:
                    raise ValueError(form) from None
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


# an element of a number field: certify keeps it in a failing point as
# it keeps an int or a Fraction
Number.register(Scalar)


class Coefficients:
    """One table of coefficient values, numbered, and the memo of their
    arithmetic.

    A handle is the index of a value in `values`, the list of the
    table's Scalars: handle 0 is 0 and handle 1 is 1.  `handles` maps
    the exact key of a value (the common denominator and the sorted
    (radicand, numerator) pairs) to its handle, so a value has one
    handle and two coefficients of a table are equal exactly when their
    handles are.  `products` maps a handle k to {c: the handle of c *
    k}, and `sums` maps a pair (a, b) of handles to the handle of a + b.
    Memo keys and values are integers, which hash in C, and a handle is
    valid in its own table only."""

    __slots__ = ("values", "handles", "products", "sums", "__weakref__")

    def __init__(self):
        self.values = []
        self.handles = {}
        self.products = {}
        self.sums = {}
        self.handle(_ZERO)
        self.handle(_ONE)

    def handle(self, value) -> int:
        """The handle of a Scalar or a number: of the value that the
        table holds, or of value itself, which it then stores.  An int
        that the table holds is found without making a Scalar."""
        if type(value) is int:
            h = self.handles.get((1, (1, value)) if value else (1,))
            if h is not None:
                return h
        c = value if type(value) is Scalar else Scalar.of(value)
        t = c._t
        key = (c._d, *t.items()) if len(t) < 2 else (c._d, *sorted(t.items()))
        h = self.handles.get(key)
        if h is None:
            h = self.handles[key] = len(self.values)
            self.values.append(c)
        return h

    def product(self, c: int, k: int) -> int:
        """The handle of c * k for handles c and k, memoized."""
        if c == 1 or k == 1:
            return k if c == 1 else c
        memo = self.products.get(k)
        if memo is None:
            memo = self.products[k] = {}
        p = memo.get(c)
        if p is None:
            values = self.values
            p = memo[c] = self.handle(values[c] * values[k])
        return p


def _add(out: dict, vec: dict, k: int, table: Coefficients):
    """out += k * vec on dicts of handles of the table, dropping the
    entries that vanish.  vec is only read, so it may be a cached
    action; k is a handle.  A unit factor passes the other one through,
    and every other product and running sum is read from the table's
    memo, or computed once, numbered and stored there."""
    if not k or not vec:
        return
    values, sums = table.values, table.sums
    unit = k == 1
    if not unit:
        products = table.products.get(k)
        if products is None:
            products = table.products[k] = {}
    for key, c in vec.items():
        if unit:
            p = c
        elif c == 1:
            p = k
        else:
            p = products.get(c)
            if p is None:
                p = products[c] = table.handle(values[c] * values[k])
        cur = out.get(key)
        if cur is None:
            out[key] = p
            continue
        pair = cur, p
        s = sums.get(pair)
        if s is None:
            s = sums[pair] = table.handle(values[cur] + values[p])
        if s:
            out[key] = s
        else:
            del out[key]


def _dot(pairs) -> Scalar:
    """sum conj(a) * b over the (a, b) pairs of Scalars.

    The products' integer numerators are summed per radicand over one
    running denominator, the lcm of the products' denominators, and one
    Scalar is made at the end."""
    t = {}
    d = 1
    for a, b in pairs:
        e = a._d * b._d
        f = 1
        if e != d:
            up = e // gcd(d, e)
            if up != 1:
                d *= up
                for r in t:
                    t[r] *= up
            f = d // e
        for r, x in a._t.items():
            x = -x * f if r < 0 else x * f
            if r == 1:
                for s, y in b._t.items():
                    t[s] = t.get(s, 0) + x * y
                continue
            for s, y in b._t.items():
                if s == 1:
                    rad, n = r, x * y
                else:
                    k, rad = _mul_rad(r, s)
                    n = x * y * k
                t[rad] = t.get(rad, 0) + n
    t = {r: n for r, n in t.items() if n}
    return _reduce(d, t) if t else _ZERO


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
