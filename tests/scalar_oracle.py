"""Reference scalar arithmetic with one Fraction per coefficient.

The earlier implementation of ``nsvertex.scalars``, kept unchanged as an
independent oracle for tests/test_scalar_oracle.py: every coefficient is
a ``Fraction`` and every operation works term by term.

Exact arithmetic in multi-quadratic extensions of the rationals.

A scalar is a finite sum ``sum_r q_r * sqrt(r)`` with rational
coefficients ``q_r`` and square-free integer radicands ``r``.  The key
``r = 1`` carries the rational part.  A negative key stands for
``i*sqrt(|r|)``, so ``r = -1`` is the imaginary unit and ``r = -2`` is
``i*sqrt(2)``.  Square roots of distinct square-free integers are
linearly independent over Q, so the representation is canonical and the
zero scalar is the empty sum.
"""

from __future__ import annotations

from fractions import Fraction


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


def _mul_rad(r: int, s: int) -> tuple[int, int]:
    """sqrt(r)*sqrt(s) = factor * sqrt(rad), with sqrt(neg) read as i*sqrt(|neg|)."""
    negatives = (r < 0) + (s < 0)
    outer, core = _squarefree_split(abs(r) * abs(s))
    if negatives == 1:
        return outer, -core
    if negatives == 2:
        return -outer, core
    return outer, core


class Scalar:
    """An element of Q adjoined square roots of square-free integers."""

    __slots__ = ("_t", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for rad, coeff in terms.items():
                if not isinstance(rad, int):
                    raise TypeError(f"radicand must be int, got {rad!r}")
                _, core = _squarefree_split(rad)
                if core != rad:
                    raise ValueError(f"radicand {rad} is not square-free")
                coeff = Fraction(coeff)
                if coeff:
                    t[rad] = t.get(rad, Fraction(0)) + coeff
                    if not t[rad]:
                        del t[rad]
        self._t = t
        self._hash = None

    @staticmethod
    def _new(t: dict) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s._t = t
        s._hash = None
        return s

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        q = Fraction(value)
        return Scalar._new({1: q} if q else {})

    @staticmethod
    def root(n: int) -> "Scalar":
        """The square root of an integer, e.g. root(8) = 2*sqrt(2), root(-1) = i."""
        outer, core = _squarefree_split(n)
        if core == 0:
            return Scalar._new({})
        return Scalar._new({core: Fraction(outer)})

    @staticmethod
    def sqrt_fraction(q) -> "Scalar":
        """Square root of a rational number: sqrt(p/q) = sqrt(p*q)/q."""
        q = Fraction(q)
        if q == 0:
            return Scalar._new({})
        outer, core = _squarefree_split(q.numerator * q.denominator)
        return Scalar._new({core: Fraction(outer, q.denominator)})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_rational(self) -> bool:
        return not self._t or set(self._t) == {1}

    def as_fraction(self) -> Fraction:
        if not self._t:
            return Fraction(0)
        if set(self._t) != {1}:
            raise ValueError(f"not rational: {self}")
        return self._t[1]

    def is_real(self) -> bool:
        return all(r > 0 for r in self._t)

    @property
    def terms(self) -> dict:
        return dict(self._t)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self._t)
        for rad, coeff in other._t.items():
            acc = t.get(rad)
            acc = coeff if acc is None else acc + coeff
            if acc:
                t[rad] = acc
            elif rad in t:
                del t[rad]
        return Scalar._new(t)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._new({r: -c for r, c in self._t.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return _ZERO
        t = {}
        for r, cr in a.items():
            for s, cs in b.items():
                f, rad = _mul_rad(r, s)
                acc = t.get(rad, Fraction(0)) + cr * cs * f
                if acc:
                    t[rad] = acc
                elif rad in t:
                    del t[rad]
        return Scalar._new(t)

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
                conj = Scalar._new({rad: (-c if rad % p == 0 else c)
                                    for rad, c in den._t.items()})
            num, den = num * conj, den * conj
        q = den._t[1]
        return Scalar._new({r: c / q for r, c in num._t.items()})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            q = other.as_fraction()
            if not q:
                raise ZeroDivisionError("scalar division by zero")
            return Scalar._new({r: c / q for r, c in self._t.items()})
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
        """Complex conjugation: i -> -i, real radicals fixed."""
        return Scalar._new({r: (-c if r < 0 else c) for r, c in self._t.items()})

    # -- comparisons and hashing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self._t.get(1, Fraction(0)))
            else:
                self._hash = hash(tuple(sorted(self._t.items())))
        return self._hash

    def __bool__(self):
        return bool(self._t)

    # -- serialization and display --------------------------------------

    def to_json(self) -> list:
        return [
            {"num": c.numerator, "den": c.denominator, "rad": r}
            for r, c in sorted(self._t.items())
        ]

    @staticmethod
    def from_json(data) -> "Scalar":
        if isinstance(data, (int, str)):
            return Scalar.of(Fraction(data))
        t = {}
        for item in data:
            rad = item.get("rad", 1)
            coeff = Fraction(item["num"], item.get("den", 1))
            t[rad] = t.get(rad, Fraction(0)) + coeff
        return Scalar({r: c for r, c in t.items() if c})

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for r, c in sorted(self._t.items(), key=lambda rc: (abs(rc[0]), rc[0] < 0)):
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


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        return Scalar._new({1: q} if q else {})
    return NotImplemented


_ZERO = Scalar._new({})
_ONE = Scalar._new({1: Fraction(1)})

ZERO = _ZERO
ONE = _ONE
I = Scalar._new({-1: Fraction(1)})


def rational(num, den=1) -> Scalar:
    return Scalar.of(Fraction(num, den))
