"""Certification by sweeping: an identity checked at every point of a
finite, ordered window, each failing point named.

This module imports nothing from the package, so every layer, the Lie
algebra data included, certifies through the one primitive.
"""

from __future__ import annotations

from numbers import Number


def _recorded(value):
    """A value of a failing point as the report keeps it: a number (a
    Scalar is registered as one), a string or a vector as it is, and
    any other value, such as a basis state, by its str."""
    return value if isinstance(value, (Number, str, dict)) else str(value)


def sweep(points, lhs, rhs) -> dict:
    """Certify lhs(**p) == rhs(**p) at every point p of an ordered
    iterable of dicts; returns the number of points checked and, in
    order, each point where the sides differ."""
    checked, failures = 0, []
    for p in points:
        checked += 1
        if lhs(**p) != rhs(**p):
            failures.append({k: _recorded(v) for k, v in p.items()})
    return {"checked": checked, "failures": failures}
