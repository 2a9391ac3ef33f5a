"""Reference locality search, every coefficient summed in full.

The search of ``fields.locality_order`` with a plain coefficient, kept
as an independent oracle for tests/test_locality_oracle.py.  The
coefficient of z^(-p-1) w^(-q-1) in (z-w)^N [A(z), B(w)]_eps,

  sum_j (-1)^j C(N,j) [A(p+N-j)B(q+j) - (-1)^(N+eps) B(q+N-j)A(p+j)],

takes every term for j = 0 .. N through Field.act: no output-grade
cut, no merged compositions and no memo across points.  Trial orders,
parities, points and witnesses run in the library's order.
"""

from __future__ import annotations

import math

from nsvertex.fields import NotLocalError
from nsvertex.scalars import _add


def coefficient(A, p, N, B, q, eps, module, state) -> dict:
    """The locality coefficient T_N(p, q) on one basis state."""
    swap = 1 if (N + eps) % 2 else -1
    out = {}
    for j in range(N + 1):
        c = (-1) ** j * math.comb(N, j)
        for X, nx, Y, ny, k in ((A, p + N - j, B, q + j, c),
                                (B, q + N - j, A, p + j, c * swap)):
            for st, d in Y.act(ny, module, state).items():
                _add(out, X.act(nx, module, st), d * k)
    return out


def locality_order(A, B, module, depth2: int = 4, window: int = 3, *,
                   max_order: int | None = None) -> dict:
    """The report of fields.locality_order, point by point."""
    if max_order is None:
        max_order = max(0, (A.weight2 + B.weight2) // 2)
    predicted = A.parity & B.parity
    states = module.basis_upto(depth2)
    slots = range(-window, window + 1)
    witness = {0: None, 1: None}
    for N in range(max_order + 1):
        for eps in (predicted, 1 - predicted):
            found = next(((N, p, q, state) for state in states
                          for p in slots for q in slots
                          if coefficient(A, p, N, B, q, eps, module, state)),
                         None)
            if found is None:
                return {"order": N,
                        "bracket": "anticommutator" if eps else "commutator",
                        "witness": witness[eps],
                        "parity_consistent": eps == predicted}
            witness[eps] = found
    raise NotLocalError(f"fields not local at order <= {max_order} on this "
                        "window")
