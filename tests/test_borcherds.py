"""The Borcherds kernel against an uncut sum, and the order bound it encodes.

fields._borcherds evaluates the right side of the Borcherds identity,

  sum_j (-1)^j C(r,j) [A(p+r-j)B(q+j) - (-1)^(r+eps) B(q+r-j)A(p+j)],

and stops each composition order at the grading bound of its first
factor.  The oracle here takes every term up to j = r for r >= 0, and
up to a fixed J well past any grading bound otherwise, each through
Field.act and _add, so a cutoff that dropped a nonzero term shows up as
a difference.  The kernel serves n-th products (p = 0), brackets
(r = 0) and locality coefficients (r = N).
"""

from fractions import Fraction
from itertools import product

from nsvertex.constructions import fermion_vosa, super_construction
from nsvertex.fields import (_borcherds, _order_bound, commutator_direct,
                             creating_state, gbinom, generate_closure,
                             locality_order, realize, state_field)
from nsvertex.liealg import sl2
from nsvertex.modules import VermaModule
from nsvertex.scalars import _add

# on states of grade <= 1 a field of weight <= 2 vanishes at slots above
# 2, so with p, q >= -2 every term past j = 4 is zero; J leaves room
J = 10


def compose(X, nx, Y, ny, module, state, memo) -> dict:
    """X(nx) Y(ny) state, memoized: terms recur across (p, r, q)."""
    key = (X, nx, Y, ny, state)
    out = memo.get(key)
    if out is None:
        out = memo[key] = {}
        for st, c in Y.act(ny, module, state).items():
            _add(out, X.act(nx, module, st), c)
    return out


def uncut(A, p, r, B, q, module, state, memo) -> tuple:
    """The two orders of the sum, sum_j (-1)^j C(r,j) A(p+r-j)B(q+j) and
    sum_j (-1)^j C(r,j) B(q+r-j)A(p+j), each term taken in full."""
    ab, ba = {}, {}
    for j in range(r + 1 if r >= 0 else J):
        c = (-1) ** j * gbinom(r, j)
        _add(ab, compose(A, p + r - j, B, q + j, module, state, memo), c)
        _add(ba, compose(B, q + r - j, A, p + j, module, state, memo), c)
    return ab, ba


def _assert_kernel_matches(fields, module):
    # the kernel alone, and with one memo of compositions shared across
    # every point of each pair, as a locality search shares it
    memo = {}
    for A, B in product(fields, fields):
        shared = {}
        for p, q, r, state in product(range(-2, 3), range(-2, 3),
                                      range(-2, 4), module.basis_upto(2)):
            ab, ba = uncut(A, p, r, B, q, module, state, memo)
            for eps in (0, 1):
                want = dict(ab)
                _add(want, ba, 1 if (r + eps) % 2 else -1)
                point = (str(A), p, r, str(B), q, eps, str(state))
                assert _borcherds(A, p, r, B, q, eps, module,
                                  state) == want, point
                assert _borcherds(A, p, r, B, q, eps, module, state,
                                  shared) == want, point


def test_kernel_matches_uncut_sum_on_ns_verma():
    module = VermaModule("ns", Fraction(7, 10), Fraction(1, 10))
    fields = [state_field(module, creating_state(k)) for k in ("G", "L")]
    _assert_kernel_matches(fields, module)


def test_kernel_matches_uncut_sum_on_super_construction():
    cons = super_construction(sl2(), 1)
    module = cons.module
    psi = cons.fields["psi1"]
    # a product of weight -5, zero at every slot on these states
    negative = psi.prod(psi, 5)
    assert negative.weight2 < 0
    _assert_kernel_matches([cons.fields["G"], psi,
                            state_field(module, cons.omega), negative],
                           module)


def test_a_field_commutes_with_its_own_mode_at_no_cost():
    # [L(m), L(m)] sums its A·B and B·A terms to 0 before composing, so
    # the kernel asks no field and no module for an action
    cons = super_construction(sl2(), 1)
    module = cons.module
    L = state_field(module, cons.omega)
    states = module.basis_upto(2)
    cached = len(L._cache), len(module._apply_cache)
    for m, state in product(range(-3, 4), states):
        assert commutator_direct(L, m, L, m, module, state) == {}
    assert (len(L._cache), len(module._apply_cache)) == cached


def test_the_anticommutator_of_a_mode_with_itself_is_twice_its_square():
    # {G(m), G(m)} u = 2 G(m) G(m) u, the A·B and B·A terms merged
    cons = super_construction(sl2(), 1)
    module = cons.module
    G = cons.fields["G"]
    nonzero = 0
    for m, state in product(range(-3, 4), module.basis_upto(2)):
        square = {}
        for st, c in G.act(m, module, state).items():
            _add(square, G.act(m, module, st), c)
        want = {}
        _add(want, square, 2)
        assert commutator_direct(G, m, G, m, module, state) == want, \
            (m, str(state))
        nonzero += bool(want)
    assert nonzero


def test_closures_are_pairwise_local():
    # every pair of closure fields is local within its weight bound
    for cons, depth2 in ((fermion_vosa(2), 4),
                         (super_construction(sl2(), 1), 2)):
        rep = generate_closure(cons.module, cons.fields, depth2)
        assert rep["valid"]


def _assert_orders_match_products(fields, module, depth2, window):
    # on the vacuum module A_(j)B is the field of the state A(j)b, so the
    # locality order is 1 + the largest j below the bound with that
    # state nonzero, or 0 if there is none
    for A, B in product(fields, fields):
        want = max((j + 1 for j in range(_order_bound(A.weight2, B.weight2))
                    if realize(A.prod(B, j), module)), default=0)
        got = locality_order(A, B, module, depth2=depth2, window=window)
        assert got["order"] == want, (str(A), str(B))


def test_locality_orders_match_the_products_on_a_fermion_closure():
    cons = fermion_vosa(1)
    rep = generate_closure(cons.module, cons.fields, 4)
    _assert_orders_match_products(rep["fields"], cons.module, 4, 2)


def test_locality_orders_match_the_products_on_the_super_construction():
    cons = super_construction(sl2(), 1)
    module = cons.module
    fields = [f for _, f in sorted(cons.fields.items())]
    fields.append(state_field(module, cons.omega))
    _assert_orders_match_products(fields, module, 2, 2)
