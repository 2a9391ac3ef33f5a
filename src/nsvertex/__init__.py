"""Exact computational toolkit for vertex operator superalgebras.

Scalars live in multi-quadratic extensions of Q; state spaces are graded
Fock and Verma modules with exact inner products; fields are lazy mode
actions combined through n-th products, with checkers for locality,
operator product expansions, commutation relations and the vertex
superalgebra axioms; on top sit the free fermion, affine current,
Sugawara and supersymmetric Neveu-Schwarz constructions.
"""

from .scalars import Scalar

__all__ = ["Scalar"]
