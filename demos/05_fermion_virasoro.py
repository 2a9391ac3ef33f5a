"""Free fermions carry a Virasoro action with c = 1/2.

The quadratic state omega = (1/2) psi(-3/2) psi(-1/2) vac generates the
Virasoro field; its bracket relations, the axioms of a vertex operator
superalgebra, and the decomposition of the Fock space over the even
subalgebra are all verified exactly.
"""

from fractions import Fraction

from nsvertex.constructions import fermion_omega, fermion_vosa, submodule_dims
from nsvertex.fields import (check_vosa_axioms, state_field,
                             virasoro_bracket_check)
from nsvertex.modules import VermaModule
from nsvertex.scalars import Scalar

cons = fermion_vosa(1)
module = cons.module
print("conformal state omega =", cons.omega)
print("central charge 2||omega||^2 =", cons.central_charge)

vir = virasoro_bracket_check(module, cons.omega, depth2=8, window=3)
print("[L_m, L_n] relations on", vir["checked"], "triples:",
      "all hold" if vir["valid"] else "FAILED")

report = check_vosa_axioms(module, cons.fields, cons.omega, depth2=4,
                           window=2)
print("axiom report:")
for name, ok in report["checks"].items():
    print(f"  {name:<18} {'ok' if ok else 'FAILED'}")

print()
# the Virasoro subalgebra generates a proper submodule of the Fock
# space whose character matches the irreducible (1/2, 0) quotient
L = state_field(module, fermion_omega(module))
generated = submodule_dims(module, L, 10)
irreducible = VermaModule("virasoro", Scalar.of(Fraction(1, 2)),
                          Scalar.of(0)).irreducible_dims(10)
print("Virasoro submodule dims:", generated)
print("irreducible (1/2,0) dims:", irreducible)
print("equal:", generated == irreducible)
print("integer grades only:", generated[0::2])
