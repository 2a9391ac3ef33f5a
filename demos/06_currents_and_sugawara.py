"""Currents from fermions and the Sugawara construction.

dim(g) fermions colored by a simple Lie algebra produce currents
S^a = -(i/2) Gamma psi psi obeying the affine relations at level g;
their squares sum to a multiple of the fermionic conformal state.
Independently, affine currents at level l produce a Virasoro state by
the inverse-level normal-ordered square.
"""

from nsvertex.constructions import (boson_sugawara, central_charges,
                                    current_bracket_report,
                                    current_square_state, fermion_omega,
                                    g_fermion_system)
from nsvertex.fields import realize
from nsvertex.liealg import sl2

lie = sl2()
cons = g_fermion_system(lie)
print("currents built from", lie.dim, "fermions")
for name, field in sorted(cons.fields.items()):
    print(f"  {name} creates {realize(field, cons.module)}")
for a, S in enumerate(cons.currents):
    print(f"  S{a + 1} creates {realize(S, cons.module)}")

brackets = current_bracket_report(cons, depth2=2, window=2)
print("affine relations checked:", brackets["checked"],
      "valid:", brackets["valid"])
print("measured level:", brackets["measured_level"],
      "(the dual Coxeter number)")

square = current_square_state(cons)
print("sum_a S^a(-1) S^a state =", square)
print("equals 8 omega:", square == fermion_omega(cons.module).scaled(8))
print("fermionic central charge:", cons.central_charge)

print()
for level in (1, 2, 3):
    sug = boson_sugawara(lie, level)
    measured = sug.central_charge
    closed = central_charges(lie, level)["c_boson"]
    print(f"Sugawara sl2 level {level}: c = {measured} "
          f"(closed form {closed}, equal: {measured == closed})")
