"""The supersymmetric extension: currents + fermions carry G.

On the tensor product of an affine module at level l with dim(g)
fermions, the odd state tau built from x psi and psi psi psi terms
generates a field G whose square closes on the Virasoro field, with
total central charge dim(g) (3l + g) / (2 (l + g)).  At sl2 level 1
every coefficient involves sqrt(3) and the identities still hold
exactly.
"""

from nsvertex.constructions import (central_charges, super_construction,
                                    susy_report, vertex_module, weight_report)
from nsvertex.fields import realize
from nsvertex.liealg import sl2

lie = sl2()
cons = super_construction(lie, 1)
print("degree l + g =", cons.level + lie.dual_coxeter())
print("supercurrent state tau =", realize(cons.fields["G"], cons.module))
print()

rep = susy_report(cons, depth2=4, window=2)
print("relations on the level-1 module to grade 2:")
for name, ok in rep["checks"].items():
    print(f"  {name:<26} {'ok' if ok else 'FAILED'}")
print("central charge:", rep["central_charge"])

print()
print("closed-form charge table for sl2:")
print("level  c_fermion  c_boson  c_total      h(spin 1/2)")
for level in (1, 2, 3):
    cc = central_charges(lie, level, 1 if level >= 1 else 0)
    print(f"  {level}    {str(cc['c_fermion']):<10} {str(cc['c_boson']):<8} "
          f"{str(cc['c_total']):<12} {cc['h']}")

print()
vm = vertex_module(lie, 1, 1)
print("spin-1/2 module at level 1: h =", vm["h"])
wr = weight_report(vm, depth2=4)
for level in wr["levels"]:
    print(f"  grade {level['grade']}: dim {level['dim']}, "
          f"D-eigenvalue matches: {level['valid']}")

print()
# level 0 degenerates to fermions alone; G comes from the currents
zero = super_construction(lie, 0)
rep0 = susy_report(zero, depth2=2, window=2)
print("level 0 (pure fermion) relations valid:", rep0["valid"],
      "with c =", rep0["central_charge"])
