"""The vertex engine: fields, locality orders, products, brackets.

A field assigns to every slot n an operator A(n) lowering the grade by
n+1 weight units.  Two fields are local of order N when (z-w)^N kills
their graded commutator; the singular part of the expansion is the
list of products A_0 B, ..., A_{N-1} B, and the bracket of any two
modes is a finite binomial sum over those products.
"""

from nsvertex.constructions import fermion_omega
from nsvertex.fields import (GeneratorField, bracket_from_ope,
                             commutator_direct, generate_closure,
                             locality_order, ope_singular_part, realize,
                             state_field)
from nsvertex.modules import FockModule

module = FockModule(colors=1)
psi = GeneratorField("psi")
L = state_field(module, fermion_omega(module))

print("locality orders on the fermion module:")
for name, A, B in (("(psi, psi)", psi, psi), ("(psi, L)", psi, L),
                   ("(L, L)", L, L)):
    loc = locality_order(A, B, module, depth2=8, window=3)
    print(f"  {name}: N = {loc['order']} ({loc['bracket']})")

print()
print("singular part of psi with itself (one product):")
for j, vec in ope_singular_part(psi, psi, module, 1).items():
    print(f"  psi_{j} psi -> {vec}")

print()
print("singular part of L with psi (two products):")
for j, vec in ope_singular_part(L, psi, module, 2).items():
    print(f"  L_{j} psi -> {vec}")

# the bracket of two modes, computed two independent ways
state = module.level_basis(3)[0]
direct = module.vector(commutator_direct(L, 1, psi, 0, module, state))
expanded = module.vector(bracket_from_ope(L, 1, psi, 0, 2, module, state))
print()
print(f"[L(1), psi(0)] on {state}:")
print("  direct   :", {str(s): str(c) for s, c in direct.items()})
print("  expansion:", {str(s): str(c) for s, c in expanded.items()})
print("  equal    :", direct == expanded)

print()
# pairwise-local generators stay local under products: close the set
closure = generate_closure(module, {"psi": psi}, 4)
print("closure of {psi} to grade 2: dims", closure["dims"],
      "all pairs local:", closure["valid"])
for vec in closure["states"]:
    print("  spans:", vec)
print("the top state is twice the conformal state:",
      closure["states"][-1] == fermion_omega(module).scaled(2))
print("realized back from its field:",
      realize(closure["fields"][-1], module) == closure["states"][-1])
