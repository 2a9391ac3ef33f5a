"""Graded modules: bases, Gram matrices, null vectors, ghost tables.

Verma modules for the Virasoro and Neveu-Schwarz algebras, fermion Fock
spaces, and affine current modules all expose the same interface: a
basis per half-integer grade, exact inner products, and the kernel and
inertia of each level form.
"""

from fractions import Fraction

from nsvertex.modules import FockModule, VermaModule, module_from_descriptor
from nsvertex.scalars import Scalar

fock = FockModule(colors=1)
print("one-fermion Fock space dimensions by half-grade:")
print(" ", fock.dims(8))
print("grade-2 basis:", [str(b) for b in fock.level_basis(4)])

print()
verma = VermaModule("ns", Scalar.of(Fraction(1, 2)), Scalar.of(0))
basis, matrix = verma.gram(3)
print("NS Verma (c=1/2, h=0) grade 3/2 basis:", [str(b) for b in basis])
for row in matrix:
    print("  [" + "  ".join(str(x) for x in row) + "]")

nulls = verma.kernel_vectors(1)
print("null vectors at grade 1/2:", [str(v) for v in nulls])
print("irreducible quotient dims:", verma.irreducible_dims(8))

print()
# negative-norm directions appear as soon as h < 0
ghost = VermaModule("ns", Scalar.of(Fraction(1, 2)), Scalar.of(Fraction(-1, 4)))
report = ghost.ghost_report(3)
for level in report["levels"]:
    print(f"  grade {level['grade']}: dim {level['dim']}, "
          f"signature (+{level['positive']}, 0:{level['zero']}, "
          f"-{level['negative']})")
print("first negative grade:", report["first_negative_grade"])

print()
# modules also load from JSON descriptors (the CLI input format)
desc = {"type": "affine", "algebra": "sl2", "level": 1, "spin": "1/2"}
affine = module_from_descriptor(desc)
print("affine sl2 level 1, spin-1/2 floor, dims:", affine.dims(4))
