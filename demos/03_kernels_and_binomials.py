"""Bilinear kernels, generating functions, and binomial coefficients.

The kernel is the bilinear series pairing the basis with itself, weighted
so that a Dunkl operator in one block acts as multiplication in the
other.  Truncated by label weight, every identity in its orbit becomes a
finite polynomial identity that can be checked by exact subtraction.
"""

from fractions import Fraction as F

from nsjack import JackBasis
from nsjack.kernels import (IDENTITY_CHECKS, binomial_coeff, kernel_KA,
                            verify_kernel_identity)

alpha = F(7, 5)
jb = JackBasis(2, alpha)

# one variable: the kernel collapses to the exponential series
jb1 = JackBasis(1, alpha)
print("one-variable kernel through degree 4:", kernel_KA(jb1, 4))
print()

# the full identity suite at desk scale
D = 4
for name in sorted(IDENTITY_CHECKS):
    rep = verify_kernel_identity(name, jb, D)
    print(f"{name:35s} {rep['status']}")
    assert rep["status"] == "pass"

# binomial coefficients from the shifted-argument expansion
print("\nbinomial coefficients (eta over nu):")
for eta, nu in [((1, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 0), (1, 0)),
                ((2, 1), (1, 1))]:
    print(f"  ({eta} over {nu}) = {binomial_coeff(jb, eta, nu)}")

# they do not depend on the number of variables: pad the labels with zeros
b2 = binomial_coeff(jb, (2, 1), (1, 1))
b4 = binomial_coeff(JackBasis(4, alpha), (2, 1, 0, 0), (1, 1, 0, 0))
assert b2 == b4
print(f"\nsame coefficient in 2 and 4 variables: {b2} == {b4} -> pass")
