"""The Hermite- and Laguerre-type families and their ladder structure.

Both families are finite exponential images of the Jack basis: the
type-A Laplacian built from Dunkl operators lowers degree by two, its
type-B counterpart (in squared variables) by one, so exp(-Laplacian/4)
terminates.  The families inherit a raising/lowering pair whose
proportionality constants are explicit products, vanishing exactly when
the last part of the label is zero.
"""

from fractions import Fraction as F

from nsjack import HermiteBasis, JackBasis, LaguerreBasis
from nsjack.combinat import phi_hat_map, phi_map

alpha = F(3, 2)
jb = JackBasis(2, alpha)
hb = HermiteBasis(jb)
lb = LaguerreBasis(jb, a=F(1, 2))

print(f"alpha = {alpha}, type-B parameter a = {lb.a}\n")

eta = (1, 1)
print(f"E_{eta}          = {jb.E(eta)}")
print(f"Hermite E_{eta}  = {hb.E(eta)}")
print(f"Laguerre E_{eta} = {lb.E(eta)}   (in squared variables)")
print(f"same, in x       = {lb.E(eta).scale_exponents(2)}\n")

# raising: one operator application moves the label up the spiral
up = phi_map(eta)
assert hb.raise_op(eta) == 2 * hb.E(up)
assert lb.raise_op(eta) == lb.E(up)
print(f"raising {eta} -> {up}: Hermite constant 2, Laguerre constant 1")

# lowering: the constant vanishes iff the last part is zero
for label in [(1, 1), (1, 0)]:
    low = hb.lower_op(label)
    c = hb.lower_constant(label)
    if label[-1] == 0:
        assert low.is_zero and c == 0
        print(f"lowering {label}: annihilated (constant 0)")
    else:
        assert low == c * hb.E(phi_hat_map(label))
        print(f"lowering {label} -> {phi_hat_map(label)}: constant {c}")

# norms relative to the ground state are explicit rational products
print("\nnorm ratios (norm / ground-state normalization):")
for label in [(1, 0), (1, 1), (2, 1)]:
    print(f"  Hermite {label}: {hb.norm_ratio(label)};"
          f"  Laguerre {label}: {lb.norm_ratio(label)}")

# the value of the Laguerre family at the origin is a closed form
print("\nLaguerre values at the origin:")
for label in [(1, 0), (2, 1)]:
    v = lb.at_zero(label)
    assert v == lb.E(label).eval_exact([0, 0])
    print(f"  {label}: {v}")

# harmonic decomposition: E splits over powers of the squared radius
print("\nharmonic decomposition of E_(1,1):")
for m, component in hb.harmonic_components((1, 1)):
    assert hb.ops.laplacian_A(component).is_zero
    print(f"  r^{2 * m} times {component}")
assert hb.from_harmonics((1, 1)) == hb.E((1, 1))
print("Hermite polynomial rebuilt from harmonics and classical "
      "one-variable Laguerre factors")
