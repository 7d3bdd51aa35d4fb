"""Constant-term norms and the Selberg-type ratio identity.

At integer inverse coupling k = 1/alpha the interaction weight expands
as a Laurent polynomial, so torus inner products reduce to constant-term
extraction and every norm statement can be checked exactly.
"""

from fractions import Fraction as F

from nsjack import JackBasis
from nsjack.combinat import compositions_up_to
from nsjack.cterm import (SahiInner, ct_inner, ct_norm_formula,
                          kadell_ratio_check, norm_relation_check)

k = 2
jb = JackBasis(2, F(1, k))
print(f"n = 2, k = 1/alpha = {k}\n")

print("diagonal constant-term norms vs the spectral-gap product:")
for eta in compositions_up_to(2, 3):
    E = jb.E(eta)
    direct = ct_inner(E, E, k)
    closed = ct_norm_formula(eta, k)
    assert direct == closed
    print(f"  {eta}: {direct}")

print("\noff-diagonal orthogonality:")
assert ct_inner(jb.E((2, 0)), jb.E((1, 1)), k) == 0
assert ct_inner(jb.E((1, 0)), jb.E((0, 1)), k) == 0
print("  all zero, exactly")

print("\nbeta-weighted ratio identity (integer exponents a, b):")
for eta, a, b in [((1, 0), 1, 1), ((2, 1), 2, 1), ((1, 1), 0, 2)]:
    rep = kadell_ratio_check(jb, eta, a, b, k)
    assert rep["status"] == "pass"
    print(f"  eta={eta}, a={a}, b={b}: both sides {rep['values']['lhs']}")

print("\nnorm relation tying the constant term to the all-ones value:")
for eta in [(1, 0), (2, 1)]:
    rep = norm_relation_check(jb, eta, k)
    assert rep["status"] == "pass"
    print(f"  eta={eta}: both sides {rep['values']['lhs']}")

print("\npower-sum-style inner product: diagonal d'/d on the basis")
si = SahiInner(2, F(1, k), 3)
for eta in [(1, 0), (2, 1)]:
    print(f"  <E_{eta}, E_{eta}> = {si.inner(jb.E(eta), jb.E(eta))}")
