"""Numeric spot checks of the genuinely analytic statements (n <= 2).

Ground-state normalizations, orthogonality under the Gaussian and
Laguerre-type weights, the kernel transform formulas, and the Laplace
transform evaluations.  The algebraic |x_i - x_j|^(2/alpha) factor is
handled by diagonal-splitting changes of variables so each axis gets a
classical Gauss rule.
"""

from fractions import Fraction as F

from nsjack import HermiteBasis, JackBasis, LaguerreBasis
from nsjack.quadrature import (check_gram_H, check_ground_state_H,
                               check_ground_state_L, check_hermite_transform,
                               check_laguerre_transform,
                               check_laplace_transform, ground_state_H)

print("ground-state normalizations vs quadrature (n = 2):")
for alpha in (F(1), F(2)):
    rep = check_ground_state_H(2, alpha)
    err = rep["values"]["rel_err"]
    print(f"  gaussian alpha={alpha}:  rel err {err:.2e}")
    assert rep["status"] == "pass"
    for a in (F(0), F(1, 2)):
        rep = check_ground_state_L(2, alpha, a)
        err = rep["values"]["rel_err"]
        print(f"  laguerre alpha={alpha}, a={a}:  rel err {err:.2e}")
        assert rep["status"] == "pass"

print(f"\nclosed form at alpha=1, n=2 equals pi: {ground_state_H(2, 1):.12f}")

print("\nGram matrix of the Hermite family (n=2, alpha=2, |eta| <= 2):")
jb = JackBasis(2, F(2))
hb = HermiteBasis(jb)
worst = max(r["values"]["rel_err"] for r in check_gram_H(hb, 2))
print(f"  worst relative deviation from the exact norms: {worst:.2e}")

print("\nkernel transform spot checks (truncated kernel, honest budget):")
lb = LaguerreBasis(jb, F(1, 2))
jb1 = JackBasis(2, F(1))
hb1 = HermiteBasis(jb1)
lb1 = LaguerreBasis(jb1, F(1, 2))
for eta in [(0, 0), (1, 0)]:
    v = check_hermite_transform(hb1, eta, 6)["values"]
    print(f"  gaussian  eta={eta}: rel err {v['rel_err']:.2e} "
          f"(tolerance {v['tolerance']:.1e})")
    v = check_laguerre_transform(lb1, eta, 6)["values"]
    print(f"  laguerre  eta={eta}: rel err {v['rel_err']:.2e} "
          f"(tolerance {v['tolerance']:.1e})")

print("\nLaplace transform evaluations at equal components (exact kernel):")
for eta in [(1, 0), (2, 1)]:
    for which in ("laguerre", "jack"):
        rep = check_laplace_transform(lb1, eta, which)
        err = rep["values"]["rel_err"]
        print(f"  {which:8s} eta={eta}: rel err {err:.2e}")
        assert rep["status"] == "pass"
