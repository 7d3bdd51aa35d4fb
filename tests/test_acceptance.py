"""Acceptance gate: every criterion at its stated range, exact unless noted.

Defaults: couplings {1, 2, 1/2, 3, 7/5}; compositions |eta| <= 4 with
n <= 3; type-B parameters {0, 1/2, 1}.  Run with -s to see the one-line
verdict per criterion.
"""

from fractions import Fraction as F

import label_reference as ref
import nsjack.combinat as comb
from nsjack.cterm import (SahiInner, ct_inner, ct_norm_formula,
                          kadell_ratio_check, norm_relation_check)
from nsjack.jack import JackBasis
from nsjack.kernels import binomial_coeff
from nsjack.poly import SparsePoly, power_sum
from nsjack.suites import suite_binomials, suite_kernels, suite_numeric

ALPHAS = (F(1), F(2), F(1, 2), F(3), F(7, 5))
A_SET = (F(0), F(1, 2), F(1))
MAX_WEIGHT = 4
MAX_N = 3


def _verdict(num, ok, label):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num} failed: {label}"


def _etas(n, w=MAX_WEIGHT):
    return comb.compositions_up_to(n, w)


def test_criterion_01_eigenfunctions():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            hb = jb.hermite()
            for eta in _etas(n):
                bars = comb.eta_bar_vec(eta, alpha)
                E, EH = jb.E(eta), hb.E(eta)
                for i in range(n):
                    ok &= jb.ops.cherednik(E, i) == bars[i] * E
                    ok &= hb.ops.h_op(EH, i) == bars[i] * EH
            for a in A_SET:
                lb = jb.laguerre(a)
                for eta in _etas(n):
                    bars = comb.eta_bar_vec(eta, alpha)
                    EL = lb.E(eta)
                    for i in range(n):
                        ok &= lb.ops.l_op(EL, i) == bars[i] * EL
    _verdict(1, ok, "joint eigenfunction equations, exact")


def test_criterion_02_oracle_equivalence():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            for eta in _etas(n):
                ok &= jb.E(eta) == jb.E_oracle(eta)
    _verdict(2, ok, "recursion matches the joint-eigenproblem oracle, exact")


def test_criterion_03_evaluations():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            ones = [1] * n
            zeros = [0] * n
            for eta in _etas(n):
                ok &= jb.E(eta).eval_exact(ones) == jb.eval_ones(eta)
            for a in A_SET:
                lb = jb.laguerre(a)
                for eta in _etas(n):
                    ok &= lb.E(eta).eval_exact(zeros) == lb.at_zero(eta)
    _verdict(3, ok, "all-ones and at-origin closed forms, exact")


def test_criterion_04_constant_term_norms():
    ok = True
    for k in (1, 2):
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, F(1, k))
            for eta in _etas(n, 3):
                E = jb.E(eta)
                ok &= ct_inner(E, E, k) == ct_norm_formula(eta, k)
    jb = JackBasis.shared(2, F(1))
    E = jb.E((1, 0))
    ok &= ct_inner(E, E, 1) == F(3, 2)
    _verdict(4, ok, "constant-term norms equal the spectral product; "
                    "spot value 3/2")


def test_criterion_05_selberg_ratio_and_norm_relation():
    ok = True
    for k in (1, 2):
        for n in (2, 3):
            jb = JackBasis.shared(n, F(1, k))
            for eta in _etas(n, 3):
                for a in (0, 1, 2):
                    for b in (0, 1, 2):
                        ok &= kadell_ratio_check(jb, eta, a, b, k)[
                            "status"] == "pass"
                ok &= norm_relation_check(jb, eta, k)["status"] == "pass"
    _verdict(5, ok, "beta-weighted ratio identity and norm relation, exact")


def test_criterion_06_raising_lowering():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            hb = jb.hermite()
            for eta in _etas(n):
                up = comb.phi_map(eta)
                ok &= jb.ops.phi(jb.E(eta)) == jb.E(up)
                low = jb.ops.phi_hat(jb.E(eta))
                if eta[-1] == 0:
                    ok &= low.is_zero
                else:
                    down = comb.phi_hat_map(eta)
                    c = (ref.d_prime_const(eta, alpha)
                         / ref.d_prime_const(down, alpha) / alpha)
                    ok &= low == c * jb.E(down)
                ok &= hb.raise_op(eta) == 2 * hb.E(up)
                lowh = hb.lower_op(eta)
                if eta[-1] == 0:
                    ok &= lowh.is_zero and hb.lower_constant(eta) == 0
                else:
                    ok &= lowh == hb.lower_constant(eta) * hb.E(
                        comb.phi_hat_map(eta))
            for a in A_SET:
                lb = jb.laguerre(a)
                for eta in _etas(n):
                    ok &= lb.raise_op(eta) == lb.E(comb.phi_map(eta))
                    lowl = lb.lower_op(eta)
                    if eta[-1] == 0:
                        ok &= lowl.is_zero and lb.lower_constant(eta) == 0
                    else:
                        ok &= lowl == lb.lower_constant(eta) * lb.E(
                            comb.phi_hat_map(eta))
    _verdict(6, ok, "ladder actions and annihilation constants, exact")


def test_criterion_07_pairings():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            hb = jb.hermite()
            lbs = [jb.laguerre(a) for a in A_SET]
            for w in range(MAX_WEIGHT + 1):
                group = list(comb.compositions(n, w))
                for eta in group:
                    row = hb.pairing_row(jb.E(eta))
                    want_diag = (ref.d_prime_const(eta, alpha)
                                 * ref.e_const(eta, alpha)
                                 / ref.d_const(eta, alpha) / alpha ** w)
                    for nu in group:
                        got = sum((c * row[e]
                                   for e, c in jb.E(nu).terms.items()), F(0))
                        ok &= got == (want_diag if nu == eta else 0)
                    for lb in lbs:
                        rowl = lb.pairing_row(jb.E(eta))
                        aq = lb.shifted_a
                        want = (F(4) ** w * ref.gen_fact(aq, eta, alpha)
                                * want_diag)
                        for nu in group:
                            got = sum((c * rowl[e]
                                       for e, c in jb.E(nu).terms.items()),
                                      F(0))
                            ok &= got == (want if nu == eta else 0)
    # proportionality with the power-sum-style inner product
    for alpha in ALPHAS:
        for n in range(2, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            hb = jb.hermite()
            si = SahiInner(n, alpha, 3)
            for w in range(4):
                for lam in comb.partitions(w, n):
                    from itertools import permutations

                    lam_pad = tuple(lam) + (0,) * (n - len(lam))
                    orbit = sorted(set(permutations(lam_pad)))
                    f = jb.E(orbit[0]) + 2 * jb.E(orbit[-1])
                    g = jb.E(orbit[len(orbit) // 2]) - 3 * jb.E(orbit[0])
                    fac = ref.gen_fact(F(n) / alpha + 1, lam_pad, alpha)
                    ok &= hb.pairing(f, g) == fac * si.inner(f, g)
    _verdict(7, ok, "operator pairings: diagonal values, off-diagonal "
                    "zeros, power-sum proportionality, exact")


def test_criterion_08_kernel_identities():
    reports = suite_kernels(alphas=ALPHAS, sizes=((2, 5), (3, 4)))
    bad = [r for r in reports if r["status"] != "pass"]
    _verdict(8, not bad,
             f"kernel identity suite, {len(reports)} truncated identities, "
             "exact per truncation contract")


def test_criterion_09_binomial_coefficients():
    reports = suite_binomials(alphas=ALPHAS, max_weight=MAX_WEIGHT,
                              max_n=MAX_N)
    bad = [r for r in reports if r["status"] != "pass"]
    ok = not bad
    # weight-preserving and weight-zero degenerate values
    jb = JackBasis.shared(2, F(7, 5))
    for eta in _etas(2):
        ok &= binomial_coeff(jb, eta, eta) == 1
        ok &= binomial_coeff(jb, eta, (0, 0)) == 1
    _verdict(9, ok, "binomial coefficients: defining expansion, "
                    "n-independence, orbit sum rules, exact")


def test_criterion_10_harmonic_decompositions():
    ok = True
    for alpha in ALPHAS:
        for n in range(1, MAX_N + 1):
            jb = JackBasis.shared(n, alpha)
            hb = jb.hermite()
            r2 = power_sum(n, 2)
            for eta in _etas(n):
                comps = hb.harmonic_components(eta)
                rebuilt = SparsePoly.zero(n)
                for m, c in comps:
                    ok &= hb.ops.laplacian_A(c).is_zero
                    rebuilt = rebuilt + r2 ** m * c
                ok &= rebuilt == jb.E(eta)
                ok &= hb.from_harmonics(eta, comps) == hb.E(eta)
            r2y = power_sum(n, 1)
            for a in A_SET:
                lb = jb.laguerre(a)
                for eta in _etas(n):
                    comps = lb.harmonic_components(eta)
                    rebuilt = SparsePoly.zero(n)
                    for m, c in comps:
                        ok &= lb.ops.laplacian_B(c).is_zero
                        rebuilt = rebuilt + r2y ** m * c
                    ok &= rebuilt == jb.E(eta)
                    ok &= lb.from_harmonics(eta, comps) == lb.E(eta)
    _verdict(10, ok, "harmonic components annihilated and both "
                     "reconstructions exact")


def test_criterion_11_numeric():
    reports = suite_numeric(alphas=(F(1), F(2)), a_set=A_SET, max_weight=3,
                            D=6)
    bad = [r for r in reports if r["status"] != "pass"]
    for b in bad[:5]:
        print("  numeric failure:", b)
    _verdict(11, not bad,
             f"quadrature layer, {len(reports)} checks: ground states and "
             "orthogonality < 1e-8, transforms within declared tolerance, "
             "n=1 reductions at machine precision")
