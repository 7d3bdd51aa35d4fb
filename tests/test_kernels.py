"""Kernels, binomial coefficients, and the truncated identity suite."""

from fractions import Fraction as F
from math import factorial

import pytest

import label_reference as ref
import nsjack.combinat as comb
from nsjack.jack import JackBasis
from nsjack.kernels import (IDENTITY_CHECKS, _bilinear_sum, binomial_coeff,
                            check_binomial_sum_rules, eps_eigenvalue,
                            hyper_0F0, kernel_KA, kernel_series,
                            kernel_slices, sym_binomial,
                            verify_kernel_identity)
from nsjack.poly import SparsePoly, linear_combination

ALPHA = F(7, 5)


@pytest.fixture(scope="module")
def jack2():
    return JackBasis(2, ALPHA)


def test_kernel_univariate_classical():
    jb = JackBasis(1, ALPHA)
    K = kernel_KA(jb, 5)
    want = SparsePoly(2, {(k, k): F(1, factorial(k)) for k in range(6)})
    assert K == want


def test_kernel_degree_zero(jack2):
    assert kernel_KA(jack2, 0) == SparsePoly.one(4)
    assert hyper_0F0(jack2, 0) == SparsePoly.one(4)


def test_kernel_weight_one_slice(jack2):
    K = kernel_KA(jack2, 1)
    slice1 = kernel_slices(K, 2, 1)[1]
    want = SparsePoly.zero(4)
    for eta in [(1, 0), (0, 1)]:
        coeff = ALPHA * ref.d_const(eta, ALPHA) / (
            ref.d_prime_const(eta, ALPHA) * ref.e_const(eta, ALPHA))
        E = jack2.E(eta)
        want = want + coeff * E.embed(4, 0) * E.embed(4, 2)
    assert slice1 == want


def test_singular_parameter_rejected(jack2):
    with pytest.raises(ValueError):
        kernel_series(jack2, (F(1, 2), F(1, 2)), (F(0),), 2)


def _family_factor_sum(jb, family_E, factor, D):
    """sum_{|eta| <= D} factor(eta) w_eta F_eta(x) E_eta(y), w the kernel
    weight: a generating-function side written label by label."""
    n, al = jb.n, jb.alpha
    return linear_combination(2 * n, (
        (factor(eta) * al ** sum(eta) * jb.d_const(eta)
         / (jb.d_prime_const(eta) * jb.e_const(eta)),
         family_E(eta).embed(2 * n, 0) * jb.E(eta).embed(2 * n, n))
        for eta in comb.compositions_up_to(n, D)))


def _gf_cases(jb):
    """(family, up, down, y-scale, family factor) of the four generating
    functions, at a = 1/2 and c = 3/2."""
    lb = jb.laguerre(F(1, 2))
    aq = lb.shifted_a
    cq = F(3, 2) + 1 + F(jb.n - 1) / jb.alpha

    def sign(eta):
        return (-1) ** sum(eta)

    return {
        "hermite": (jb.hermite(), (), (), 2, lambda eta: 2 ** sum(eta)),
        "laguerre": (lb, (), (aq,), -1,
                     lambda eta: sign(eta) / jb.gen_fact(aq, eta)),
        "1k1": (lb, (cq,), (aq,), -1, lambda eta: sign(eta)
                * jb.gen_fact(cq, eta) / jb.gen_fact(aq, eta)),
        "ka-laguerre": (lb, (aq,), (aq,), -1, sign),
    }


@pytest.mark.parametrize("n, D", [(2, 4), (3, 3)])
@pytest.mark.parametrize("case", ["hermite", "laguerre", "1k1", "ka-laguerre"])
def test_family_factor_is_a_y_rescaling(n, D, case):
    """A family in the x slot of kernel_series, with y -> s y, is the
    per-label sum with the family factor s^|eta| times the up/down ratio."""
    jb = JackBasis(n, ALPHA)
    fb, up, down, s, factor = _gf_cases(jb)[case]
    got = kernel_series(jb, up, down, D, fb.E).scale_vars(s, range(n, 2 * n))
    assert got == _family_factor_sum(jb, fb.E, factor, D)


@pytest.mark.parametrize("n, D", [(2, 4), (3, 3)])
def test_equal_up_and_down_parameters_give_ka(n, D):
    jb = JackBasis(n, ALPHA)
    aq = jb.laguerre(F(1, 2)).shifted_a
    assert kernel_series(jb, (aq,), (aq,), D) == kernel_KA(jb, D)


def test_binomial_values(jack2):
    assert binomial_coeff(jack2, (1, 1), (1, 0)) == (ALPHA + 2) / (ALPHA + 1)
    assert binomial_coeff(jack2, (1, 1), (0, 1)) == ALPHA / (ALPHA + 1)
    assert binomial_coeff(jack2, (1, 1), (1, 1)) == 1
    assert binomial_coeff(jack2, (2, 1), (2, 1)) == 1
    assert binomial_coeff(jack2, (2, 1), (1, 2)) == 0
    assert binomial_coeff(jack2, (2, 1), (0, 0)) == 1
    assert binomial_coeff(jack2, (1, 0), (2, 0)) == 0


def test_binomial_n_independence():
    """The coefficient of zero-padded labels does not depend on n."""
    def coeff(eta, nu, alpha, n):
        pad = (0,) * (n - len(eta))
        return binomial_coeff(JackBasis(n, alpha), eta + pad, nu + pad)

    for eta, nu, alpha, n1, n2 in [
            ((1, 1), (1, 0), ALPHA, 2, 3), ((2, 0), (1, 0), ALPHA, 2, 4),
            ((2, 1), (1, 1), ALPHA, 2, 3), ((1, 0), (0, 0), F(3), 2, 5)]:
        assert coeff(eta, nu, alpha, n1) == coeff(eta, nu, alpha, n2)


def test_sym_binomial_degenerate(jack2):
    assert sym_binomial(jack2, (2, 1), (2, 1)) == 1
    assert sym_binomial(jack2, (2, 1), ()) == 1


@pytest.mark.parametrize("nu, match", [
    ((0,), "length"), ((0, 0, 0), "length"), ((-1, 2), "non-negative"),
    ((F(1, 2), 0), "integers")])
def test_binomial_rejects_a_foreign_lower_label(jack2, nu, match):
    with pytest.raises(ValueError, match=match):
        binomial_coeff(jack2, (1, 0), nu)


@pytest.mark.parametrize("sigma, match", [
    ((1, 0, 0), "length"), ((-1,), "non-negative")])
def test_sym_binomial_rejects_a_foreign_lower_label(jack2, sigma, match):
    with pytest.raises(ValueError, match=match):
        sym_binomial(jack2, (1,), sigma)


def test_exp_shift_univariate_classical():
    jb = JackBasis(1, F(3))
    rep = verify_kernel_identity("kernel-exp-shift", jb, 3)
    assert rep["status"] == "pass"


def test_2k1_degenerate_parameters(jack2):
    # equal upper and lower parameters collapse one ratio
    rep = verify_kernel_identity("2k1-pde", jack2, 3, a=F(5, 2), b=F(3, 2),
                                 c=F(5, 2))
    assert rep["status"] == "pass"


@pytest.mark.parametrize("name", sorted(IDENTITY_CHECKS))
def test_identity_suite_n2(name, jack2):
    rep = verify_kernel_identity(name, jack2, 4)
    assert rep["status"] == "pass", rep


def test_identity_suite_n3_spot():
    jb = JackBasis(3, F(1, 2))
    for name in ("kernel-symmetry-multiplication", "kernel-exp-shift",
                 "kernel-symmetrization", "laguerre-generating-function"):
        rep = verify_kernel_identity(name, jb, 3)
        assert rep["status"] == "pass", rep


def test_sum_rules_small(jack2):
    rep = check_binomial_sum_rules(jack2, 3)
    assert rep["status"] == "pass", rep


@pytest.mark.parametrize("eta, nu, at", [
    # the entry feeds a weighted sum of its lower label first
    ((2, 1), (1, 0), ((1, 0), (2, 1), True)),
    # the diagonal entry feeds the row's own plain sum first
    ((1, 1), (1, 1), ((1, 1), (1, 1), False)),
    ((0, 2, 1), (0, 1, 0), ((0, 1, 0), (2, 1), True)),
], ids=["weighted", "plain", "n3"])
def test_sum_rules_name_the_first_failing_orbit(eta, nu, at):
    """One entry of one row scaled by 3 fails the check, and the witness is
    the (eta, mu, weighted) the orbit-by-orbit sums, read one coefficient
    at a time, name first."""
    jb = JackBasis(len(eta), ALPHA)
    row = dict(jb.binomial_row(eta))
    row[nu] *= 3
    jb._consts["binomial", eta] = row
    rep = check_binomial_sum_rules(jb, 3)
    part = "weighted orbit sum" if at[2] else "orbit sum"
    assert rep["status"] == "fail"
    assert rep["params"] == {"D": 3}
    assert rep["witness"] == {"at": repr(at), "part": part}


def _bilinear_by_products(n, x_poly, y_poly, weight, labels, extra=0):
    """The bilinear sum as one product of embedded copies per label."""
    m = 2 * n + extra
    return linear_combination(m, (
        (weight(eta), x_poly(eta).embed(m, 0) * y_poly(eta).embed(m, n))
        for eta in labels))


@pytest.mark.parametrize("n, D", [(1, 4), (2, 3), (3, 2)])
def test_bilinear_sum_matches_the_products_of_embedded_copies(n, D):
    jb = JackBasis(n, ALPHA)
    hb = jb.hermite()
    labels = comb.compositions_up_to(n, D)

    def weight(eta):
        return F((-1) ** sum(eta) * (sum(eta) + 2), 3 + eta[0])

    assert _bilinear_sum(n, hb.E, jb.E, weight, labels) == \
        _bilinear_by_products(n, hb.E, jb.E, weight, labels)

    # G in n + 1 variables (t^|eta| in the last one) and one variable more
    # in the sum, as in the summation checks
    def G(eta):
        return hb.E(eta).embed(n + 1).mul_var(n, sum(eta))

    got = _bilinear_sum(n, hb.E, G, weight, labels, extra=1)
    assert got == _bilinear_by_products(n, hb.E, G, weight, labels, extra=1)
    assert got.n == 2 * n + 1 and not got.is_zero
    # G in n variables with one more in the sum: the last one stays free
    got = _bilinear_sum(n, jb.E, jb.E, weight, labels, extra=1)
    assert got == _bilinear_by_products(n, jb.E, jb.E, weight, labels,
                                        extra=1)
    assert all(e[-1] == 0 for e in got.terms)
    with pytest.raises(ValueError):
        _bilinear_sum(n, jb.E, G, weight, labels)


def test_unknown_identity_rejected(jack2):
    with pytest.raises(ValueError):
        verify_kernel_identity("no-such-identity", jack2, 2)


def test_kernel_block_swap_symmetry(jack2):
    K = kernel_KA(jack2, 4)
    swapped = K.permute_vars((2, 3, 0, 1))
    assert swapped == K


@pytest.mark.parametrize("alpha", [F(7, 5), F(1)])
def test_eps_eigenvalue_matches_the_per_part_sum(alpha):
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 6):
            kappa = comb.eta_plus(eta)
            want = sum(F(k * (k - 1)) + 2 * F(n - 1 - j) * k / alpha
                       for j, k in enumerate(kappa))
            got = eps_eigenvalue(eta, alpha)
            assert isinstance(got, F) and got == want, eta


def test_kernel_bound_sanity(jack2):
    """Truncated kernel values stay under exp(n X Y) plus truncation slack."""
    import math
    import random

    from nsjack.quadrature import evaluator

    rng = random.Random(7)
    D = 6
    f6 = evaluator(kernel_KA(jack2, D))
    f5 = evaluator(kernel_KA(jack2, D - 1))
    for _ in range(25):
        pt = [rng.random() for _ in range(4)]
        val = f6(*pt)
        slack = abs(val - f5(*pt))
        X = max(pt[:2])
        Y = max(pt[2:])
        assert val <= math.exp(2 * X * Y) + 10 * slack + 1e-9


def _wrong_E(jb):
    jb._cache[(2, 0)] = jb.E((2, 0)) + SparsePoly.monomial(2, (1, 1), F(1, 97))


def _wrong_d(jb):
    # the basis memo is the one source of d for every check
    jb.d_const((2, 0))
    jb._consts["d", (2, 0)] *= F(98, 97)


def test_mutation_probe_fails_every_check_but_one_cancellation():
    """A wrong E((2, 0)) and a wrong d_(2,0) must each fail every kernel
    check at n = 2, D = 4.  The one survivor is laguerre-jack-expansion under
    the wrong d: its binomial coefficients carry E(1^n) = e/d, so d cancels
    between its two sides."""
    survivors = []
    for mutation in (_wrong_E, _wrong_d):
        for name in IDENTITY_CHECKS:
            jb = JackBasis(2, ALPHA)
            mutation(jb)
            rep = verify_kernel_identity(name, jb, 4, a=F(1, 2))
            if rep["status"] != "fail":
                survivors.append((mutation.__name__, name))
    assert survivors == [("_wrong_d", "laguerre-jack-expansion")]
