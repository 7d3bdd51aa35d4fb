"""Kernels, binomial coefficients, and the truncated identity suite."""

from fractions import Fraction as F
from math import factorial

import pytest

from nsjack.jack import JackBasis
from nsjack.kernels import (IDENTITY_CHECKS, binomial_coeff,
                            binomial_n_independence, check_binomial_sum_rules,
                            hyper_0F0, kernel_2K1, kernel_KA, kernel_slices,
                            sym_binomial, verify_kernel_identity)
from nsjack.poly import SparsePoly

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
    import nsjack.combinat as comb

    K = kernel_KA(jack2, 1)
    slice1 = kernel_slices(K, 2, 1)[1]
    want = SparsePoly.zero(4)
    for eta in [(1, 0), (0, 1)]:
        coeff = ALPHA * comb.d_const(eta, ALPHA) / (
            comb.d_prime_const(eta, ALPHA) * comb.e_const(eta, ALPHA))
        E = jack2.E(eta)
        from nsjack.kernels import bilinear

        want = want + coeff * bilinear(E, E, 2)
    assert slice1 == want


def test_singular_parameter_rejected(jack2):
    with pytest.raises(ValueError):
        kernel_2K1(jack2, F(1, 2), F(1, 2), F(0), 2)


def test_binomial_values(jack2):
    assert binomial_coeff(jack2, (1, 1), (1, 0)) == (ALPHA + 2) / (ALPHA + 1)
    assert binomial_coeff(jack2, (1, 1), (0, 1)) == ALPHA / (ALPHA + 1)
    assert binomial_coeff(jack2, (1, 1), (1, 1)) == 1
    assert binomial_coeff(jack2, (2, 1), (2, 1)) == 1
    assert binomial_coeff(jack2, (2, 1), (1, 2)) == 0
    assert binomial_coeff(jack2, (2, 1), (0, 0)) == 1
    assert binomial_coeff(jack2, (1, 0), (2, 0)) == 0


def test_binomial_n_independence():
    for eta, nu, n1, n2 in [((1, 1), (1, 0), 2, 3), ((2, 0), (1, 0), 2, 4),
                            ((2, 1), (1, 1), 2, 3)]:
        rep = binomial_n_independence(eta, nu, ALPHA, n1, n2)
        assert rep["status"] == "pass", rep
    rep = binomial_n_independence((1, 0), (0, 0), F(3), 2, 5)
    assert rep["status"] == "pass"
    with pytest.raises(ValueError):
        binomial_n_independence((1, 1), (1, 0), ALPHA, 1, 3)


def test_sym_binomial_degenerate(jack2):
    assert sym_binomial(jack2, (2, 1), (2, 1)) == 1
    assert sym_binomial(jack2, (2, 1), ()) == 1


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


def test_unknown_identity_rejected(jack2):
    with pytest.raises(ValueError):
        verify_kernel_identity("no-such-identity", jack2, 2)


def test_kernel_block_swap_symmetry(jack2):
    K = kernel_KA(jack2, 4)
    swapped = K.permute_vars((2, 3, 0, 1))
    assert swapped == K


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
