"""Numeric layer: classical reductions, normalizations, transforms."""

from fractions import Fraction as F
from math import gamma, pi, sqrt

import pytest

from nsjack.hermite_laguerre import HermiteBasis, LaguerreBasis
from nsjack.jack import JackBasis
from nsjack.quadrature import (check_classical_reductions, check_gram_H,
                               check_gram_L, check_ground_state_H,
                               check_ground_state_L, check_hermite_transform,
                               check_hermite_transform_imaginary,
                               check_laguerre_transform,
                               check_laplace_transform, evaluator,
                               gaussian_weighted_integral, ground_state_H,
                               ground_state_L, laguerre_weighted_integral)


def one(*xs):
    return 1.0


def test_classical_values():
    assert abs(gaussian_weighted_integral(one, 1, 0, 1) - sqrt(pi)) < 1e-12
    assert abs(laguerre_weighted_integral(one, 1, F(1, 2), 0, 1)
               - gamma(1.5)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_integrand_is_called_once_on_all_nodes(n):
    calls = []

    def h(*xs):
        calls.append(len(xs))
        return xs[0] ** 0

    gaussian_weighted_integral(h, F(3, 2), 6, n)
    laguerre_weighted_integral(h, F(3, 2), F(1, 2), 6, n)
    assert calls == [n, n]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [1, 2, F(7, 5), F(1, 3)])
def test_first_moments_are_the_harmonic_constants(n, alpha):
    """The mean of p_2 under the Gaussian measure is the Hermite gamma,
    n/2 + n(n-1)/(2 alpha); the mean of p_1 under the Laguerre-type measure
    is the Laguerre gamma, n(a+1) + n(n-1)/alpha."""
    jb = JackBasis(n, alpha)
    p2 = lambda *xs: sum(x * x for x in xs)
    mean = (gaussian_weighted_integral(p2, alpha, 2, n)
            / gaussian_weighted_integral(one, alpha, 0, n))
    assert mean == pytest.approx(float(jb.hermite().gamma), rel=1e-12)
    for a in (0, F(1, 2)):
        mean = (laguerre_weighted_integral(lambda *ys: sum(ys), alpha, a, 1, n)
                / laguerre_weighted_integral(one, alpha, a, 0, n))
        assert mean == pytest.approx(float(jb.laguerre(a).gamma), rel=1e-12)


def test_classical_reduction_reports():
    for rep in check_classical_reductions():
        assert rep["status"] == "pass", rep


@pytest.mark.parametrize("n", [1, 2])
def test_complex_integrand_gives_complex_integral(n):
    """A constant complex integrand integrates to itself times the mass:
    (1+1j) sqrt(pi) and (1+1j) Gamma(a+1) at n = 1."""
    alpha, a = F(3, 2), F(1, 2)
    h = lambda *xs: (1 + 1j) * xs[0] ** 0
    got_h = gaussian_weighted_integral(h, alpha, 0, n)
    got_l = laguerre_weighted_integral(h, alpha, a, 0, n)
    want_h, want_l = ground_state_H(n, alpha), ground_state_L(n, alpha, a)
    if n == 1:
        assert (want_h, want_l) == (pytest.approx(sqrt(pi)),
                                    pytest.approx(gamma(1.5)))
    assert complex(got_h) == pytest.approx((1 + 1j) * want_h, rel=1e-12)
    assert complex(got_l) == pytest.approx((1 + 1j) * want_l, rel=1e-12)
    assert isinstance(got_h, complex) and got_h.imag != 0
    assert got_l.imag != 0


@pytest.mark.parametrize("alpha", [1, 2, F(3, 2)])
def test_ground_states_n2(alpha):
    assert check_ground_state_H(2, alpha)["values"]["rel_err"] < 1e-12
    for a in (0, F(1, 2), 1):
        assert check_ground_state_L(2, alpha, a)["values"]["rel_err"] < 1e-12


def test_ground_state_formula_values():
    # closed forms at unit coupling
    assert abs(ground_state_H(2, 1) - pi) < 1e-14
    assert abs(ground_state_L(2, 1, 0) - 2.0) < 1e-14


def test_gram_small():
    jb = JackBasis(2, F(3, 2))
    hb = HermiteBasis(jb)
    for rep in check_gram_H(hb, 2):
        assert rep["status"] == "pass", rep
    lb = LaguerreBasis(jb, F(1, 2))
    for rep in check_gram_L(lb, 2):
        assert rep["status"] == "pass", rep


def test_transforms_small():
    jb = JackBasis(2, 1)
    hb = HermiteBasis(jb)
    lb = LaguerreBasis(jb, F(1, 2))
    for eta in [(0, 0), (1, 1)]:
        assert check_hermite_transform(hb, eta, 6)["status"] == "pass"
        assert check_hermite_transform_imaginary(hb, eta, 6)["status"] == "pass"
        assert check_laguerre_transform(lb, eta, 6)["status"] == "pass"
        for which in ("laguerre", "jack"):
            assert check_laplace_transform(lb, eta, which)["status"] == "pass"


def test_transform_truncation_below_the_label_is_rejected():
    """Truncated below |eta|, both kernel levels miss eta and both
    integrals vanish: no tolerance then means anything."""
    from nsjack import suites

    jb = JackBasis(2, 1)
    hb = HermiteBasis(jb)
    with pytest.raises(ValueError, match=r"D = 2 .*\|eta\| = 3"):
        check_hermite_transform(hb, (2, 1), 2)
    with pytest.raises(ValueError, match="D = 0"):
        suites.suite_numeric(alphas=(1,), a_set=(F(1, 2),), max_weight=0,
                             D=0)


def test_selberg_ratio_spot():
    from nsjack.quadrature import check_selberg_ratio

    jb = JackBasis(2, F(1, 2))
    for eta in [(0, 0), (1, 0), (2, 1)]:
        for lam1, lam2 in ((F(1, 2), 0), (F(2), 2)):
            rep = check_selberg_ratio(jb, eta, lam1, lam2)
            assert rep["status"] == "pass", rep
    with pytest.raises(ValueError):
        check_selberg_ratio(jb, (1, 0), F(1), F(1, 2))


def test_refinement_montonicity():
    jb = JackBasis(2, F(3, 2))
    hb = HermiteBasis(jb)
    p = hb.E((2, 1)) * hb.E((2, 1))
    v6, v12, v24 = (gaussian_weighted_integral(
        evaluator(p), F(3, 2), p.total_degree(), 2, npts=N)
        for N in (6, 12, 24))
    assert abs(v24 - v12) <= abs(v12 - v6) + 1e-13


@pytest.mark.parametrize("cls, failing", [
    (HermiteBasis, "gaussian-gram-diagonal"),
    (LaguerreBasis, "laguerre-gram-diagonal"),
])
def test_wrong_norm_ratio_fails_only_its_family_diagonal(monkeypatch, cls,
                                                         failing):
    right = cls.norm_ratio

    def wrong(self, eta):
        value = right(self, eta)
        return 2 * value if sum(eta) == 1 else value

    monkeypatch.setattr(cls, "norm_ratio", wrong)
    jb = JackBasis(2, F(3, 2))
    reports = (check_gram_H(jb.hermite(), 1)
               + check_gram_L(jb.laguerre(F(1, 2)), 1))
    assert {r["check"] for r in reports if r["status"] == "fail"} == {failing}
