"""Hermite- and Laguerre-type families: construction, ladders, norms."""

from fractions import Fraction as F

import pytest

import label_reference as ref
import nsjack.combinat as comb
from nsjack.hermite_laguerre import (HermiteBasis, LaguerreBasis,
                                     laguerre_1d_coeffs)
from nsjack.jack import JackBasis
from nsjack.poly import SparsePoly, linear_combination, power_sum
from nsjack.suites import suite_hermite, suite_laguerre

ALPHA = F(7, 5)


@pytest.fixture(scope="module")
def jack2():
    return JackBasis(2, ALPHA)


def test_hermite_low_degree(jack2):
    hb = HermiteBasis(jack2)
    assert hb.E((1, 0)) == jack2.E((1, 0))
    assert hb.E((1, 1)) == jack2.E((1, 1)) + SparsePoly.constant(
        2, F(1, 2) / ALPHA)


def test_laguerre_low_degree(jack2):
    a = F(1, 2)
    lb = LaguerreBasis(jack2, a)
    q = 1 + 1 / ALPHA
    shift = -(a + q) * (ALPHA + 2) / (ALPHA + 1)
    assert lb.E((1, 0)) == jack2.E((1, 0)) + SparsePoly.constant(2, shift)
    assert lb.at_zero((1, 0)) == shift
    assert lb.at_zero((0, 0)) == 1
    got = lb.at_zero((1, 1))
    assert got == lb.E((1, 1)).eval_exact([0, 0])


def test_x_squared_serialization(jack2):
    lb = LaguerreBasis(jack2, F(1, 2))
    p = lb.E((1, 0)).scale_exponents(2)
    assert set(p.terms) == {(2, 0), (0, 2), (0, 0)}


def test_norm_ratios(jack2):
    hb = HermiteBasis(jack2)
    assert hb.norm_ratio((0, 0)) == 1
    assert hb.norm_ratio((1, 0)) == (ALPHA + 2) / (2 * (ALPHA + 1))
    a = F(1, 2)
    lb = LaguerreBasis(jack2, a)
    q = 1 + 1 / ALPHA
    assert lb.norm_ratio((0, 0)) == 1
    assert lb.norm_ratio((1, 0)) == (a + q) * (ALPHA + 2) / (ALPHA + 1)


@pytest.mark.parametrize("a", [-1, F(-3, 2), -2])
def test_laguerre_norm_needs_integrable_weight(jack2, a):
    lb = LaguerreBasis(jack2, a)
    with pytest.raises(ValueError, match="a > -1"):
        lb.norm_ratio((0, 0))
    assert lb.E((0, 0)) == SparsePoly.one(2)
    assert LaguerreBasis(jack2, F(-1, 2)).norm_ratio((0, 0)) == 1


def test_ladder_actions(jack2):
    hb = HermiteBasis(jack2)
    assert hb.raise_op((0, 0)) == 2 * SparsePoly.variable(2, 1)
    assert hb.lower_op((1, 0)).is_zero
    assert hb.lower_constant((1, 0)) == 0
    lb = LaguerreBasis(jack2, F(1, 2))
    assert lb.raise_op((0, 0)) == lb.E((0, 1))
    assert lb.lower_op((2, 0)).is_zero
    got = lb.lower_op((1, 1))
    assert got == lb.lower_constant((1, 1)) * lb.E((0, 1))


def test_pairing_examples(jack2):
    hb = HermiteBasis(jack2)
    assert hb.pairing(SparsePoly.one(2), SparsePoly.one(2)) == 1
    E10 = jack2.E((1, 0))
    want = (ref.d_prime_const((1, 0), ALPHA) * ref.e_const((1, 0), ALPHA)
            / ref.d_const((1, 0), ALPHA) / ALPHA)
    assert hb.pairing(E10, E10) == want
    assert hb.pairing(E10, jack2.E((0, 1))) == 0
    assert hb.pairing(E10, jack2.E((2, 0))) == 0  # different degrees
    with pytest.raises(ValueError):
        hb.pairing(E10 + SparsePoly.one(2), E10)


def test_harmonic_single_component(jack2):
    hb = HermiteBasis(jack2)
    comps = hb.harmonic_components((1, 0))
    assert len(comps) == 1
    assert comps[0][0] == 0
    assert comps[0][1] == jack2.E((1, 0))


@pytest.mark.parametrize("family, eta, calls", [
    ("hermite", (0, 0, 4), 2), ("laguerre", (0, 0, 4), 4),
    ("hermite", (3, 0, 3), 3), ("laguerre", (3, 0, 3), 6),
])
def test_harmonic_components_apply_each_laplacian_power_once(
        family, eta, calls):
    """One decomposition forms lap^t E_eta for t = 1 .. |eta| // rho once
    each, rho being the radius degree (2 for Hermite, 1 for Laguerre)."""
    jb = JackBasis(3, ALPHA)
    fb = jb.hermite() if family == "hermite" else jb.laguerre(F(1, 2))
    right = fb.laplacian
    seen = []

    def counted(p):
        seen.append(p)
        return right(p)

    fb.laplacian = counted
    fb.harmonic_components(eta)
    assert len(seen) == calls == sum(eta) // fb.radius_degree


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_harmonic_rebuild_is_exact_through_weight_8(family):
    """Weight 8 runs the Laguerre decomposition through 9 components, past
    the weight 4 that the family suites reach."""
    jb = JackBasis(2, ALPHA)
    fb = jb.hermite() if family == "hermite" else jb.laguerre(F(1, 2))
    r = power_sum(2, fb.radius_degree)
    etas = comb.compositions_up_to(2, 8)
    assert len(etas) == 45
    for eta in etas:
        comps = fb.harmonic_components(eta)
        assert all(fb.laplacian(c).is_zero for _, c in comps), eta
        assert linear_combination(
            2, ((1, r ** m * c) for m, c in comps)) == jb.E(eta), eta
        assert fb.from_harmonics(eta) == fb.E(eta), eta


def test_classical_laguerre_coeffs():
    # degree 1: 1 + a - t
    a = F(1, 3)
    assert laguerre_1d_coeffs(1, a) == [1 + a, -1]
    # degree 2: (a+1)(a+2)/2 - (a+2) t + t^2/2
    assert laguerre_1d_coeffs(2, a) == [(a + 1) * (a + 2) / 2, -(a + 2),
                                        F(1, 2)]


def test_hermite_suite_small():
    reports = suite_hermite(alphas=(ALPHA,), max_weight=4, max_n=3)
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]


def test_laguerre_suite_small():
    reports = suite_laguerre(alphas=(ALPHA,), max_weight=3, max_n=3,
                             a_set=(F(1, 2),))
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]
