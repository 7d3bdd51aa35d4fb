"""Constant-term inner product, Selberg-type ratios, power-sum pairing."""

from fractions import Fraction as F

import pytest

import label_reference as ref
import nsjack.combinat as comb
from nsjack.cterm import (SahiInner, ct_inner, ct_norm_formula,
                          interaction_weight, kadell_ratio_check,
                          norm_relation_check, power_sum_basis, weighted_ct)
from nsjack.hermite_laguerre import HermiteBasis
from nsjack.jack import JackBasis
from nsjack.poly import SparsePoly
from nsjack.suites import suite_ct, suite_sahi


def test_ct_inner_spots():
    one = SparsePoly.one(2)
    assert ct_inner(one, one, 1) == 2
    jb = JackBasis(2, 1)
    E = jb.E((1, 0))
    assert ct_inner(E, E, 1) == F(3, 2)
    assert ct_inner(E, jb.E((0, 1)), 1) == 0


def test_ct_inner_rejects_bad_coupling():
    one = SparsePoly.one(2)
    with pytest.raises(ValueError):
        ct_inner(one, one, 0)
    with pytest.raises(ValueError):
        ct_inner(one, SparsePoly.one(3), 1)


@pytest.mark.parametrize("k", [0, -1, F(3, 2), 1.5])
def test_coupling_is_checked_before_the_weight(k):
    one = SparsePoly.one(2)
    for call in (lambda: interaction_weight(2, k), lambda: weighted_ct(one, k),
                 lambda: ct_inner(one, one, k)):
        with pytest.raises(ValueError, match="integer coupling k >= 1"):
            call()


def test_norm_formula_spots():
    assert ct_norm_formula((1, 0), 1) == F(3, 2)
    assert ct_norm_formula((0, 0), 1) == 2
    jb = JackBasis(2, 1)
    E = jb.E((0, 1))
    assert ct_norm_formula((0, 1), 1) == ct_inner(E, E, 1)


def test_kadell_spots():
    jb = JackBasis(2, 1)
    rep = kadell_ratio_check(jb, (0, 0), 1, 1, 1)
    values = rep["values"]
    assert rep["status"] == "pass" and values["lhs"] == values["rhs"]
    rep = kadell_ratio_check(jb, (1, 0), 1, 1, 1)
    assert rep["status"] == "pass"
    # b = 0 forces both sides to vanish for a nonzero label
    rep = kadell_ratio_check(jb, (1, 0), 2, 0, 1)
    assert rep["status"] == "pass" and rep["values"]["lhs"] == "0"


def test_norm_relation_spots():
    jb = JackBasis(2, 1)
    for eta in [(0, 0), (1, 0), (1, 1)]:
        rep = norm_relation_check(jb, eta, 1)
        assert rep["status"] == "pass", rep


def test_power_sum_univariate():
    ps = power_sum_basis(1, 1, 4)
    for k in range(5):
        assert ps[(k,)] == SparsePoly.monomial(1, (k,), k + 1)


def test_sahi_inner_on_basis():
    alpha = F(7, 5)
    jb = JackBasis(2, alpha)
    si = SahiInner(2, alpha, 3)
    for eta in comb.compositions_up_to(2, 3):
        for nu in comb.compositions_up_to(2, 3):
            if sum(eta) != sum(nu):
                continue
            got = si.inner(jb.E(eta), jb.E(nu))
            want = (ref.d_prime_const(eta, alpha) / ref.d_const(eta, alpha)
                    if eta == nu else 0)
            assert got == want


def test_sahi_inner_rejects_monomials_outside_the_table():
    si = SahiInner(2, F(7, 5), 3)
    x0 = SparsePoly.variable(2, 0)
    laurent = SparsePoly.monomial(2, (2, -1))
    for f, g in ((laurent, x0), (laurent + x0, x0), (x0, laurent + x0)):
        with pytest.raises(ValueError, match="outside the degree-1 table"):
            si.inner(f, g)
    with pytest.raises(ValueError, match="homogeneous"):
        si.inner(x0 * x0 + SparsePoly.variable(2, 1), x0 * x0)


def test_sahi_cell_solves_each_weight_once(monkeypatch):
    """One n = 3, weight <= 3 cell solves one system per monomial of each
    weight, 1 + 3 + 6 + 10 = 20, and none per inner product."""
    from nsjack import cterm, suites

    calls = []
    solve = cterm.solve_exact
    monkeypatch.setattr(cterm, "solve_exact",
                        lambda *args: calls.append(1) or solve(*args))
    reports = suites._sahi_checks(JackBasis(3, F(7, 5)), 3)
    assert [r["status"] for r in reports] == ["pass", "pass"]
    assert len(calls) <= 20


def test_pairing_proportional_to_sahi():
    alpha = F(2)
    jb = JackBasis(2, alpha)
    hb = HermiteBasis(jb)
    si = SahiInner(2, alpha, 2)
    lam = (1, 0)
    f = jb.E((1, 0))
    g = jb.E((0, 1))
    fac = ref.gen_fact(F(2) / alpha + 1, lam, alpha)
    assert hb.pairing(f, g) == fac * si.inner(f, g)
    assert hb.pairing(f, f) == fac * si.inner(f, f)


def test_ct_suite_small():
    reports = suite_ct(k_set=(1, 2), max_weight=2, max_n=2)
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]


def test_sahi_suite_small():
    reports = suite_sahi(alphas=(F(7, 5),), max_weight=2, max_n=2)
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]
