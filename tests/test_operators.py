"""Operator actions: worked examples plus the algebra-identity suite."""

from fractions import Fraction as F

import pytest

from nsjack.operators import (Operators, divide_by_difference,
                              divided_difference)
from nsjack.poly import SparsePoly
from nsjack.suites import suite_operators

x0 = SparsePoly.variable(2, 0)
x1 = SparsePoly.variable(2, 1)


def test_transposition_and_sign_flip():
    ops = Operators(2, 1)
    assert ops.s(SparsePoly.monomial(2, (2, 1)), 0) == SparsePoly.monomial(2, (1, 2))
    assert ops.sign_flip(x0 + x1, 0) == -x0 + x1
    assert ops.s(x0 + x1, 0) == x0 + x1


def test_divided_difference():
    assert divided_difference(x0 ** 2, 0, 1) == x0 + x1
    assert divided_difference(x0 * x1, 0, 1).is_zero
    assert divided_difference(x0 ** 2 * x1, 0, 1) == x0 * x1


def test_divide_by_difference():
    p = (x0 - x1) * (x0 ** 2 + 3 * x1)
    assert divide_by_difference(p, 0, 1) == x0 ** 2 + 3 * x1
    with pytest.raises(ArithmeticError):
        divide_by_difference(x0, 0, 1)


def test_dunkl_examples():
    al = F(7, 5)
    ops = Operators(2, al)
    assert ops.dunkl(x0 * x1, 0) == x1
    assert ops.dunkl(SparsePoly.one(2), 0).is_zero
    assert ops.dunkl(x0, 0) == SparsePoly.constant(2, 1 + 1 / al)


def test_cherednik_examples():
    al = F(7, 5)
    for n in (2, 3):
        ops = Operators(n, al)
        one = SparsePoly.one(n)
        for i in range(n):
            assert ops.cherednik(one, i) == -i * one
    ops = Operators(2, al)
    assert ops.cherednik(x1, 0) == -x1
    assert ops.cherednik(x0, 0) == al * x0 + x1


def test_laplacian_examples():
    al = F(7, 5)
    ops = Operators(2, al)
    assert ops.laplacian_A(x0 * x1) == SparsePoly.constant(2, -2 / al)
    assert ops.laplacian_A(x0 + 5 * x1 + 3).is_zero
    ops1 = Operators(1, al)
    y = SparsePoly.variable(1, 0)
    assert ops1.laplacian_A(y * y) == SparsePoly.constant(1, 2)


def test_raising_lowering_examples():
    al = F(7, 5)
    ops = Operators(2, al)
    assert ops.phi(SparsePoly.one(2)) == x1
    assert ops.phi_hat(x1) == SparsePoly.constant(2, 1 + 1 / al)
    assert ops.phi_hat_star(SparsePoly.one(2)) == 2 * x1


def test_b_operator_examples():
    al, a = F(7, 5), F(1, 2)
    ops = Operators(2, al, a=a)
    f = x0 + x1 / (al + 1)
    assert ops.b_op(f, 1).is_zero
    want = (a + 1 + 1 / al) * (al + 2) / (al + 1)
    assert ops.b_op(f, 0) == SparsePoly.constant(2, want)
    assert ops.b_op(SparsePoly.one(2), 0).is_zero


def test_dunkl_b_even_and_cherednik_alias():
    al = F(7, 5)
    ops1 = Operators(1, al)
    y = SparsePoly.variable(1, 0)
    # one variable: 2x * d/dy of y^k at y = x^2
    assert ops1.dunkl_B_even(y ** 3, 0) == SparsePoly.monomial(1, (5,), 6)
    ops = Operators(2, al, a=F(1, 2))
    p = SparsePoly.variable(2, 0)
    assert ops.cherednik_hat(p, 0) == ops.cherednik(p, 0)


def test_psi_examples():
    al, a = F(7, 5), F(1, 2)
    ops = Operators(2, al, a=a)
    assert ops.psi(SparsePoly.one(2)) == x1
    assert ops.psi_hat(SparsePoly.constant(2, 5)).is_zero
    ops_b = Operators(3, al, a=a)
    assert ops_b.psi(SparsePoly.one(3)) == SparsePoly.variable(3, 2)


def test_type_b_requires_parameter():
    ops = Operators(2, 1)
    with pytest.raises(ValueError):
        ops.b_op(x0, 0)


def test_euler_examples():
    ops = Operators(2, F(7, 5))
    p = SparsePoly.monomial(2, (2, 1))
    assert ops.euler(p, 1) == 3 * p
    assert ops.euler(x0 + x1, 0) == SparsePoly.constant(2, 2)


def test_d2_tilde_eigen_spot():
    from nsjack.jack import JackBasis

    jb = JackBasis(2, 1)
    E = jb.E((1, 0))
    assert jb.ops.d2_tilde(E) == 2 * E


def test_h_l_on_constants():
    al, a = F(7, 5), F(1, 2)
    ops = Operators(3, al, a=a)
    one = SparsePoly.one(3)
    for i in range(3):
        assert ops.h_op(one, i) == -i * one
        assert ops.l_op(one, i) == -i * one


def test_operator_identity_suite():
    reports = suite_operators(alphas=(F(7, 5), F(1, 2)), max_weight=5, max_n=3)
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]
