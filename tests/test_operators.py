"""Operator actions: worked examples plus the algebra-identity suite."""

from fractions import Fraction as F

import pytest

from nsjack.operators import (Operators, divide_by_difference,
                              divided_difference)
from nsjack.poly import SparsePoly, linear_combination
from nsjack.suites import suite_operators

x0 = SparsePoly.variable(2, 0)
x1 = SparsePoly.variable(2, 1)


def test_transposition():
    ops = Operators(2, 1)
    assert ops.s(SparsePoly.monomial(2, (2, 1)), 0) == SparsePoly.monomial(2, (1, 2))
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
    q = x0 / 3 + F(1, 2) * x1 ** 2
    assert divide_by_difference((x0 - x1) * q, 0, 1) == q
    with pytest.raises(ArithmeticError):
        divide_by_difference((x0 - x1) * q + F(1, 6), 0, 1)


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


# -- the per-instance image cache ---------------------------------------

MEMOIZED = {
    # operator name: index arguments it is applied with
    "dunkl": [(0,), (1,), (2,)],
    "cherednik": [(0,), (2,)],
    "cherednik_direct": [(0,), (2,)],
    "laplacian_A": [()],
    "phi_hat": [()],
    "phi_hat_star": [()],
    "h_op": [(0,), (1,)],
    "euler": [(0,), (1,), (2,)],
    "d1_tilde": [()],
    "d2_tilde": [()],
    "b_op": [(0,), (2,)],
    "laplacian_B": [()],
    "l_op": [(0,), (1,)],
    "psi_hat": [()],
    "psi_hat_star": [()],
}


def _mixed_polys():
    def mono(*e):
        return SparsePoly.monomial(3, e)

    return [
        mono(2, 1, 0) - F(3, 7) * mono(0, 1, 1) + 5,
        F(1, 2) * mono(1, 0, 2) + mono(2, 1, 0) + mono(0, 0, 3),
        mono(1, 1, 1) - mono(2, 0, 0) + F(2, 3) * mono(0, 2, 1),
    ]


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_warmed_instance_matches_fresh_instance(name):
    polys = _mixed_polys()
    warm = Operators(3, F(7, 5), a=F(1, 2))
    # warm the cache with every monomial of every test polynomial, and with
    # the polynomials themselves, so that later calls are pure cache hits
    for idx in MEMOIZED[name]:
        for p in polys:
            for e in p.terms:
                getattr(warm, name)(SparsePoly.monomial(3, e), *idx)
            getattr(warm, name)(p, *idx)
    for idx in MEMOIZED[name]:
        for p in polys:
            fresh = Operators(3, F(7, 5), a=F(1, 2))
            assert getattr(warm, name)(p, *idx) == getattr(fresh, name)(p, *idx)


def test_images_do_not_leak_between_instances():
    p = SparsePoly.monomial(3, (2, 0, 1))
    q = SparsePoly.monomial(6, (2, 0, 1, 1, 0, 2))
    instances = [Operators(3, F(7, 5), a=F(1, 2)), Operators(3, 2, a=F(1, 2)),
                 Operators(3, F(7, 5), a=1)]
    got = [(ops.b_op(p, 0), ops.l_op(p, 1), ops.dunkl(p, 0)) for ops in instances]
    for ops, want in zip(instances, got):
        # a fresh instance with the same parameters agrees with the one
        # used amid the others
        twin = Operators(ops.n, ops.alpha, a=ops.a)
        assert (twin.b_op(p, 0), twin.l_op(p, 1), twin.dunkl(p, 0)) == want
    # alpha changes the Dunkl image, a changes the B image
    assert got[0][2] != got[1][2]
    assert got[0][0] != got[2][0]
    # the same exponent vector under two blocks of one ambient space
    left = Operators(3, F(7, 5), block=range(3))
    right = Operators(3, F(7, 5), block=range(3, 6))
    assert left.dunkl(q, 0) != right.dunkl(q, 0)
    assert right.dunkl(q, 0) == Operators(3, F(7, 5), block=range(3, 6)).dunkl(q, 0)
    assert left.dunkl(q, 0) == Operators(3, F(7, 5), block=range(3)).dunkl(q, 0)


def test_cherednik_forms_do_not_share_images(monkeypatch):
    """A wrong direct form must fail the cross-check even when it goes
    through the same image cache as the composed form."""
    from nsjack.operators import _linear

    right = Operators.cherednik_direct

    @_linear
    def cherednik_direct(self, p, i):
        return right(self, p, i) + self._x(p, i)

    monkeypatch.setattr(Operators, "cherednik_direct", cherednik_direct)
    reports = suite_operators(alphas=(F(7, 5),), max_weight=1, max_n=3)
    forms = [r for r in reports if r["check"] == "cherednik-forms-agree"]
    assert forms and all(r["status"] == "fail" and "witness" in r
                         for r in forms)


def _block_poly(n, terms):
    return linear_combination(n, ((c, SparsePoly.monomial(n, e[:n]))
                                  for e, c in terms))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_block_instances_act_linearly_over_the_passive_variables(n, name):
    """On x (block 0..n-1), y (block n..2n-1) and a Laurent variable t, an
    operator on the x block maps f(x) g(y) t^k to (its n-variable image of
    f) g(y) t^k, and one on the y block maps it to f(x) (image of g) t^k."""
    al, a, total = F(7, 5), F(1, 2), 2 * n + 1
    f = _block_poly(n, [((2, 1, 0), F(3, 4)), ((0, 1, 2), -2),
                        ((1, 0, 1), F(1, 3)), ((0, 0, 0), 5)])
    g = _block_poly(n, [((1, 2, 1), F(-5, 2)), ((3, 0, 0), 1),
                        ((0, 2, 0), F(2, 7))])
    fx, gy = f.embed(total, 0), g.embed(total, n)
    p = (fx * gy).mul_var(2 * n, -2)
    full = Operators(n, al, a=a)
    on_x = Operators(n, al, a=a, block=range(n))
    on_y = Operators(n, al, a=a, block=range(n, 2 * n))
    for idx in MEMOIZED[name]:
        if any(i >= n for i in idx):
            continue
        f_image = getattr(full, name)(f, *idx)
        g_image = getattr(full, name)(g, *idx)
        want_x = f_image.embed(total, 0) * gy
        want_y = fx * g_image.embed(total, n)
        assert getattr(on_x, name)(p, *idx) == want_x.mul_var(2 * n, -2)
        assert getattr(on_y, name)(p, *idx) == want_y.mul_var(2 * n, -2)
        # the cached images are the block's, so they also serve other
        # ambient variable counts: f alone (the whole space for on_x) and
        # f(x) g(y) without t
        assert getattr(on_x, name)(f, *idx) == f_image
        fx2 = f.embed(2 * n)
        assert getattr(on_y, name)(fx2 * g.embed(2 * n, n), *idx) == (
            fx2 * g_image.embed(2 * n, n))


@pytest.mark.parametrize("name, block", [("d1_tilde", range(3)),
                                         ("dunkl", range(3, 6))])
def test_block_instance_derives_one_image_per_block_exponent(name, block):
    from nsjack.jack import JackBasis
    from nsjack.kernels import kernel_KA

    K = kernel_KA(JackBasis(3, F(7, 5)), 4)
    ops = Operators(3, F(7, 5), block=block)
    idx = (0,) if name == "dunkl" else ()
    got = getattr(ops, name)(K, *idx)
    # 371 terms, 35 distinct exponents (x-degree <= 4) on either block
    assert len(K.terms) == 371
    assert len({e[block.start:block.stop] for e in K.terms}) == 35
    assert sum(1 for key in ops._images if key[0] == name) == 35
    # each term through an instance of its own, so no image is shared
    assert got == linear_combination(6, (
        (c, getattr(Operators(3, F(7, 5), block=block), name)(
            SparsePoly.monomial(6, e), *idx))
        for e, c in K.terms.items()))


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_on_block_views_share_the_table_and_give_whole_space_images(name):
    """A view at the same (n, alpha, a) on a block of 2n + 1 variables
    writes into its instance's table, and an image it derives there is the
    one the whole-space instance returns."""
    al, a, n = F(7, 5), F(1, 2), 3
    full = Operators(n, al, a=a)
    on_x, on_y = full.on_block(range(n)), full.on_block(range(n, 2 * n))
    assert on_x._images is full._images is on_y._images
    assert (on_y.n, on_y.alpha, on_y.a, on_y.vars) == (n, al, a, (3, 4, 5))
    f = _block_poly(n, [((2, 1, 0), F(3, 4)), ((0, 1, 2), -2),
                        ((1, 0, 1), F(1, 3)), ((0, 0, 0), 5)])
    g = _block_poly(n, [((1, 2, 1), F(-5, 2)), ((3, 0, 0), 1)])
    total = 2 * n + 1
    p = (f.embed(total, 0) * g.embed(total, n)).mul_var(2 * n, -1)
    for idx in MEMOIZED[name]:
        # the views derive first, then the whole space reads their images
        got_x = getattr(on_x, name)(p, *idx)
        got_y = getattr(on_y, name)(p, *idx)
        derived = len(full._images)
        f_image = getattr(full, name)(f, *idx)
        g_image = getattr(full, name)(g, *idx)
        assert len(full._images) == derived
        fresh = Operators(n, al, a=a)
        assert f_image == getattr(fresh, name)(f, *idx)
        assert g_image == getattr(fresh, name)(g, *idx)
        assert got_x == (f_image.embed(total, 0)
                         * g.embed(total, n)).mul_var(2 * n, -1)
        assert got_y == (f.embed(total, 0)
                         * g_image.embed(total, n)).mul_var(2 * n, -1)


def _cycle_up(ops, p):
    """s_0, s_1, ..., s_(n-2) applied in that order."""
    for i in range(ops.n - 1):
        p = ops.s(p, i)
    return p


def _cycle_down(ops, p):
    """s_(n-2), ..., s_1, s_0 applied in that order."""
    for i in range(ops.n - 2, -1, -1):
        p = ops.s(p, i)
    return p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_raising_and_lowering_on_a_block_match_the_swap_chain(n):
    al, a = F(7, 5), F(1, 2)
    ops = Operators(n, al, a=a, block=range(n, 2 * n))
    ref = Operators(n, al, a=a, block=range(n, 2 * n))

    def phi(q):
        return _cycle_up(ref, q).mul_var(2 * n - 1)

    polys = [SparsePoly(2 * n, {tuple(range(1, 2 * n + 1)): F(3, 4),
                                (0,) * n + (2,) + (0,) * (n - 1): -2,
                                (1,) * (2 * n): F(1, 3)}),
             SparsePoly(2 * n, {(2,) + (0,) * (2 * n - 2) + (1,): 5,
                                (0,) * (2 * n - 1) + (3,): F(-2, 7)})]
    for p in polys:
        assert ops.phi(p) == phi(p)
        assert ops.psi(p) == phi(p)
        assert ops.phi_hat(p) == ref.dunkl(_cycle_down(ref, p), 0)
        assert ops.psi_hat(p) == ref.b_op(_cycle_down(ref, p), 0)
        assert ops.phi_hat_star(p) == _cycle_up(
            ref, 2 * ref._x(p, 0) - ref.dunkl(p, 0))
        comm = phi(ref.laplacian_B(p)) - ref.laplacian_B(phi(p))
        assert ops.psi_hat_star(p) == (
            phi(p) + comm / 4 + _cycle_up(ref, ref.b_op(p, 0)))


@pytest.mark.parametrize("block", [(0, 2), (1, 0), (2, 1, 0), (0, 1, 3)])
def test_block_must_be_a_contiguous_range(block):
    with pytest.raises(ValueError, match="contiguous"):
        Operators(len(block), F(7, 5), block=block)
