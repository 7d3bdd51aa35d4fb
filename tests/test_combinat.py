"""Compositions, orderings, node statistics, and hand-computed values of
the label constants the basis derives from them."""

from fractions import Fraction as F

import pytest

import nsjack.combinat as comb
from nsjack.jack import JackBasis

LABEL_CONSTANTS = ("d_const", "d_prime_const", "e_const", "f_const",
                   "gen_fact", "hook_norm_j")


def test_eta_plus():
    assert comb.eta_plus((0, 2, 1)) == (2, 1, 0)
    assert comb.eta_plus((0, 0)) == (0, 0)
    assert comb.eta_plus((1, 3, 1, 0)) == (3, 1, 1, 0)


def test_precedes():
    assert comb.precedes((1, 1), (2, 0))
    assert comb.precedes((0, 1), (1, 0))
    assert not comb.precedes((1, 0), (1, 0))
    with pytest.raises(ValueError):
        comb.precedes((1, 0), (2, 0))


def test_eta_bar():
    for n in (2, 3, 4):
        zero = (0,) * n
        for i in range(n):
            assert comb.eta_bar(zero, i, F(7, 5)) == -i
    assert comb.eta_bar_vec((1, 0), 1) == (1, -1)
    al = F(7, 5)
    assert comb.eta_bar_vec((0, 1), al) == (-1, al)


# hand-worked node statistics (a, a', l, l') keyed by (i, j)
HAND_STATS = {
    (2, 1): {(0, 1): (1, 0, 1, 0), (0, 2): (0, 1, 0, 0), (1, 1): (0, 0, 0, 1)},
    (1, 0, 2): {(0, 1): (0, 0, 0, 1), (2, 1): (1, 0, 2, 0), (2, 2): (0, 1, 1, 0)},
    (0, 2, 1): {(1, 1): (1, 0, 2, 0), (1, 2): (0, 1, 0, 0), (2, 1): (0, 0, 1, 1)},
    (1, 1): {(0, 1): (0, 0, 1, 0), (1, 1): (0, 0, 0, 1)},
    (0, 1): {(1, 1): (0, 0, 1, 0)},
}


@pytest.mark.parametrize("eta", sorted(HAND_STATS))
def test_node_statistics_against_hand_counts(eta):
    want = HAND_STATS[eta]
    assert set(comb.nodes(eta)) == set(want)
    for (i, j), (a, ac, l, lc) in want.items():
        assert comb.arm(eta, i, j) == a
        assert comb.arm_co(eta, i, j) == ac
        assert comb.leg(eta, i, j) == l
        assert comb.leg_co(eta, i, j) == lc


def test_constants_single_node():
    al = F(7, 5)
    jb = JackBasis(2, al)
    assert jb.d_prime_const((1, 0)) == al
    assert jb.d_const((1, 0)) == al + 1
    assert jb.e_const((1, 0)) == al + 2
    assert jb.gen_fact(F(5, 3), (1, 0)) == F(5, 3)


def test_constants_empty():
    jb = JackBasis(3, F(1, 2))
    for fn in (jb.d_const, jb.d_prime_const, jb.e_const):
        assert fn((0, 0, 0)) == 1
    assert JackBasis(2, 3).gen_fact(F(9), (0, 0)) == 1


def test_rf_partition():
    jb = JackBasis(2, F(2))
    # on a partition, [r]_kappa = prod_j rising(r - (j-1)/alpha, kappa_j)
    r = F(3, 4)
    assert jb.gen_fact(r, (2, 1)) == (r * (r + 1)) * (r - F(1, 2))
    assert jb.gen_fact(r, (0, 0)) == 1


def test_hook_norm():
    al = F(7, 5)
    jb = JackBasis(2, al)
    assert jb.hook_norm_j((1,)) == al
    assert jb.hook_norm_j(()) == 1
    assert jb.hook_norm_j((1, 1)) == 2 * al * (al + 1)


def test_label_constants_live_only_in_the_basis():
    import nsjack

    for name in LABEL_CONSTANTS:
        assert not hasattr(comb, name), name
        assert hasattr(JackBasis, name), name
    with pytest.raises(AttributeError):
        nsjack.d_const


def test_maps():
    assert comb.phi_map((0, 0)) == (0, 1)
    assert comb.phi_hat_map((0, 1)) == (0, 0)
    assert comb.si_map((1, 0), 0) == (0, 1)
    assert comb.add_to_all((1, 0), 2) == (3, 2)
    assert comb.reversed_eta((1, 2, 3)) == (3, 2, 1)
    with pytest.raises(ValueError):
        comb.phi_hat_map((1, 0))


def test_composition_enumeration():
    got = list(comb.compositions(2, 2))
    assert got == [(2, 0), (1, 1), (0, 2)]
    assert len(list(comb.compositions(3, 4))) == 15
    assert list(comb.partitions(4, 2)) == [(4,), (3, 1), (2, 2)]


def test_order_key_refines_precedes():
    etas = list(comb.compositions(3, 4))
    for nu in etas:
        for eta in etas:
            if comb.precedes(nu, eta):
                assert comb.order_key(nu) < comb.order_key(eta)
