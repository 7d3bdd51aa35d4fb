"""Jack basis: recursion vs oracle, evaluations, symmetric basis."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

import label_reference as ref
import nsjack.combinat as comb
from nsjack import jack
from nsjack.jack import JackBasis
from nsjack.poly import SparsePoly, linear_combination, symmetrize
from nsjack.suites import suite_jack

ALPHAS = (F(1), F(7, 5), F(1, 2))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_low_degree_closed_forms(alpha):
    jb = JackBasis(2, alpha)
    assert jb.E((0, 1)) == SparsePoly.variable(2, 1)
    assert jb.E((1, 0)) == SparsePoly(2, {(1, 0): 1, (0, 1): F(1, alpha + 1)})
    assert jb.E((1, 1)) == SparsePoly(2, {(1, 1): 1})
    assert jb.E((0, 0)) == SparsePoly.one(2)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_oracle_standalone_values(alpha):
    jb = JackBasis(2, alpha)
    assert jb.E_oracle((1, 0)) == SparsePoly(
        2, {(1, 0): 1, (0, 1): F(1, alpha + 1)})
    assert jb.E_oracle((0, 0)) == SparsePoly.one(2)
    assert jb.E_oracle((0, 1)) == SparsePoly.variable(2, 1)


def test_oracle_matches_recursion_through_weight_six():
    jb = JackBasis(4, F(7, 5))
    labels = comb.compositions_up_to(4, 6)
    assert len(labels) == 210
    for eta in labels:
        assert jb.E_oracle(eta) == jb.E(eta), eta


def test_oracle_rejects_an_image_outside_the_triangular_span(monkeypatch):
    jb = JackBasis(3, F(7, 5))
    direct = jb.ops.cherednik_direct
    # (3, 0, 0) is not below (2, 0, 1): its rearrangement dominates (2, 1, 0)
    stray = SparsePoly.monomial(3, (3, 0, 0))
    monkeypatch.setattr(jb.ops, "cherednik_direct",
                        lambda p, i: direct(p, i) + stray)
    with pytest.raises(ArithmeticError, match="triangular span"):
        jb.E_oracle((2, 0, 1))


def test_oracle_residual_check_catches_a_wrong_eigenvalue(monkeypatch):
    true = comb.eta_bar_vec

    def shifted(eta, alpha):
        ev = true(eta, alpha)
        return (ev[0] + F(1, 3),) + ev[1:]

    # no spectral difference at alpha = 7/5 is 1/3, so every pivot stays
    # non-zero and only the final residual check can see the error
    monkeypatch.setattr(comb, "eta_bar_vec", shifted)
    for eta in [(2, 0, 1), (0, 1, 2), (1, 1, 1)]:
        with pytest.raises(ArithmeticError, match="eigen-residual"):
            JackBasis(3, F(7, 5)).E_oracle(eta)


def test_oracle_rejects_an_eigenvalue_no_operator_separates(monkeypatch):
    # the spectral vector of (1, 0, 2), a label below (2, 0, 1), makes
    # every pivot of that label zero
    true = comb.eta_bar_vec
    monkeypatch.setattr(comb, "eta_bar_vec",
                        lambda eta, alpha: true((1, 0, 2), alpha))
    with pytest.raises(ArithmeticError, match="separates"):
        JackBasis(3, F(7, 5)).E_oracle((2, 0, 1))


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        JackBasis(2, 0)
    with pytest.raises(ValueError):
        JackBasis(2, -1)
    jb = JackBasis(2, 1)
    with pytest.raises(ValueError):
        jb.E((1, 0, 0))
    with pytest.raises(ValueError):
        jb.J((1, 2))


def test_symmetric_basis_degree_one():
    for alpha in ALPHAS:
        jb = JackBasis(2, alpha)
        J = jb.J((1,))
        assert J == SparsePoly.variable(2, 0) + SparsePoly.variable(2, 1)
        assert symmetrize(J) == 2 * J
    jb = JackBasis(2, F(7, 5))
    assert jb.J(()) == SparsePoly.one(2)
    J11 = jb.J((1, 1))
    assert set(J11.terms) == {(1, 1)}


def test_eval_ones():
    jb = JackBasis(2, F(7, 5))
    assert jb.eval_ones((1, 0)) == (F(7, 5) + 2) / (F(7, 5) + 1)
    assert jb.eval_ones((0, 0)) == 1
    assert jb.eval_ones((2, 1)) == jb.E((2, 1)).eval_exact([1, 1])


def test_sym_constant():
    jb = JackBasis(2, F(7, 5))
    for eta in [(1, 0), (2, 0), (1, 2), (2, 2)]:
        assert symmetrize(jb.E(eta)) == jb.a_sym_const(eta) * jb.J(
            comb.eta_plus(eta))


def test_expand_in_E_round_trip():
    jb = JackBasis(3, F(1, 2))
    p = (SparsePoly.variable(3, 0) + 2 * SparsePoly.variable(3, 2)) ** 2 + 5
    coeffs = jb.expand_in_E(p)
    rebuilt = sum((c * jb.E(eta) for eta, c in coeffs.items()),
                  SparsePoly.zero(3))
    assert rebuilt == p


def _peel_by_subtraction(jb, p):
    """The expansion by repeated polynomial subtraction of c E at the
    residual's largest label."""
    out = {}
    while not p.is_zero:
        eta = max(p.terms, key=comb.order_key)
        out[eta] = c = p.terms[eta]
        p = p - c * jb.E(eta)
    return out


def test_expand_in_E_round_trips_several_weights():
    jb = JackBasis(3, F(7, 5))
    x = [SparsePoly.variable(3, i) for i in range(3)]
    p = (F(2, 3) * x[0] * x[2] ** 3 - 4 * x[1] ** 2 * x[0] + x[2] ** 2
         + F(-5, 9) * x[1] + 7)
    coeffs = jb.expand_in_E(p)
    assert {sum(eta) for eta in coeffs} == {0, 1, 2, 3, 4}
    assert all(coeffs.values())
    assert list(coeffs) == sorted(coeffs, key=comb.order_key, reverse=True)
    assert linear_combination(3, ((c, jb.E(eta)) for eta, c in
                                  coeffs.items())) == p
    assert jb.expand_in_E(SparsePoly.zero(3)) == {}


def test_expand_in_E_matches_peeling_by_subtraction_at_n4():
    """Every binomial row of weight <= 3 at n = 4: the same coefficients in
    the same order as peeling one polynomial subtraction at a time."""
    jb = JackBasis(4, F(7, 5))
    for eta in comb.compositions_up_to(4, 3):
        shifted = jb.E(eta).shift_by_one()
        got = jb.expand_in_E(shifted)
        want = _peel_by_subtraction(jb, shifted)
        assert list(got.items()) == list(want.items()), eta


def test_expand_in_E_rejects_a_basis_that_is_not_triangular():
    """An E((1, 1)) with a wrong x_0^2 term sends the peeling back up to
    (2, 0); the expansion must raise instead of cycling."""
    jb = JackBasis(2, F(7, 5))
    jb._cache[(1, 1)] = jb.E((1, 1)) + SparsePoly.monomial(2, (2, 0))
    p = jb.E((2, 0)) + jb.E((1, 1))
    right, calls = jb.E, []

    def counted(eta):
        calls.append(eta)
        assert len(calls) < 100, "the peeling does not terminate"
        return right(eta)

    jb.E = counted
    with pytest.raises(ArithmeticError, match="not triangular"):
        jb.expand_in_E(p)


def test_jack_suite_small():
    reports = suite_jack(alphas=(F(7, 5), F(3)), max_weight=4, max_n=3)
    bad = [r for r in reports if r["status"] != "pass"]
    assert not bad, bad[:3]


@pytest.mark.parametrize("alpha", [F(1), F(2), F(1, 2), F(3), F(7, 5)])
def test_constant_recursions_wide_range(alpha):
    """Ladder and transposition recursions for the diagram constants,
    checked as pure combinatorics on all |eta| <= 6 with n <= 4."""
    c = F(5, 3)
    for n in range(1, 5):
        for eta in comb.compositions_up_to(n, 6):
            up = comb.phi_map(eta)
            bar1 = comb.eta_bar(eta, 0, alpha)
            assert ref.d_const(up, alpha) / ref.d_const(eta, alpha) \
                == bar1 + alpha + n
            assert ref.e_const(up, alpha) / ref.e_const(eta, alpha) \
                == bar1 + alpha + n
            assert (ref.d_prime_const(up, alpha)
                    / ref.d_prime_const(eta, alpha)) == bar1 + alpha + n - 1
            assert comb.eta_bar_vec(up, alpha) == tuple(
                list(comb.eta_bar_vec(eta, alpha)[1:]) + [bar1 + alpha])
            assert (ref.gen_fact(c, up, alpha) / ref.gen_fact(c, eta, alpha)
                    == c + bar1 / alpha)
            assert ref.e_const(eta, alpha) == alpha ** sum(eta) \
                * ref.gen_fact(F(n) / alpha + 1, eta, alpha)
            if eta[-1] >= 1:
                down = comb.phi_hat_map(eta)
                barn = comb.eta_bar(eta, n - 1, alpha)
                assert (ref.d_prime_const(eta, alpha)
                        / ref.d_prime_const(down, alpha)) == barn + n - 1
                assert (ref.gen_fact(c, eta, alpha)
                        / ref.gen_fact(c, down, alpha)) == c - 1 + barn / alpha
            for i in range(n - 1):
                sw = comb.si_map(eta, i)
                assert ref.gen_fact(c, sw, alpha) == ref.gen_fact(c, eta, alpha)
                if eta[i] > eta[i + 1]:
                    gap = comb.delta_gap(eta, i, alpha)
                    assert ref.e_const(sw, alpha) == ref.e_const(eta, alpha)
                    assert (ref.d_const(sw, alpha) / ref.d_const(eta, alpha)
                            == (gap + 1) / gap)
                    assert (ref.d_prime_const(sw, alpha)
                            / ref.d_prime_const(eta, alpha)) == gap / (gap - 1)


def test_eigenvector_check_four_variables():
    """Joint eigenfunction equations out to |eta| <= 5 in 4 variables."""
    for alpha in (F(1), F(7, 5)):
        jb = JackBasis(4, alpha)
        for eta in comb.compositions_up_to(4, 5):
            E = jb.E(eta)
            for i in range(4):
                assert jb.ops.cherednik(E, i) == comb.eta_bar(eta, i, alpha) * E


SINGLE_PART_ALPHAS = (F(1), F(7, 5), F(1, 3), F(9, 2))


def _single_part_reference(n, alpha, m, first=1):
    """(m!/(1+beta)_m) sum over |mu| = m of (first+beta)_mu_0/mu_0!
    prod_(i>=1) (beta)_mu_i/mu_i! x^mu, in Fractions straight from the
    generating function; first = 1 gives E_(m,0,...,0)."""
    beta = 1 / alpha

    def rising(x, j):
        out = F(1)
        for r in range(j):
            out *= x + r
        return out

    terms = {}
    for mu in comb.compositions(n, m):
        c = rising(first + beta, mu[0]) / factorial(mu[0])
        for part in mu[1:]:
            c *= rising(beta, part) / factorial(part)
        terms[mu] = factorial(m) / rising(1 + beta, m) * c
    return SparsePoly(n, terms)


@pytest.mark.parametrize("alpha", SINGLE_PART_ALPHAS)
def test_transposition_steps_land_on_the_single_part_formula(alpha):
    """The recursion's way to E_(m,0,...,0): raise E_(m-1,0,...,0) to
    E_(0,...,0,m), then n - 1 transposition steps move the part to the
    front; it must end on the one-pass formula."""
    for n in range(1, 7):
        jb = JackBasis(n, alpha)
        for m in range(1, (4 if n == 6 else 6) + 1):
            poly = jb.ops.phi(jb._single_part(m - 1))
            label = (0,) * (n - 1) + (m,)
            for i in range(n - 2, -1, -1):
                gap = comb.delta_gap(label, i, alpha)
                poly = poly.swap_add(i, i + 1, -1 / gap)
                label = comb.si_map(label, i)
            assert poly == jb._single_part(m), (n, m)
            assert poly == _single_part_reference(n, alpha, m), (n, m)


@pytest.mark.parametrize("alpha", SINGLE_PART_ALPHAS)
def test_oracle_matches_the_single_part_formula(alpha):
    for n in range(1, 5):
        jb = JackBasis(n, alpha)
        for m in range(1, 5):
            eta = (m,) + (0,) * (n - 1)
            assert jb.E_oracle(eta) == jb.E(eta) == jb._single_part(m), eta


@pytest.mark.parametrize("alpha", SINGLE_PART_ALPHAS)
def test_single_part_labels_satisfy_every_eigen_equation(alpha):
    """The proof in ``JackBasis.E`` uses xi_0 only; every xi_i must hold."""
    for n in range(1, 5):
        jb = JackBasis(n, alpha)
        for m in range(1, 6):
            eta = (m,) + (0,) * (n - 1)
            E = jb.E(eta)
            for i in range(n):
                assert (jb.ops.cherednik(E, i)
                        == comb.eta_bar(eta, i, alpha) * E), (eta, i)


def test_single_part_label_at_a_thousand_variables():
    n = 1100
    jb = JackBasis(n, 1)
    E = jb.E((1,) + (0,) * (n - 1))
    others = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(1, n)]
    # beta/(1+beta) = 1/2 at alpha = 1
    assert E == SparsePoly(n, {(1,) + (0,) * (n - 1): 1,
                               **{e: F(1, 2) for e in others}})


def test_single_part_mutation_fails_the_jack_suite(monkeypatch):
    """beta in place of 1 + beta in the x_0 factor."""
    monkeypatch.setattr(jack, "_shared", {})
    monkeypatch.setattr(
        JackBasis, "_single_part",
        lambda self, m: _single_part_reference(self.n, self.alpha, m, first=0))
    reports = suite_jack(alphas=(F(7, 5),), max_weight=2, max_n=2)
    failing = {r["check"] for r in reports if r["status"] == "fail"}
    assert {"jack-oracle-equivalence",
            "jack-eigen-triangular-positive"} <= failing


def test_binomial_row_keeps_its_shifted_polynomial(monkeypatch):
    jb = JackBasis(2, F(7, 5))
    want = jb.E((1, 2)).shift_by_one()
    jb.binomial_row((1, 2))

    def no_shift(*args, **kwargs):
        raise AssertionError("E_eta(1 + z) shifted again")

    monkeypatch.setattr(SparsePoly, "shift_by_one", no_shift)
    assert jb.E_shifted((1, 2)) == want


def _python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this nsjack."""
    import os
    import subprocess
    import sys

    import nsjack

    src = os.path.dirname(os.path.dirname(os.path.abspath(nsjack.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-500:]
    return r.stdout


def test_long_lowering_chain_needs_no_recursion():
    """E((0, 60, 60)) sits 238 labels above the constant (no single-part
    label on the way); building it must not depend on the interpreter's
    recursion limit."""
    out = _python("import sys\n"
                  "from nsjack.jack import JackBasis\n"
                  "sys.setrecursionlimit(150)\n"
                  "print(len(JackBasis(3, 1).E((0, 60, 60)).terms))\n")
    assert out.strip() == "1830"


def test_work_list_fills_the_cache_bottom_up():
    jb = JackBasis(3, F(7, 5))
    top = jb.E((0, 0, 2))
    # the chain of (0, 0, 2) stops at the single-part label (1, 0, 0), built
    # in one pass; both are heavier than anything asked for before, so only
    # the requested label is kept
    assert list(jb._cache) == [(0, 0, 0), (0, 0, 2)]
    assert jb.E((0, 0, 2)) is top
    assert jb.ops.phi(jb.E((1, 0, 0))) == top
    assert list(jb._cache) == [(0, 0, 0), (0, 0, 2), (1, 0, 0)]
    # now below the heaviest request, the chain of (0, 1, 1) is kept, built
    # from the constant up
    jb.E((0, 1, 1))
    assert list(jb._cache)[3:] == [(0, 0, 1), (0, 1, 1)]
    # a second label reuses the cached part of its chain
    jb.E((0, 2, 0))
    assert list(jb._cache)[-1] == (0, 2, 0) and len(jb._cache) == 6


def test_chain_below_the_top_keeps_its_single_part_start():
    jb = JackBasis(3, F(7, 5))
    jb.E((0, 0, 3))
    jb.E((0, 2, 0))
    assert list(jb._cache) == [(0, 0, 0), (0, 0, 3), (1, 0, 0), (0, 0, 2),
                               (0, 2, 0)]


def test_long_chain_keeps_only_its_result():
    """E((0, 120, 120)) passes 477 labels on its way up from the constant;
    keeping 359 labels of that size peaked at about 120 MB.  The child reports its own peak: not RUSAGE_CHILDREN, which
    the children of other tests would raise, and on Linux not its
    ru_maxrss either, which keeps the peak of the process it was forked
    from across the exec; VmHWM starts afresh with the new image."""
    out = _python("import resource\n"
                  "from nsjack.jack import JackBasis\n"
                  "jb = JackBasis(3, 1)\n"
                  "print(len(jb.E((0, 120, 120)).terms), len(jb._cache))\n"
                  "try:\n"
                  "    with open('/proc/self/status') as f:\n"
                  "        print(next(int(line.split()[1]) for line in f\n"
                  "                   if line.startswith('VmHWM:')))\n"
                  "except OSError:\n"
                  "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    counts, peak_kb = out.split("\n")[:2]
    assert counts == "7260 2"
    assert int(peak_kb) < 60 * 1024


def test_kept_labels_share_one_exponent_table():
    """Every kept E_eta takes its keys from the basis's exponent table, so
    an exponent that many of them hold is one tuple object."""
    jb = JackBasis(4, F(7, 5))
    labels = list(comb.compositions_up_to(4, 4))
    random.Random(30).shuffle(labels)
    for eta in labels:
        jb.E(eta)
    keys = [e for p in jb._cache.values() for e in p.num]
    assert len(keys) > len(set(keys))
    assert len({id(e) for e in keys}) == len(set(keys))


def test_long_chain_adds_only_its_result_to_the_table():
    jb = JackBasis(3, 1)
    top = jb.E((0, 0, 120))
    assert len(jb._exps) == len(top.num) == 7260
    assert all(jb._exps[e] is e for e in top.num)


def test_labels_after_a_long_chain_match_a_fresh_basis():
    jb = JackBasis(3, F(7, 5))
    jb.E((0, 0, 60))
    fresh = JackBasis(3, F(7, 5))
    for k in range(9):
        for eta in ((0, 0, k), (0, k, 0), (k, 0, 0)):
            assert jb.E(eta) == fresh.E(eta), eta


def test_second_pass_over_a_family_makes_no_recursion_step(monkeypatch):
    jb = JackBasis(4, F(7, 5))
    labels = list(comb.compositions_up_to(4, 4))
    first = [jb.E(eta) for eta in labels]
    # built weight by weight, every label kept was asked for
    assert set(jb._cache) == set(labels)

    def no_step(*args):
        raise AssertionError("recursion step on a second pass")

    monkeypatch.setattr(jb.ops, "phi", no_step)
    monkeypatch.setattr(SparsePoly, "swap_add", no_step)
    assert all(jb.E(eta) is p for eta, p in zip(labels, first))
    assert set(jb._cache) == set(labels)


MEMO_ALPHAS = (F(1), F(7, 5), F(5, 7), F(1, 3))


def _memo_values(jb, n, max_weight=5):
    """Every memoized label constant of the basis on the labels of weight
    at most ``max_weight``, keyed by its call."""
    alpha = jb.alpha
    out = {}
    for eta in comb.compositions_up_to(n, max_weight):
        kappa = comb.eta_plus(eta)
        out["d", eta] = jb.d_const(eta)
        out["d'", eta] = jb.d_prime_const(eta)
        out["e", eta] = jb.e_const(eta)
        out["f", eta] = jb.f_const(eta)
        for c in (F(1, 2), 3, F(n) / alpha + 1):
            out["gen_fact", c, eta] = jb.gen_fact(c, eta)
        out["j", kappa] = jb.hook_norm_j(kappa)
        out["J_ones", kappa] = jb.J_ones(kappa)
        out["ones", eta] = jb.eval_ones(eta)
    return out


def _reference(key, alpha, n):
    """The value of a memo key from the reference products; J(1^n) is
    checked against alpha^|kappa| [n/alpha]_kappa."""
    kind, eta = key[0], key[-1]
    return {
        "d": lambda: ref.d_const(eta, alpha),
        "d'": lambda: ref.d_prime_const(eta, alpha),
        "e": lambda: ref.e_const(eta, alpha),
        "f": lambda: ref.f_const(eta, alpha),
        "gen_fact": lambda: ref.gen_fact(key[1], eta, alpha),
        "j": lambda: ref.hook_norm_j(eta, alpha),
        "J_ones": lambda: alpha ** sum(eta) * ref.gen_fact(
            F(n) / alpha, eta, alpha),
        "ones": lambda: ref.e_const(eta, alpha) / ref.d_const(eta, alpha),
    }[kind]()


# the memo kinds of the label constants; the memo also holds J_kappa
LABEL_CONSTANT_KINDS = {"d", "d'", "e", "gen_fact", "j", "J_ones"}


@pytest.mark.parametrize("alpha", MEMO_ALPHAS)
def test_label_constants_match_reference(alpha):
    for n in range(1, 5):
        jb = JackBasis(n, alpha)
        for key, value in _memo_values(jb, n).items():
            assert value == _reference(key, alpha, n), (n, key)


def test_bases_at_different_alpha_share_no_entries():
    one, other = JackBasis(3, F(7, 5)), JackBasis(3, F(5, 7))
    _memo_values(one, 3, 3)
    assert one._consts and not other._consts
    _memo_values(other, 3, 3)
    assert one._consts is not other._consts
    # every label constant the second basis holds is its own coupling's value
    for key, value in other._consts.items():
        if key[0] in LABEL_CONSTANT_KINDS:
            assert value == _reference(key, F(5, 7), 3), key
    assert one.d_const((1, 0, 0)) == F(12, 5)
    assert other.d_const((1, 0, 0)) == F(12, 7)


def test_warmed_basis_matches_fresh_basis():
    warm = JackBasis(3, F(7, 5))
    first = _memo_values(warm, 3, 4)
    again = _memo_values(warm, 3, 4)
    fresh = _memo_values(JackBasis(3, F(7, 5)), 3, 4)
    assert first == again == fresh
    # every constant is computed once: the second pass added no entry
    size = len(warm._consts)
    _memo_values(warm, 3, 4)
    assert len(warm._consts) == size


@pytest.mark.parametrize("n", [0, -2])
def test_basis_needs_at_least_one_variable(n):
    with pytest.raises(ValueError, match="need at least one variable"):
        JackBasis(n, 1)


def test_label_constants_reject_a_wrong_length():
    with pytest.raises(ValueError):
        JackBasis(2, 1).d_const((1, 0, 0))


def test_basis_holds_one_family_of_each_kind():
    jb = JackBasis(2, F(7, 5))
    assert jb.hermite() is jb.hermite()
    assert jb.laguerre(F(1, 2)) is jb.laguerre("1/2")
    assert jb.laguerre(0) is not jb.laguerre(F(1, 2))
    assert jb.laguerre(0).a == 0 and jb.hermite().jack is jb
    # another basis at the same (n, alpha) owns its own families
    assert JackBasis(2, F(7, 5)).hermite() is not jb.hermite()


@pytest.mark.parametrize("method", ["E", "E_oracle"])
@pytest.mark.parametrize("eta", [(1, 2), (1, 2, 0, 0), (1, -1, 2), (0, 0, -1),
                                 (1.5, 0, 0), ("1", 0, 0)])
def test_recursion_and_oracle_reject_a_bad_label(method, eta):
    with pytest.raises(ValueError, match="composition"):
        getattr(JackBasis(3, 2), method)(eta)
