"""Named verification suites shared by the CLI and the test harness.

Each suite returns a list of reports of the one shape ``reports.report``
makes; a suite passes when every report does.  A check that holds item
by item reports through ``reports.first_failing``, which names the first
failing item.  The checks are exact unless the report's ``values`` carry
numeric errors.

Each operator identity shape is one predicate builder taking the
operators it relates, so the type-A table and its type-B twin (B_i for
the Dunkl T_i, l_i for h_i, psi-hat for phi-hat) share it.

Each operator identity is evaluated once, on the tagged basis sum
P = sum_k t^k m_k of the monomials m_k, with t one extra variable.  That
check is exact: every operator acts on the first n variables and
commutes with multiplication by the passive t^k, and every predicate is
linear in p, so the t^k part of each side is that side at m_k, and the
identity holds on P exactly when it holds on every monomial.  The
monomials are run one by one only when P fails, to name the first that
fails; if none does, the predicate was not linear, and that raises
rather than filing a pass.

The label suites (jack, hermite, laguerre, binomials, ct, sahi) loop once
over their cells: ``_bases`` gives the shared basis at each alpha and n,
alpha outer, and each cell files its reports in that order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from . import combinat as comb
# loaded up front like every layer a suite runs; the suites reach it
# through JackBasis.hermite and JackBasis.laguerre
from . import hermite_laguerre  # noqa: F401
from . import kernels
from .cterm import (SahiInner, ct_inner, ct_norm_formula, kadell_ratio_check,
                    norm_relation_check)
from .jack import JackBasis
from .operators import Operators
from .poly import SparsePoly, linear_combination, power_sum, symmetrize
from .reports import first_failing, report

DEFAULT_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                  Fraction(7, 5))
DEFAULT_A_SET = (Fraction(0), Fraction(1, 2), Fraction(1))


def _bases(alphas, lo, max_n):
    """The shared basis at each alpha and each n from lo to max_n, in
    report order (alpha outer, n inner): the cells the label suites check."""
    return [JackBasis.shared(n, alpha) for alpha in alphas
            for n in range(lo, max_n + 1)]


def _monomials(n, max_deg):
    return [SparsePoly.monomial(n, e) for w in range(max_deg + 1)
            for e in comb.compositions(n, w)]


def _tagged(basis, n):
    """The tagged basis sum P = sum_k t^k m_k of the monomials m_k in n
    variables, with t the one extra variable x_n."""
    return linear_combination(n + 1, ((1, m.embed(n + 1).mul_var(n, k))
                                      for k, m in enumerate(basis)))


def _all_hold(check, items, holds, n, alpha, **params):
    """Report whether ``holds`` is true on every item; a failing report
    names the first item where it is not."""
    return first_failing(check, n, alpha, items,
                         lambda item: None if holds(item) else {}, params)


def _holds_on_basis(check, basis, tagged, holds, n, alpha, **params):
    """``_all_hold`` over a monomial basis for a predicate linear in p,
    evaluated once on the tagged basis sum; the monomials are run one by
    one only to name the first that fails."""
    if holds(tagged):
        return report(check, True, n, alpha, params)
    rep = _all_hold(check, basis, holds, n, alpha, **params)
    if rep["status"] == "pass":
        raise ArithmeticError(f"{check} fails on the tagged basis sum but "
                              "on no monomial: its predicate is not linear")
    return rep


def _hecke(ops, op):
    """Predicate: ``op`` and the simple transpositions satisfy the
    Hecke-type relations on p."""
    n = ops.n

    def holds(p):
        for i in range(n - 1):
            if op(ops.s(p, i), i) - ops.s(op(p, i + 1), i) != p:
                return False
            if op(ops.s(p, i), i + 1) - ops.s(op(p, i), i) != -p:
                return False
        for i in range(n):
            for j in range(n - 1):
                if j in (i - 1, i):
                    continue
                if op(ops.s(p, j), i) != ops.s(op(p, i), j):
                    return False
        return True
    return holds


def _transposition_action(basis):
    """Predicate: the simple transpositions act on basis.E(eta) by the
    three-case rule (equal parts, descent, ascent)."""
    E, s, al = basis.E, basis.ops.s, basis.alpha

    def holds(eta):
        p = E(eta)
        for i in range(basis.n - 1):
            if eta[i] == eta[i + 1]:
                want = p
            else:
                gap = comb.delta_gap(eta, i, al)
                if eta[i] > eta[i + 1]:
                    want = p / gap + (1 - 1 / gap ** 2) * E(comb.si_map(eta, i))
                else:
                    want = p / gap + E(comb.si_map(eta, i))
            if s(p, i) != want:
                return False
        return True
    return holds


# ---------------------------------------------------------------------------
# operators


def suite_operators(alphas=DEFAULT_ALPHAS, max_weight=5, max_n=3,
                    a_set=DEFAULT_A_SET):
    """Operator-algebra identities checked on a monomial basis, each once
    on its tagged sum."""
    reps = []
    for alpha in alphas:
        for n in range(2, max_n + 1):
            ops = Operators(n, alpha, a=a_set[0])
            basis = _monomials(n, max_weight)
            tagged = _tagged(basis, n)
            reps.extend(_operator_identities(ops, basis, tagged, alpha, n))
            for a in a_set:
                # a_set[0] reuses the type-A instance and its images
                if a != a_set[0]:
                    ops = Operators(n, alpha, a=a)
                reps.extend(_type_b_identities(ops, basis, tagged, alpha, n,
                                               a))
    return reps


def _commute(ops, op):
    """Predicate: the operators op(., i) commute pairwise on p."""
    n = ops.n
    return lambda p: all(op(op(p, j), i) == op(op(p, i), j)
                         for i in range(n) for j in range(i + 1, n))


def _cherednik_commutators(ops, T):
    """Predicate: the Cherednik operators and T(., i) (Dunkl or B) obey the
    off-diagonal commutators [xi_j, T_i] = T_min(i,j) s_ij."""
    n, xi = ops.n, ops.cherednik
    return lambda p: all(
        (xi(T(p, i), j) - T(xi(p, j), i) == T(ops.swap(p, i, j), min(i, j)))
        for i in range(n) for j in range(n) if i != j)


def _cherednik_commutator_diagonal(ops, T):
    """Predicate: the diagonal commutator [xi_j, T_j] of the Cherednik
    operators with T(., j) (Dunkl or B)."""
    n, xi, al = ops.n, ops.cherednik, ops.alpha
    return lambda p: all(
        xi(T(p, j), j) - T(xi(p, j), j)
        == -al * T(p, j)
        - sum((ops.swap(T(p, j), j, k) for k in range(j)),
              SparsePoly.zero(p.n))
        - sum((T(ops.swap(p, j, k), j) for k in range(j + 1, n)),
              SparsePoly.zero(p.n))
        for j in range(n))


def _lowers(ops, Y, lower):
    """Predicate: ``lower`` intertwines the eigenoperators Y(., j) down the
    ladder, Y_j lower = lower Y_(j-1) and Y_0 lower = lower (Y_(n-1) - alpha)."""
    n, al = ops.n, ops.alpha
    return lambda p: (
        all(Y(lower(p), j) == lower(Y(p, j - 1)) for j in range(1, n))
        and Y(lower(p), 0) == lower(Y(p, n - 1)) - al * lower(p))


def _raises(ops, Y, raise_):
    """Predicate: ``raise_`` intertwines the eigenoperators Y(., i) up the
    ladder, Y_i raise = raise Y_(i+1) and Y_(n-1) raise = raise (Y_0 + alpha)."""
    n, al = ops.n, ops.alpha
    return lambda p: (
        all(Y(raise_(p), i) == raise_(Y(p, i + 1)) for i in range(n - 1))
        and Y(raise_(p), n - 1) == raise_(Y(p, 0)) + al * raise_(p))


def _ladder(ops, Y, raise_, lower):
    """Predicate: both ladder operators intertwine Y, raising first."""
    up, down = _raises(ops, Y, raise_), _lowers(ops, Y, lower)
    return lambda p: up(p) and down(p)


def _operator_identities(ops, basis, tagged, alpha, n):
    al = Fraction(alpha)

    def comm_xi(p, i):
        return ops.dunkl(p.mul_var(i), i) - ops.dunkl(p, i).mul_var(i)

    checks = [
        ("dunkl-position-commutator-diagonal",
         lambda p: all(comm_xi(p, i) == p + sum(
             (ops.swap(p, i, k) for k in range(n) if k != i),
             SparsePoly.zero(p.n)) / al for i in range(n))),
        ("dunkl-position-commutator-offdiagonal",
         lambda p: all(ops.dunkl(p.mul_var(j), i) - ops.dunkl(p, i).mul_var(j)
                       == -ops.swap(p, i, j) / al
                       for i in range(n) for j in range(n) if i != j)),
        ("dunkl-commutativity", _commute(ops, ops.dunkl)),
        ("cherednik-commutativity", _commute(ops, ops.cherednik)),
        ("cherednik-forms-agree",
         lambda p: all(ops.cherednik(p, i) == ops.cherednik_direct(p, i)
                       for i in range(n))),
        ("hecke-relations", _hecke(ops, ops.cherednik)),
        ("h-hecke-relations", _hecke(ops, ops.h_op)),
        ("cherednik-dunkl-commutators", _cherednik_commutators(ops, ops.dunkl)),
        ("cherednik-dunkl-commutator-diagonal",
         _cherednik_commutator_diagonal(ops, ops.dunkl)),
        ("lowering-intertwining", _lowers(ops, ops.cherednik, ops.phi_hat)),
        ("laplacian-commutators",
         lambda p: all(
             ops.cherednik(ops.laplacian_A(p), i) - ops.laplacian_A(ops.cherednik(p, i))
             == -2 * al * ops.dunkl(ops.dunkl(p, i), i)
             and ops.laplacian_A(p.mul_var(i)) - ops.laplacian_A(p).mul_var(i)
             == 2 * ops.dunkl(p, i)
             for i in range(n))),
        ("adjoint-raising-representation",
         lambda p: ops.phi_hat_star(p)
         == 2 * ops.phi(p) + (ops.phi(ops.laplacian_A(p))
                              - ops.laplacian_A(ops.phi(p))) / 2),
        ("gaussian-ladder-intertwining",
         _ladder(ops, ops.h_op, ops.phi_hat_star, ops.phi_hat)),
        ("euler-commutator-identity",
         lambda p: ops.d1_tilde(p)
         == (ops.euler(ops.d2_tilde(p), 0) - ops.d2_tilde(ops.euler(p, 0))) / 2),
    ]
    return [_holds_on_basis(name, basis, tagged, fn, n=n, alpha=al)
            for name, fn in checks]


def _type_b_identities(ops, basis, tagged, alpha, n, a):
    """The type-B twins: B_i for T_i, l_i for h_i, psi-hat for phi-hat."""
    al = Fraction(alpha)
    # the Laguerre harmonic constant n (a + q), q = 1 + (n - 1)/alpha: the
    # sl_2 relation of Delta_B with p_1 reads the value of a
    gamma = n * (Fraction(a) + 1 + (n - 1) / al)

    def p1_commutator(p):
        p1 = power_sum(p.n, 1, range(n))
        return (ops.laplacian_B(p1 * p) - p1 * ops.laplacian_B(p)
                == 8 * ops.euler(p, 1) + 4 * gamma * p)

    checks = [
        ("b-commutativity", _commute(ops, ops.b_op)),
        ("l-commutativity", _commute(ops, ops.l_op)),
        ("l-hecke-relations", _hecke(ops, ops.l_op)),
        ("cherednik-b-commutators", _cherednik_commutators(ops, ops.b_op)),
        ("cherednik-b-commutator-diagonal",
         _cherednik_commutator_diagonal(ops, ops.b_op)),
        ("b-laplacian-commutator",
         lambda p: all(
             ops.cherednik(ops.laplacian_B(p), i) - ops.laplacian_B(ops.cherednik(p, i))
             == -4 * al * ops.b_op(p, i)
             for i in range(n)) and p1_commutator(p)),
        ("b-lowering-intertwining", _lowers(ops, ops.cherednik, ops.psi_hat)),
        ("laguerre-ladder-intertwining",
         _ladder(ops, ops.l_op, ops.psi_hat_star, ops.psi_hat)),
    ]
    return [_holds_on_basis(name, basis, tagged, fn, n=n, alpha=al,
                            a=str(a))
            for name, fn in checks]


# ---------------------------------------------------------------------------
# jack


def suite_jack(alphas=DEFAULT_ALPHAS, max_weight=4, max_n=3):
    return [r for jb in _bases(alphas, 1, max_n)
            for r in _jack_checks(jb, max_weight)]


def _jack_checks(jb, max_weight):
    n, al = jb.n, jb.alpha
    etas = comb.compositions_up_to(n, max_weight)
    # the shared basis would build shifted labels from the entries under test
    fresh = JackBasis(n, al)

    def eigen_triangular_positive(eta):
        E = jb.E(eta)
        bars = comb.eta_bar_vec(eta, al)
        return (all(jb.ops.cherednik(E, i) == bars[i] * E for i in range(n))
                and E.coeff(eta) == 1
                and all(nu == eta or comb.precedes(nu, eta) for nu in E.terms)
                and all(c > 0 for c in E.terms.values()))

    def label_shift(eta):
        """Multiplying by the full product of variables shifts the label."""
        return all(SparsePoly.monomial(n, (p,) * n) * jb.E(eta)
                   == fresh.E(comb.add_to_all(eta, p)) for p in (1, 2))

    def inversion(eta):
        """(x1...xn)^m E_eta(1/x) = E_(m - reversed eta)(reversed x)."""
        m = max(eta)
        lhs = SparsePoly.monomial(n, (m,) * n) * jb.E(eta).invert_vars()
        target = tuple(m - x for x in comb.reversed_eta(eta))
        return lhs == jb.E(target).permute_vars(tuple(range(n - 1, -1, -1)))

    def ladder_constants(eta):
        """Raising and lowering constants on the plain basis."""
        if jb.ops.phi(jb.E(eta)) != jb.E(comb.phi_map(eta)):
            return False
        low = jb.ops.phi_hat(jb.E(eta))
        if eta[-1] == 0:
            return low.is_zero
        down = comb.phi_hat_map(eta)
        c = jb.d_prime_const(eta) / jb.d_prime_const(down) / al
        return low == c * jb.E(down)

    def constant_recursions(eta):
        """Recursions of the constants along the ladder and transpositions."""
        up = comb.phi_map(eta)
        bar1 = comb.eta_bar(eta, 0, al)
        if jb.d_const(up) / jb.d_const(eta) != bar1 + al + n:
            return False
        if jb.e_const(up) / jb.e_const(eta) != bar1 + al + n:
            return False
        if jb.d_prime_const(up) / jb.d_prime_const(eta) != bar1 + al + n - 1:
            return False
        if comb.eta_bar_vec(up, al) != tuple(
                list(comb.eta_bar_vec(eta, al)[1:]) + [bar1 + al]):
            return False
        if eta[-1] >= 1:
            down = comb.phi_hat_map(eta)
            if (jb.d_prime_const(eta) / jb.d_prime_const(down)
                    != comb.eta_bar(eta, n - 1, al) + n - 1):
                return False
        for i in range(n - 1):
            if eta[i] > eta[i + 1]:
                gap = comb.delta_gap(eta, i, al)
                sw = comb.si_map(eta, i)
                if jb.e_const(sw) != jb.e_const(eta):
                    return False
                if jb.d_const(sw) / jb.d_const(eta) != (gap + 1) / gap:
                    return False
                if jb.d_prime_const(sw) / jb.d_prime_const(eta) != gap / (gap - 1):
                    return False
        # generalized factorial recursions at a generic parameter
        c = Fraction(5, 3)
        if jb.gen_fact(c, comb.si_map(eta, 0) if n > 1 else eta) != jb.gen_fact(c, eta):
            return False
        if jb.gen_fact(c, up) / jb.gen_fact(c, eta) != c + bar1 / al:
            return False
        if eta[-1] >= 1:
            down = comb.phi_hat_map(eta)
            if (jb.gen_fact(c, eta) / jb.gen_fact(c, down)
                    != c - 1 + comb.eta_bar(eta, n - 1, al) / al):
                return False
        return jb.e_const(eta) == al ** sum(eta) * jb.gen_fact(n / al + 1, eta)

    def symmetric_basis(eta):
        """Sym E_eta against J; a partition label of weight <= 4 also
        checks J itself against Stanley's normalization: J_kappa(1^n) =
        alpha^|kappa| [n/alpha]_kappa, and for |kappa| <= n the
        coefficient of x_1 ... x_|kappa| is |kappa|!."""
        kappa = comb.eta_plus(eta)
        w = sum(eta)
        if eta == kappa and w <= 4:
            J = jb.J(kappa)
            if symmetrize(J) != factorial(n) * J:
                return False
            if J.eval_exact([1] * n) != al ** w * jb.gen_fact(n / al, kappa):
                return False
            if w <= n and J.coeff((1,) * w + (0,) * (n - w)) != factorial(w):
                return False
        return symmetrize(jb.E(eta)) == jb.a_sym_const(eta) * jb.J(kappa)

    checks = [
        ("jack-eigen-triangular-positive", eigen_triangular_positive,
         {"range": f"|eta|<={max_weight}"}),
        ("jack-oracle-equivalence",
         lambda eta: jb.E(eta) == jb.E_oracle(eta), {}),
        ("jack-evaluation-all-ones",
         lambda eta: jb.E(eta).eval_exact([1] * n) == jb.eval_ones(eta), {}),
        ("jack-label-shift", label_shift, {}),
        ("jack-inversion", inversion, {}),
        ("jack-transposition-action", _transposition_action(jb), {}),
        ("jack-ladder-constants", ladder_constants, {}),
        ("jack-constant-recursions", constant_recursions, {}),
        ("jack-symmetric-basis", symmetric_basis, {}),
    ]
    return [_all_hold(name, etas, holds, n=n, alpha=al, **extra)
            for name, holds, extra in checks]


# ---------------------------------------------------------------------------
# hermite / laguerre


def suite_hermite(alphas=DEFAULT_ALPHAS, max_weight=4, max_n=3):
    return [r for jb in _bases(alphas, 1, max_n)
            for r in _family_checks(
                "hermite", jb.hermite(), max_weight, Operators.h_op,
                raise_scale=2, pairing_value=_hermite_pairing_value,
                ladder_extra=_hermite_norm_step)]


def _hermite_pairing_value(hb, eta):
    jb = hb.jack
    return (jb.d_prime_const(eta) * jb.e_const(eta) / jb.d_const(eta)
            / hb.alpha ** sum(eta))


def _hermite_norm_step(hb, eta):
    """Raising multiplies the norm ratio by d'(phi eta) / (2 alpha d'(eta))."""
    jb = hb.jack
    up = comb.phi_map(eta)
    return (hb.norm_ratio(up) / hb.norm_ratio(eta)
            == jb.d_prime_const(up) / (2 * hb.alpha * jb.d_prime_const(eta)))


def suite_laguerre(alphas=DEFAULT_ALPHAS, max_weight=4, max_n=3,
                   a_set=DEFAULT_A_SET):
    return [r for jb in _bases(alphas, 1, max_n) for a in a_set
            for lb in [jb.laguerre(a)]
            for r in _family_checks(
                "laguerre", lb, max_weight, Operators.l_op, raise_scale=1,
                pairing_value=_laguerre_pairing_value,
                extra=(("value-at-origin", _laguerre_at_origin),),
                a=str(lb.a))]


def _laguerre_pairing_value(lb, eta):
    jb = lb.jack
    return (Fraction(4) ** sum(eta) * jb.gen_fact(lb.shifted_a, eta)
            * jb.d_prime_const(eta) * jb.e_const(eta) / jb.d_const(eta)
            / lb.alpha ** sum(eta))


def _laguerre_at_origin(lb, eta):
    return lb.at_zero(eta) == lb.E(eta).eval_exact([0] * lb.n)


def _family_checks(family, fb, max_weight, eigen, raise_scale, pairing_value,
                   ladder_extra=None, extra=(), **info):
    """The checks every deformed family passes, on all labels of weight at
    most ``max_weight``.

    ``eigen`` is the family's Cherednik-type ``Operators`` method,
    ``raise_scale`` the factor in raise_op(eta) = raise_scale * E(phi eta)
    and ``pairing_value(fb, eta)`` the closed-form pairing diagonal.  The
    predicate ``ladder_extra(fb, eta)`` joins the ladder report, and each
    (name, predicate) in ``extra`` files its own report after it.
    """
    jb = fb.jack
    n, al = fb.n, fb.alpha
    etas = comb.compositions_up_to(n, max_weight)
    info = dict(n=n, alpha=al, **info)
    # the Hamiltonian lap - scale * euler has eigenvalue -scale * |eta|,
    # scale being twice the x-degree of one native degree
    scale = 2 * (2 // fb.radius_degree)

    def eigen_ok(eta):
        E = fb.E(eta)
        bars = comb.eta_bar_vec(eta, al)
        return (all(eigen(fb.ops, E, i) == bars[i] * E for i in range(n))
                and fb.laplacian(E) - scale * fb.ops.euler(E, 1)
                == -scale * sum(eta) * E)

    def ladder_ok(eta):
        if fb.raise_op(eta) != raise_scale * fb.E(comb.phi_map(eta)):
            return False
        low = fb.lower_op(eta)
        c = fb.lower_constant(eta)
        if eta[-1] == 0:
            if not low.is_zero or c != 0:
                return False
        elif low != c * fb.E(comb.phi_hat_map(eta)):
            return False
        return ladder_extra is None or ladder_extra(fb, eta)

    same_weight = {}
    for eta in etas:
        same_weight.setdefault(sum(eta), []).append(eta)

    def pairing_ok(eta):
        row = fb.pairing_row(jb.E(eta))
        for nu in same_weight[sum(eta)]:
            got = sum((c * row[e] for e, c in jb.E(nu).terms.items()),
                      Fraction(0))
            if got != (pairing_value(fb, eta) if nu == eta else 0):
                return False
        return True

    r = power_sum(n, fb.radius_degree)

    def harmonic_ok(eta):
        comps = fb.harmonic_components(eta)
        if any(not fb.laplacian(c).is_zero for _, c in comps):
            return False
        rebuilt = linear_combination(n, ((1, r ** m * c) for m, c in comps))
        return rebuilt == jb.E(eta) and fb.from_harmonics(eta, comps) == fb.E(eta)

    checks = [("eigen", eigen_ok, {}),
              ("transposition-action", _transposition_action(fb), {}),
              ("ladder", ladder_ok, {})]
    checks += [(name, lambda eta, holds=holds: holds(fb, eta), {})
               for name, holds in extra]
    checks += [("pairing-values", pairing_ok, {"range": f"|eta|<={max_weight}"}),
               ("harmonic-decomposition", harmonic_ok, {})]
    return [_all_hold(f"{family}-{name}", etas, holds, **info, **more)
            for name, holds, more in checks]


# ---------------------------------------------------------------------------
# kernels


def suite_kernels(alphas=DEFAULT_ALPHAS, sizes=((2, 5), (3, 4)),
                  a=Fraction(1, 2)):
    reps = []
    for alpha in alphas:
        for n, D in sizes:
            jb = JackBasis.shared(n, alpha)
            for name in kernels.IDENTITY_CHECKS:
                # the summation checks run at n = 2 only, through t-degree 4
                summation = name.endswith("summation")
                if summation and n != 2:
                    continue
                reps.append(kernels.verify_kernel_identity(
                    name, jb, 4 if summation else D, a=a))
    return reps


def suite_binomials(alphas=DEFAULT_ALPHAS, max_weight=4, max_n=3):
    """Defining expansion, n-independence, and the orbit sum rules."""
    return [r for jb in _bases(alphas, 2, max_n)
            for r in _binomial_checks(jb, max_weight)]


def _binomial_checks(jb, max_weight):
    n, alpha = jb.n, jb.alpha
    wider = JackBasis.shared(n + 1, alpha)
    etas = comb.compositions_up_to(n, max_weight)

    def expands(eta):
        e_eta = jb.eval_ones(eta)
        return jb.E_shifted(eta) == kernels.binomial_expansion(
            jb, eta, range(sum(eta) + 1), lambda nu: e_eta / jb.eval_ones(nu))

    def independent(pair):
        eta, nu = pair
        return (kernels.binomial_coeff(jb, eta, nu)
                == kernels.binomial_coeff(wider, eta + (0,), nu + (0,)))

    pairs = [(eta, nu) for eta in etas for w2 in range(sum(eta) + 1)
             for nu in comb.compositions(n, w2)]
    return [_all_hold("binomial-defining-expansion", etas, expands,
                      n=n, alpha=alpha),
            _all_hold("binomial-n-independence", pairs, independent,
                      n=n, alpha=alpha, n_pair=[n, n + 1]),
            kernels.check_binomial_sum_rules(jb, max_weight)]


# ---------------------------------------------------------------------------
# constant-term


def suite_ct(k_set=(1, 2), max_weight=3, max_n=3):
    return [r for jb in _bases([Fraction(1, k) for k in k_set], 2, max_n)
            for r in _ct_checks(jb, max_weight)]


def _ct_checks(jb, max_weight):
    n, alpha, k = jb.n, jb.alpha, jb.alpha.denominator
    etas = comb.compositions_up_to(n, max_weight)
    later = {eta: etas[i + 1:] for i, eta in enumerate(etas)}

    def norms(eta):
        E = jb.E(eta)
        return (ct_inner(E, E, k) == ct_norm_formula(eta, k)
                and all(ct_inner(E, jb.E(nu), k) == 0 for nu in later[eta]))

    def recursions(eta):
        """Isometry of the raising cycle below the top weight, and the
        transposition recursion."""
        E = jb.E(eta)
        if sum(eta) < max_weight:
            up = jb.ops.phi(E)
            if ct_inner(up, up, k) != ct_inner(E, E, k):
                return False
        for i in range(n - 1):
            if eta[i] < eta[i + 1]:
                sw = comb.si_map(eta, i)
                gap = comb.delta_gap(eta, i, alpha)
                if (ct_inner(jb.E(sw), jb.E(sw), k)
                        != (1 - 1 / gap ** 2) * ct_inner(E, E, k)):
                    return False
        return True

    reps = [_all_hold("ct-orthogonality-and-norms", etas, norms,
                      n=n, k=k, alpha=alpha),
            _all_hold("ct-recursions", etas, recursions, n=n, k=k,
                      alpha=alpha)]
    for eta in etas:
        reps += [kadell_ratio_check(jb, eta, a, b, k)
                 for a in (0, 1, 2) for b in (0, 1, 2)]
        reps.append(norm_relation_check(jb, eta, k))
    return reps


def suite_sahi(alphas=(Fraction(1), Fraction(2), Fraction(7, 5)), max_weight=3,
               max_n=3):
    return [r for jb in _bases(alphas, 2, max_n)
            for r in _sahi_checks(jb, max_weight)]


def _sahi_checks(jb, max_weight):
    n, alpha = jb.n, jb.alpha
    hb = jb.hermite()
    si = SahiInner(n, alpha, max_weight)
    etas = comb.compositions_up_to(n, max_weight)
    pairs = [(eta, nu) for eta in etas for nu in etas if sum(eta) == sum(nu)]

    def basis_value(pair):
        eta, nu = pair
        want = (jb.d_prime_const(eta) / jb.d_const(eta)
                if eta == nu else Fraction(0))
        return si.inner(jb.E(eta), jb.E(nu)) == want

    def proportional(lam):
        lam_pad = tuple(lam) + (0,) * (n - len(lam))
        orbit = sorted(set(permutations(lam_pad)))
        f = jb.E(orbit[0]) + 2 * jb.E(orbit[-1])
        g = jb.E(orbit[len(orbit) // 2]) - 3 * jb.E(orbit[0])
        fac = jb.gen_fact(n / alpha + 1, lam_pad)
        return hb.pairing(f, g) == fac * si.inner(f, g)

    lams = [lam for w in range(max_weight + 1) for lam in comb.partitions(w, n)]
    return [_all_hold("sahi-inner-basis-values", pairs, basis_value,
                      n=n, alpha=alpha),
            _all_hold("sahi-pairing-proportionality", lams, proportional,
                      n=n, alpha=alpha)]


# ---------------------------------------------------------------------------
# numeric


def suite_numeric(alphas=(Fraction(1), Fraction(2)), a_set=DEFAULT_A_SET,
                  max_weight=3, D=6):
    # numpy and scipy load only here, so the exact suites and the CLI
    # start without them
    from . import quadrature as quad

    reps = list(quad.check_classical_reductions())
    for alpha in alphas:
        for n in (1, 2):
            reps.append(quad.check_ground_state_H(n, alpha))
            for a in a_set:
                reps.append(quad.check_ground_state_L(n, alpha, a))
        jb = JackBasis.shared(2, alpha)
        reps.extend(quad.check_gram_H(jb.hermite(), max_weight))
        for a in a_set:
            reps.extend(quad.check_gram_L(jb.laguerre(a), max_weight))
    # transform and beta-integral spot checks
    for n in (1, 2):
        jb1 = JackBasis.shared(n, Fraction(1))
        hb, lb = jb1.hermite(), jb1.laguerre(Fraction(1, 2))
        spot = [(0,) * n, (1,) + (0,) * (n - 1), (2, 1)[:n] if n > 1 else (2,)]
        for eta in spot:
            reps.append(quad.check_hermite_transform(hb, eta, D))
            reps.append(quad.check_hermite_transform_imaginary(hb, eta, D))
            reps.append(quad.check_laguerre_transform(lb, eta, D))
            for which in ("laguerre", "jack"):
                reps.append(quad.check_laplace_transform(lb, eta, which))
        for alpha in alphas:
            jb = JackBasis.shared(n, alpha)
            for eta in spot:
                for lam1, lam2 in ((Fraction(1, 2), 0), (Fraction(2), 2)):
                    reps.append(quad.check_selberg_ratio(jb, eta, lam1, lam2))
    return reps


# the one list of suite names; ``verify --suite`` takes these and "all"
SUITES = dict(operators=suite_operators, jack=suite_jack, hermite=suite_hermite,
              laguerre=suite_laguerre, kernels=suite_kernels,
              binomials=suite_binomials, ct=suite_ct, sahi=suite_sahi,
              numeric=suite_numeric)


def run_suite(name, **kwargs):
    """Run one suite (or 'all'); returns (all_passed, reports).

    Keywords set to None are left out.  'all' passes each suite the
    keywords it takes; a named suite rejects one it does not take.  A
    non-positive alpha or a negative ``max_weight`` is rejected before any
    suite runs, and a suite that files no report is an error: it checked
    nothing.
    """
    import inspect

    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if kwargs.get("max_weight", 0) < 0:
        raise ValueError("max_weight must be non-negative")
    if any(Fraction(alpha) <= 0 for alpha in kwargs.get("alphas", ())):
        raise ValueError("alpha must be positive")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}: choose all or one of "
                         f"{', '.join(SUITES)}")
    reports = []
    for suite in SUITES if name == "all" else [name]:
        fn = SUITES[suite]
        params = inspect.signature(fn).parameters
        taken = {k: v for k, v in kwargs.items() if k in params}
        if len(taken) < len(kwargs) and name != "all":
            raise ValueError(f"suite {name!r} does not take "
                             f"{', '.join(sorted(kwargs.keys() - taken))}")
        filed = fn(**taken)
        if not filed:
            raise ValueError(f"suite {suite!r} checks nothing at these sizes")
        reports += filed
    return all(r["status"] == "pass" for r in reports), reports
