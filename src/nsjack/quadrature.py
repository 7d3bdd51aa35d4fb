"""Floating-point quadrature validation of the integral statements.

Everything exact lives elsewhere; this module spot-checks (n <= 2) the
ground-state normalizations, orthogonality under the Gaussian and
Laguerre-type measures, the kernel transform formulas, and the Laplace
transform evaluations.  The two families share one Gram loop and one
kernel-transform routine; each public check passes its family's rule,
ground state, kernel and names.

Each measure is a rule: a tuple of node-coordinate arrays and one weight
array that carries every scale factor, so each integral is one weighted
sum with the integrand called once, on all the nodes.  The kink of
|x_1 - x_2|^(2/alpha) is removed by a change of variables that splits the
domain along the diagonal: rotated coordinates for the Gaussian weight,
scaled barycentric coordinates for the Laguerre weight.  Each
one-dimensional factor then gets a classical Gauss rule that treats the
algebraic weight exactly, and the n = 2 rule is their tensor grid on both
sides of the diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gamma, pi, sqrt

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from . import combinat as comb
from .kernels import kernel_KA, kernel_KB
from .poly import SparsePoly
from .reports import report

# relative tolerances: the ground states, the Laplace transforms and the
# Gram off-diagonal share TOL
TOL = 1e-8
GRAM_DIAGONAL_TOL = 1e-7
SELBERG_TOL = 1e-9
CLASSICAL_TOL = 1e-10
SELBERG_NPTS = 48
# the kernel arguments of the transform checks, first n components
GAUSSIAN_Z = (0.4, -0.3)
LAGUERRE_Z = (0.3, 0.15)
LAPLACE_TAU = 1.5
# the one-variable layer of check_classical_reductions
CLASSICAL_ALPHA = 1.0
CLASSICAL_A = 0.5


def evaluator(p):
    """Compile a sparse polynomial to a broadcasting numeric callable."""
    terms = [(e, float(c)) for e, c in p.terms.items()]

    def f(*coords):
        total = 0.0
        for e, c in terms:
            term = c
            for x, k in zip(coords, e):
                if k:
                    term = term * x ** k
            total = total + term
        return total

    return f


# ---------------------------------------------------------------------------
# rules: a tuple of node-coordinate arrays and one weight array


def integrate(rule, h):
    """The weighted sum of h over the rule's nodes, h called once on all of
    them: a Python float, or complex if h is complex."""
    nodes, w = rule
    total = np.sum(w * h(*nodes))
    return complex(total) if np.iscomplexobj(total) else float(total)


def _both_orders(x1, x2, w):
    """A rule on the grid (x1, x2) and on its mirror image (x2, x1), with
    the weights w on each."""
    x1, x2, w = x1.ravel(), x2.ravel(), w.ravel()
    return ((np.concatenate([x1, x2]), np.concatenate([x2, x1])),
            np.concatenate([w, w]))


def gaussian_rule(alpha, deg, n, npts=None):
    """Rule for prod exp(-x_i^2) * prod |x_i - x_j|^(2/alpha) over R^n, for
    n in {1, 2}; ``deg`` bounds the integrand's polynomial degree and sets
    the rule sizes."""
    alpha = float(alpha)
    if n == 1:
        x, w = np.polynomial.hermite.hermgauss(npts or max(deg // 2 + 6, 12))
        return (x,), w
    if n != 2:
        raise ValueError("gaussian quadrature implemented for n <= 2")
    N = npts or max(deg // 2 + 8, 16)
    xv, wv = np.polynomial.hermite.hermgauss(N)
    s, ws = roots_genlaguerre(N, 1.0 / alpha - 0.5)
    # rotated coordinates v = (x1 + x2)/sqrt 2, u = |x1 - x2|/sqrt 2: the
    # kink u^(2/alpha) joins the generalized Laguerre weight in s = u^2
    v, u = np.meshgrid(xv, np.sqrt(s), indexing="ij")
    w = np.outer(wv, ws) * (0.5 * 2.0 ** (1.0 / alpha))
    return _both_orders((v + u) / sqrt(2.0), (v - u) / sqrt(2.0), w)


def laguerre_rule(alpha, a, deg, n, rate=1.0):
    """Rule for prod y_i^a exp(-rate*y_i) * prod |y_i-y_j|^(2/alpha) over
    [0, inf)^n, for n in {1, 2}, sized like ``gaussian_rule``."""
    alpha, a, rate = float(alpha), float(a), float(rate)
    if n == 1:
        s, w = roots_genlaguerre(max(deg + 6, 12), a)
        return (s / rate,), w * rate ** (-a - 1.0)
    if n != 2:
        raise ValueError("laguerre quadrature implemented for n <= 2")
    N = max(deg + 10, 24)
    gam = 2.0 * a + 2.0 / alpha + 1.0
    s, ws = roots_genlaguerre(N, gam)
    xj, wj = roots_jacobi(N, a, 2.0 / alpha)
    # scaled barycentric coordinates: y1 + y2 = u, y1 - y2 = u t with t >= 0
    u, t = np.meshgrid(s / rate, (1.0 + xj) / 2.0, indexing="ij")
    w = (np.outer(ws, wj * ((3.0 + xj) / 2.0) ** a)
         * (2.0 ** (-2.0 * a - 1.0) * 2.0 ** (-1.0 - a - 2.0 / alpha)
            * rate ** (-gam - 1.0)))
    return _both_orders(u * (1.0 + t) / 2.0, u * (1.0 - t) / 2.0, w)


def gaussian_weighted_integral(h, alpha, deg, n, npts=None):
    """Integral of h, a callable of the coordinates, against the measure of
    ``gaussian_rule``.  At n = 1 a negligible imaginary part is dropped."""
    total = integrate(gaussian_rule(alpha, deg, n, npts), h)
    return np.real_if_close(total).item() if n == 1 else total


def laguerre_weighted_integral(h, alpha, a, deg, n, rate=1.0):
    """Integral of h against the Laguerre-type measure of ``laguerre_rule``."""
    return integrate(laguerre_rule(alpha, a, deg, n, rate), h)


def _one(*xs):
    """The constant integrand 1."""
    return 1.0


# ---------------------------------------------------------------------------
# ground-state normalizations


def ground_state_H(n, alpha):
    """Gaussian ground-state normalization (Selberg-type product)."""
    alpha = float(alpha)
    out = 2.0 ** (-n * (n - 1) / (2.0 * alpha)) * pi ** (n / 2.0)
    for j in range(n):
        out *= gamma(1.0 + (j + 1) / alpha) / gamma(1.0 + 1.0 / alpha)
    return out


def ground_state_L(n, alpha, a):
    """Laguerre ground-state normalization (Selberg-type product)."""
    alpha = float(alpha)
    a = float(a)
    out = 1.0
    for j in range(n):
        out *= (gamma(1.0 + (j + 1) / alpha) * gamma(a + 1.0 + j / alpha)
                / gamma(1.0 + 1.0 / alpha))
    return out


# ---------------------------------------------------------------------------
# report plumbing


def _plain(x):
    """A numpy scalar as the Python float or complex of the same value, whose
    repr is the bare number (numpy 2 reprs ``np.float64(...)``)."""
    return x.item() if isinstance(x, np.generic) else x


def _report(check, n, alpha, lhs, rhs, tol, a=None, budget=None, **params):
    """Report on lhs against rhs to the relative tolerance ``tol``; ``a``,
    when given, leads ``params``, and a truncation ``budget`` joins the
    values."""
    lhs_c, rhs_c = complex(lhs), complex(rhs)
    abs_err = abs(lhs_c - rhs_c)
    rel_err = abs_err / max(1.0, abs(lhs_c), abs(rhs_c))
    values = {"lhs": repr(_plain(lhs)), "rhs": repr(_plain(rhs)),
              "abs_err": abs_err, "rel_err": rel_err, "tolerance": tol}
    if budget is not None:
        values["truncation_budget"] = budget
    if a is not None:
        params = {"a": str(a), **params}
    return report(check, rel_err <= tol, n, alpha, params, values=values)


# ---------------------------------------------------------------------------
# checks


def check_ground_state_H(n, alpha):
    got = gaussian_weighted_integral(_one, alpha, 0, n)
    return _report("ground-state-gaussian", n, alpha, got,
                   ground_state_H(n, alpha), TOL)


def check_ground_state_L(n, alpha, a):
    got = laguerre_weighted_integral(_one, alpha, a, 0, n)
    return _report("ground-state-laguerre", n, alpha, got,
                   ground_state_L(n, alpha, a), TOL, a=a)


def _check_gram(family, max_weight, rule, n0, prefix, a):
    """Numeric Gram matrix of a deformed family under ``rule``, of degree
    2 * max_weight, against the exact norm ratios times the ground state
    ``n0``: diagonal to GRAM_DIAGONAL_TOL, off-diagonal to TOL (relative).
    Each polynomial is evaluated once at the nodes; each entry is a
    weighted dot product of two value arrays."""
    jack = family.jack
    n, alpha = jack.n, jack.alpha
    nodes, w = rule
    etas = comb.compositions_up_to(n, max_weight)
    vals = [evaluator(family.E(eta))(*nodes) for eta in etas]
    out = []
    for i, eta in enumerate(etas):
        for j, nu in enumerate(etas[i:], i):
            got = float(np.sum(w * vals[i] * vals[j]))
            if eta == nu:
                want = float(family.norm_ratio(eta)) * n0
                rep = _report(f"{prefix}-gram-diagonal", n, alpha, got, want,
                              GRAM_DIAGONAL_TOL, a=a, eta=list(eta))
            else:
                scale = n0 * sqrt(float(family.norm_ratio(eta))
                                  * float(family.norm_ratio(nu)))
                rep = _report(f"{prefix}-gram-offdiagonal", n, alpha,
                              got / scale, 0.0, TOL, a=a, eta=list(eta),
                              nu=list(nu))
            out.append(rep)
    return out


def check_gram_H(hermite, max_weight):
    """Gram check of the Gaussian family."""
    n, alpha = hermite.n, hermite.alpha
    return _check_gram(hermite, max_weight,
                       gaussian_rule(alpha, 2 * max_weight, n),
                       ground_state_H(n, alpha), "gaussian", None)


def check_gram_L(laguerre, max_weight):
    """Gram check of the Laguerre-type family."""
    n, alpha, a = laguerre.n, laguerre.alpha, laguerre.a
    return _check_gram(laguerre, max_weight,
                       laguerre_rule(alpha, a, 2 * max_weight, n),
                       ground_state_L(n, alpha, a), "laguerre", a)


def _check_transform(check, family, eta, D, zval, kernel, integral, inner,
                     zpt, rhs, rot=None, a=None):
    """Kernel-transform integral against its closed form ``rhs``.

    ``kernel(level)`` is the truncated kernel whose y block is fixed at
    ``zpt``, ``integral(fn, deg)`` the family's weighted integral, and
    ``inner`` is evaluated at the x block, or at ``rot`` times it (then
    the lhs is reported as complex).  The coarse level D sets the
    truncation budget; parity can silence the first omitted slice, so the
    fine level sits two degrees higher.  Below |eta| both truncations
    miss eta's slice, so both integrals vanish and the budget is empty.
    """
    if D < sum(eta):
        raise ValueError(f"transform truncation D = {D} lies below "
                         f"|eta| = {sum(eta)}")
    ev = evaluator(inner)

    def ev_inner(*xs):
        return ev(*xs) if rot is None else ev(*[rot * x for x in xs])

    vals = []
    for level in (D, D + 2):
        K = kernel(level)
        ev_kernel = evaluator(K)
        deg = K.total_degree() + inner.total_degree()
        vals.append(integral(
            lambda *xs: ev_kernel(*xs, *zpt) * ev_inner(*xs), deg))
    lhs_D, lhs = vals
    budget = abs(lhs - lhs_D)
    if rot is not None:
        lhs = complex(lhs)
    tol = max(1e-6, 10.0 * budget / max(1.0, abs(rhs)))
    return _report(check, family.n, family.alpha, lhs, rhs, tol, a=a,
                   budget=budget, D=D, eta=list(eta), z=zval)


def _gaussian_transform(check, hermite, eta, D, zval, inner, zpt, rhs,
                        rot=None):
    """The transform check through the Gaussian kernel K_A(2x, y)."""
    n, alpha = hermite.n, hermite.alpha
    return _check_transform(
        check, hermite, eta, D, zval,
        lambda level: kernel_KA(hermite.jack, level).scale_vars(2, range(n)),
        lambda fn, deg: gaussian_weighted_integral(fn, alpha, deg, n),
        inner, zpt, rhs, rot=rot)


def check_hermite_transform(hermite, eta, D):
    """Gaussian-kernel integral of the deformed polynomial reproduces the
    plain one at the kernel argument (exp-weighted)."""
    jack = hermite.jack
    n, alpha = jack.n, jack.alpha
    zval = list(GAUSSIAN_Z[:n])
    rhs = (ground_state_H(n, alpha)
           * np.exp(sum(z * z for z in zval))
           * evaluator(jack.E(eta))(*zval))
    return _gaussian_transform("gaussian-kernel-transform", hermite, eta, D,
                               zval, hermite.E(eta), list(zval), rhs)


def check_hermite_transform_imaginary(hermite, eta, D):
    """Rotated variant: integrating the plain polynomial at imaginary
    argument reproduces the deformed one."""
    jack = hermite.jack
    n, alpha = jack.n, jack.alpha
    zval = list(GAUSSIAN_Z[:n])
    rhs = (ground_state_H(n, alpha)
           * np.exp(-sum(z * z for z in zval))
           * evaluator(hermite.E(eta))(*zval))
    return _gaussian_transform("gaussian-kernel-transform-imaginary", hermite,
                               eta, D, zval, jack.E(eta),
                               [-1j * z for z in zval], rhs, rot=1j)


def check_laguerre_transform(laguerre, eta, D):
    """Laguerre-kernel integral of the plain polynomial at negated argument
    reproduces the deformed one."""
    jack = laguerre.jack
    n, alpha = jack.n, jack.alpha
    a = laguerre.a
    zval = list(LAGUERRE_Z[:n])
    rhs = (ground_state_L(n, alpha, a) * np.exp(-sum(zval))
           * evaluator(laguerre.E(eta))(*zval))
    return _check_transform(
        "laguerre-kernel-transform", laguerre, eta, D, zval,
        lambda level: kernel_KB(jack, a, level),
        lambda fn, deg: laguerre_weighted_integral(fn, alpha, a, deg, n),
        jack.E(eta).scale_vars(-1), [-z for z in zval], rhs, a=a)


def check_laplace_transform(laguerre, eta, which):
    """Laplace transform evaluations at equal components t = tau * (1,..,1),
    tau = LAPLACE_TAU, where the type-A kernel collapses exactly to
    exp(-tau * sum x).

    ``which`` selects the deformed ('laguerre') or plain ('jack') input.
    """
    jack = laguerre.jack
    n, alpha = jack.n, jack.alpha
    a = laguerre.a
    aq = laguerre.shifted_a
    tau = LAPLACE_TAU
    if which == "laguerre":
        inner = laguerre.E(eta)
        rhs_poly = jack.E(eta)
        rhs_arg = [1.0 / tau - 1.0] * n
    elif which == "jack":
        inner = jack.E(eta)
        rhs_poly = jack.E(eta)
        rhs_arg = [1.0 / tau] * n
    else:
        raise ValueError("which must be 'laguerre' or 'jack'")
    lhs = laguerre_weighted_integral(evaluator(inner), alpha, a,
                                     inner.total_degree(), n, rate=tau)
    rhs = (float(jack.gen_fact(aq, eta)) * ground_state_L(n, alpha, a)
           * tau ** (-n * float(aq)) * evaluator(rhs_poly)(*rhs_arg))
    return _report(f"laplace-transform-{which}", n, alpha, lhs, rhs, TOL,
                   a=a, eta=list(eta), tau=tau)


def check_selberg_ratio(jack, eta, lam1, lam2):
    """Beta-weighted integral ratio over the unit cube (n <= 2):

    the average of E_eta under t^lam1 (1-t)^lam2 |t_i - t_j|^(2/alpha)
    against its closed rising-factorial form.  lam2 must be a
    non-negative integer so the quadrature stays exact.
    """
    n, alpha = jack.n, jack.alpha
    if lam2 != int(lam2) or lam2 < 0:
        raise ValueError("lam2 must be a non-negative integer")
    lam1f, lam2f, alf = float(lam1), float(lam2), float(alpha)
    if n == 1:
        x, w = roots_jacobi(SELBERG_NPTS, lam2f, lam1f)
        rule = ((1.0 + x) / 2.0,), w
    elif n == 2:
        # fold to t1 > t2 and substitute t2 = t1 * s: both axes get
        # Jacobi weights, the leftover (1 - t1 s)^lam2 is polynomial
        xo, wo = roots_jacobi(SELBERG_NPTS, lam2f,
                              2.0 * lam1f + 2.0 / alf + 1.0)
        xi, wi = roots_jacobi(SELBERG_NPTS, 2.0 / alf, lam1f)
        t1, s = np.meshgrid((1.0 + xo) / 2.0, (1.0 + xi) / 2.0,
                            indexing="ij")
        rule = _both_orders(t1, t1 * s,
                            np.outer(wo, wi) * (1.0 - t1 * s) ** lam2f)
    else:
        raise ValueError("implemented for n <= 2")
    num = integrate(rule, evaluator(jack.E(tuple(eta))))
    den = integrate(rule, _one)
    lhs = num / den
    kappa = comb.eta_plus(tuple(eta))
    top = jack.gen_fact(Fraction(lam1) + jack.q, kappa)
    bot = jack.gen_fact(Fraction(lam1) + Fraction(lam2) + 2 * jack.q, kappa)
    rhs = float(jack.eval_ones(eta) * top / bot)
    return _report("selberg-integral-ratio", n, alpha, lhs, rhs, SELBERG_TOL,
                   eta=list(eta), lam1=str(lam1), lam2=str(lam2))


def check_classical_reductions():
    """n = 1 sanity layer: the machinery reduces to textbook values."""
    alpha, a, tol = CLASSICAL_ALPHA, CLASSICAL_A, CLASSICAL_TOL
    out = []
    got = gaussian_weighted_integral(_one, alpha, 0, 1)
    out.append(_report("classical-gaussian-total-mass", 1, alpha, got,
                       sqrt(pi), tol))
    got = laguerre_weighted_integral(_one, alpha, a, 0, 1)
    out.append(_report("classical-laguerre-total-mass", 1, alpha, got,
                       gamma(a + 1.0), tol, a=a))
    # one-variable Laplace transform of x^a x^k against its gamma value
    for k in range(4):
        tau = 1.25
        mono = SparsePoly.monomial(1, (k,))
        lhs = laguerre_weighted_integral(evaluator(mono), alpha, a, k, 1,
                                         rate=tau)
        rhs = gamma(a + k + 1.0) / tau ** (a + k + 1.0)
        out.append(_report("classical-laplace-monomial", 1, alpha, lhs, rhs,
                           tol, a=a, k=k))
    # one-variable kernel transform with the exact exponential kernel
    from .jack import JackBasis

    hb = JackBasis(1, alpha).hermite()
    z = 0.4
    for k in range(4):
        ev = evaluator(hb.E((k,)))
        fn = lambda y: np.exp(2.0 * y * z) * ev(y)
        lhs = gaussian_weighted_integral(fn, alpha, 2 * k + 40, 1, npts=64)
        rhs = sqrt(pi) * np.exp(z * z) * z ** k
        out.append(_report("classical-gaussian-kernel-transform", 1, alpha,
                           lhs, rhs, tol, k=k))
    return out

