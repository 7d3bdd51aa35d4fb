"""Constant-term inner product and the identities built on it.

For a positive integer k = 1/alpha the interaction weight expands as a
Laurent polynomial, so the torus inner product reduces to an exact
constant-term extraction.  This module also hosts the power-sum-style
inner product defined through a bilinear generating function, and its
relation to the Dunkl pairing.

The module keeps no cache of its own: the interaction weight at (n, k)
lives in the memo of the shared basis at (n, 1/k), and the pruned
beta weight of ``kadell_ratio_check`` in the memo of the basis it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from . import combinat as comb
from .jack import JackBasis
from .linalg import solve_exact
from .poly import SparsePoly, rising, series_binomial
from .reports import report

# the smallest degree the beta weight of kadell_ratio_check is pruned to
KADELL_DEPTH = 4


def _pair_factor(n, i, j, k):
    """[(1 - x_i/x_j)(1 - x_j/x_i)]^k as a Laurent polynomial."""
    e_plus = [0] * n
    e_plus[i], e_plus[j] = 1, -1
    base = (SparsePoly.one(n) - SparsePoly.monomial(n, tuple(e_plus))) * (
        SparsePoly.one(n) - SparsePoly.monomial(n, tuple(-x for x in e_plus)))
    return base ** k


def interaction_weight(n, k):
    """The full Laurent interaction weight at integer coupling k, kept by
    the shared basis at (n, 1/k)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("constant-term inner product needs integer coupling k >= 1")
    return JackBasis.shared(n, Fraction(1, k))._memo(
        ("ct_weight",), _interaction_weight, n, k)


def _interaction_weight(n, k):
    out = SparsePoly.one(n)
    for i, j in combinations(range(n), 2):
        out = out * _pair_factor(n, i, j, k)
    return out


def _ct_product(p, q):
    """Constant term of p * q, by pairing each term of p against the
    opposite exponent of q (maximal pruning: only exponents that land
    exactly on zero are ever touched)."""
    qnum = q.num
    total = sum(c * qnum.get(tuple(-x for x in e), 0) for e, c in p.num.items())
    return Fraction(total, p.den * q.den)


def weighted_ct(p, k):
    """Constant term of p times the interaction weight."""
    return _ct_product(p, interaction_weight(p.n, k))


def ct_inner(f, g, k):
    """Constant term of f(x) g(1/x) times the interaction weight."""
    if g.n != f.n:
        raise ValueError("ambient dimension mismatch")
    return weighted_ct(f * g.invert_vars(), k)


def ct_norm_formula(eta, k):
    """Closed-form diagonal norm: double product over pairs of spectral gaps."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("needs integer coupling k >= 1")
    n = len(eta)
    alpha = Fraction(1, k)
    bars = comb.eta_bar_vec(eta, alpha)
    out = Fraction(1)
    for i, j in combinations(range(n), 2):
        gap = bars[j] - bars[i]
        eps = 1 if gap > 0 else -1
        for p in range(k):
            ratio = (k * gap + p) / (k * gap - p - 1)
            out *= ratio if eps == 1 else 1 / ratio
    return out


def _beta_weight(n, a, b, k, depth):
    """prod_i (1-x_i)^a (1-1/x_i)^b times the interaction weight, pruned to
    the exponent window that polynomials of degree <= depth can pair with.

    Factors are multiplied one at a time; a term is dropped as soon as the
    remaining factors cannot bring its exponent back into the window.
    """
    factors = []
    lo, hi = [], []
    for i in range(n):
        xi = SparsePoly.variable(n, i)
        factors.append((SparsePoly.one(n) - xi) ** a)
        hi.append(tuple(a if v == i else 0 for v in range(n)))
        lo.append((0,) * n)
        factors.append((SparsePoly.one(n) - xi.invert_vars()) ** b)
        hi.append((0,) * n)
        lo.append(tuple(-b if v == i else 0 for v in range(n)))
    for i, j in combinations(range(n), 2):
        factors.append(_pair_factor(n, i, j, k))
        hi.append(tuple(k if v in (i, j) else 0 for v in range(n)))
        lo.append(tuple(-k if v in (i, j) else 0 for v in range(n)))
    # suffix reach of the remaining factors
    suffix_lo = [(0,) * n]
    suffix_hi = [(0,) * n]
    for L, H in zip(reversed(lo), reversed(hi)):
        suffix_lo.append(tuple(x + y for x, y in zip(suffix_lo[-1], L)))
        suffix_hi.append(tuple(x + y for x, y in zip(suffix_hi[-1], H)))
    suffix_lo.reverse()
    suffix_hi.reverse()
    prod = SparsePoly.one(n)
    for t, f in enumerate(factors):
        prod = prod * f
        slo, shi = suffix_lo[t + 1], suffix_hi[t + 1]
        prod = prod.filter_terms(
            lambda e: all(e[v] + slo[v] <= 0 and e[v] + shi[v] >= -depth
                          for v in range(n)))
    return prod


def kadell_ratio_check(jack, eta, a, b, k):
    """Ratio of beta-weighted constant terms against the closed product form.

    Exact check of the Selberg-type evaluation for integer exponents a, b
    and integer coupling k = 1/alpha; the beta weight is pruned to degree
    max(KADELL_DEPTH, |eta|).
    """
    eta = tuple(eta)
    n = jack.n
    if jack.alpha != Fraction(1, k):
        raise ValueError("basis coupling must equal 1/k")
    depth = max(KADELL_DEPTH, sum(eta))
    P = jack._memo(("beta_weight", a, b, depth), _beta_weight, n, a, b, k, depth)
    lhs = _ct_product(jack.E(eta), P) / P.constant_term()
    kappa = comb.eta_plus(eta)
    top = jack.gen_fact(-b, kappa)
    bot = jack.gen_fact(a + jack.q, kappa)
    rhs = jack.eval_ones(eta) * top / bot
    return report("kadell-ratio", lhs == rhs, n, jack.alpha,
                  {"eta": list(eta), "a": a, "b": b, "k": k},
                  values={"lhs": str(lhs), "rhs": str(rhs)})


def norm_relation_check(jack, eta, k):
    """Relation between the constant-term norm ratio and the all-ones value,
    with the gamma ratios reduced to exact rising factorials."""
    eta = tuple(eta)
    n = jack.n
    if jack.alpha != Fraction(1, k):
        raise ValueError("basis coupling must equal 1/k")
    al = jack.alpha
    E = jack.E(eta)
    norm_eta = ct_inner(E, E, k)
    norm_0 = ct_inner(SparsePoly.one(n), SparsePoly.one(n), k)
    lhs = al ** sum(eta) / jack.d_prime_const(eta) * norm_eta / norm_0
    kappa = comb.eta_plus(eta)
    gamma_ratio = Fraction(1)
    for j in range(1, n + 1):
        gamma_ratio *= rising(1 + Fraction(j - 1) / al, kappa[n - j])
    rhs = jack.eval_ones(eta) / gamma_ratio
    return report("ct-norm-relation", lhs == rhs, n, al,
                  {"eta": list(eta), "k": k},
                  values={"lhs": str(lhs), "rhs": str(rhs)})


# ---------------------------------------------------------------------------
# power-sum-style inner product


def power_sum_basis(n, alpha, D):
    """The dual basis polynomials p_eta from the bilinear generating function

    prod_i 1/(1-x_i y_i) * prod_{i,j} 1/(1-x_i y_j)^(1/alpha),

    expanded through total y-degree D; returns {eta: p_eta}.
    """
    alpha = Fraction(alpha)
    inv = 1 / alpha
    total = SparsePoly.one(2 * n)
    for i in range(n):
        for j in range(n):
            expo = inv + 1 if i == j else inv
            # (1 - x_i y_j)^(-expo): distinct exponents, one term each
            factor = {}
            for m, c in enumerate(series_binomial(expo, D)):
                e = [0] * (2 * n)
                e[i], e[n + j] = m, m
                factor[tuple(e)] = c
            total = total.mul_truncated(SparsePoly(2 * n, factor),
                                        range(n, 2 * n), D)
    out = {}
    for e, c in total.terms.items():
        eta = e[n:]
        xexp = e[:n]
        p = out.setdefault(eta, {})
        p[xexp] = c
    return {eta: SparsePoly(n, terms) for eta, terms in out.items()}


class SahiInner:
    """Inner product making the monomials dual to the p_eta family."""

    def __init__(self, n, alpha, D):
        self.n = n
        self.alpha = Fraction(alpha)
        self.D = D
        self.p = power_sum_basis(n, alpha, D)
        # monomial m = sum_eta (dual[m][eta] / den[d]) p_eta in integers over
        # one denominator per weight d: each weight's system is solved once,
        # for the unit vectors of its monomials
        self._dual, self._den = {}, {}
        for d in range(D + 1):
            etas = [eta for eta in self.p if sum(eta) == d]
            monos = sorted({e for eta in etas for e in self.p[eta].terms})
            rows = [[self.p[eta].terms.get(m, Fraction(0)) for eta in etas]
                    for m in monos]
            try:
                sols = [solve_exact(rows, [int(k == m) for k in monos])
                        for m in monos]
            except ArithmeticError as exc:
                raise ArithmeticError(f"p-basis failed to span degree {d} at "
                                      f"alpha={self.alpha}") from exc
            den = lcm(*(x.denominator for sol in sols for x in sol))
            self._den[d] = den
            for m, sol in zip(monos, sols):
                self._dual[m] = {eta: x.numerator * (den // x.denominator)
                                 for eta, x in zip(etas, sol)}

    def _degree(self, f):
        """The degree d of f, which must be homogeneous with d <= D and every
        monomial in the table of degree d."""
        if not f.is_homogeneous():
            raise ValueError("inner product arguments must be homogeneous")
        d = f.total_degree()
        if d > self.D:
            raise ValueError("degree exceeds the prepared table")
        # the generating function is symmetric in x and y, so the labels of
        # weight d are also the monomials of the p_eta of degree d
        outside = [e for e in f.terms if e not in self.p]
        if outside:
            raise ValueError(f"monomial {outside[0]} is outside the degree-{d} "
                             "table")
        return d

    def inner(self, f, g):
        """<f, g> = sum_nu f_nu c_nu, where f_nu are the monomial
        coefficients of f and g = sum_nu c_nu p_nu: the monomials are dual
        to the p_nu, so only g is expanded."""
        if f.is_zero or g.is_zero:
            return Fraction(0)
        if f.total_degree() != g.total_degree():
            return Fraction(0)
        d = self._degree(f)
        self._degree(g)
        gc = {}
        for m, c in g.num.items():
            for eta, x in self._dual[m].items():
                gc[eta] = gc.get(eta, 0) + c * x
        total = sum(c * gc[e] for e, c in f.num.items())
        return Fraction(total, f.den * g.den * self._den[d])
