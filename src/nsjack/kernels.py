"""Degree-truncated bilinear kernels, generalized binomial coefficients,
and the identity suite built on them.

A truncated kernel lives in 2n variables: the first n form the x block,
the last n the y block.  Its bidegree-(d,d) slice is the weight-d part of
the bilinear sum over labels, so an identity involving multiplication by
an exponential or a binomial series is compared only on the degree range
where both sides are complete; each check states its own range.

Every kernel-shaped sum here is one ``kernel_series`` call: the kernels
K_A, K_B, 1K1 and 2K1, and the kernel side of each generating function,
with up and down weights [u]_eta and [v]_eta on top of the kernel weight
``_weight`` = alpha^|eta| d/(d' e).  All bilinear sums, ``kernel_series``,
``hyper_0F0`` and the summation sides, go through ``_bilinear_sum``, which
writes each label's F_eta(x) G_eta(y) as an outer product of the two
numerator dicts into one integer accumulator, with no embedded copies or
per-label product.  The label constants, the binomial rows and the
deformed families all come from the basis, built once per basis; so do
K_A and K_B, which several checks read, while the single-use 1K1 and 2K1
kernels are built per call.  The x- and y-block operators of the checks
are views of the basis's ``jack.ops`` (``Operators.on_block``), so they
share its monomial images.  The substitutions on one block of variables
(rescaling, embedding, power sums, symmetrizing) are those of ``poly``,
and every product truncated in a block is a ``SparsePoly.mul_truncated``.
Every check files its report through ``reports.report``; those that run
label by label go through ``reports.first_failing``, and their sums of
c(nu) E_nu over binomial coefficients are ``binomial_expansion``.  A
deformed family (a ``DeformedBasis``) plugs into the checks through:

- its generating function: ``kernel_series`` with the family's E in the
  x slot.  E_eta is homogeneous, so a per-label factor 2^|eta| or
  (-1)^|eta| is the substitution y -> 2y or y -> -y, and [a + q]_eta is a
  down weight.  Hermite and Laguerre (``_exp_gf``) compare it with K_A,
  or K_B(a), times an exponential in y; the 1K1 generating function
  (``_geometric_gf``) compares it with 1K1 at a geometric change of
  argument, and the K_A-Laguerre one is the same identity at c = a,
  where 1K1 is K_A;
- its summation formula (``_summation``): the norm-weighted bilinear sum
  of E^family_eta(x) E^family_eta(y) t^|eta|, through t-degree D, against
  (1 - t^rho)^(-gamma) exp(-u (p_rho(x) + p_rho(y))) times the kernel
  slices, slice d scaled by t^d (1 - t^rho)^(-(2/rho) d) and its x block
  by the x-scale.  Here rho is the family's ``radius_degree``, gamma its
  ``gamma`` and u = t^rho / (1 - t^rho); the kernel is K_A with x-scale 2
  for Hermite and K_B(a) with x-scale 1 for Laguerre, built in 2n
  variables and embedded in the 2n + 1 of the check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import combinat as comb
from .poly import (ZERO, SparsePoly, _bring_over, _from_num, exp_truncated,
                   geometric_substitution, linear_combination, power_sum,
                   series_binomial, symmetrize)
from .reports import first_failing, report

# ---------------------------------------------------------------------------
# blocks and labels


def xdeg(e, n):
    return sum(e[:n])


def ydeg(e, n):
    return sum(e[n:2 * n])


def _labels(n, weights):
    """The compositions with n parts of the given weights, weight by weight."""
    return (eta for w in weights for eta in comb.compositions(n, w))


def _series(total, var, c, step, cap):
    """(1 - v^step)^(-c) in the variable ``var`` of ``total``, through
    v-degree ``cap``."""
    coeffs = enumerate(series_binomial(c, cap // step))
    return SparsePoly(1, {(step * k,): ck for k, ck in coeffs}).embed(total, var)


# ---------------------------------------------------------------------------
# kernels


def _weight(jack, eta):
    """The kernel weight alpha^|eta| d_eta / (d'_eta e_eta) of a label."""
    return jack.alpha ** sum(eta) * jack.d_const(eta) / (
        jack.d_prime_const(eta) * jack.e_const(eta))


def _bilinear_sum(n, F, G, weight, labels, extra=0):
    """sum over ``labels`` of weight(label) F(label)(x) G(label)(y) in
    2n + ``extra`` variables: F (in n variables) fills the first n, G
    those from n on, and the weights are scalars.

    Each label's term is an outer product written straight into one dict
    of integer numerators over a running denominator, as in
    ``linear_combination``: the exponent of a pair is e1 + e2, padded
    with zeros up to 2n + ``extra``, and the sum is reduced once."""
    m = 2 * n + extra
    out = {}
    den = 1
    get = out.get
    for eta in labels:
        c = Fraction(weight(eta))
        f, g = F(eta), G(eta)
        room = m - n - g.n
        if f.n != n or room < 0:
            raise ValueError(f"{f.n} + {g.n} variables do not fit in {m}")
        if not c or not f.num or not g.num:
            continue
        den, k = _bring_over(out, den, c, f.den * g.den)
        gterms = g.num.items()
        if room:
            pad = (0,) * room
            gterms = [(e2 + pad, v2) for e2, v2 in gterms]
        for e1, v1 in f.num.items():
            k1 = k * v1
            for e2, v2 in gterms:
                e = e1 + e2
                out[e] = get(e, 0) + k1 * v2
    return _from_num(m, out, den)


def kernel_series(jack, up, down, D, x_family=None):
    """Truncated bilinear series sum_{|eta| <= D} of

    alpha^{|eta|} * prod [u]_eta / prod [v]_eta * d/(d'e) * F_eta(x) E_eta(y),

    where F_eta = x_family(eta), the basis's E_eta by default.

    Raises if a denominator factor vanishes, naming the offending label.
    """
    def weight(eta):
        coeff = _weight(jack, eta)
        for u in up:
            coeff *= jack.gen_fact(u, eta)
        for v in down:
            gv = jack.gen_fact(v, eta)
            if gv == 0:
                raise ValueError(f"singular kernel parameter {v} at label {eta}")
            coeff /= gv
        return coeff

    return _bilinear_sum(jack.n, x_family or jack.E, jack.E, weight,
                         _labels(jack.n, range(D + 1)))


def kernel_KA(jack, D):
    return jack._memo(("K_A", D), kernel_series, jack, (), (), D)


def kernel_KB(jack, a, D):
    a = Fraction(a)
    return jack._memo(("K_B", a, D), kernel_series, jack, (), (a + jack.q,), D)


def hyper_0F0(jack, D):
    """Truncated symmetric hypergeometric kernel built from the J basis."""
    n = jack.n
    return _bilinear_sum(
        n, jack.J, jack.J, lambda kappa: jack.alpha ** sum(kappa)
        / (jack.hook_norm_j(kappa) * jack.J_ones(kappa)),
        (kappa for w in range(D + 1) for kappa in comb.partitions(w, n)))


def kernel_slices(kernel, n, D):
    """Split a truncated kernel into its bidegree-(d,d) slices."""
    return [kernel.filter_terms(lambda e, d=d: xdeg(e, n) == d)
            for d in range(D + 1)]


# ---------------------------------------------------------------------------
# generalized binomial coefficients


def binomial_coeff(jack, eta, nu):
    """The generalized binomial coefficient (eta over nu), read from the
    basis's row of eta; a lower label that is not a composition with n
    parts raises ``ValueError`` instead of reading as 0."""
    return jack.binomial_row(eta).get(jack._label(nu), ZERO)


def binomial_expansion(jack, eta, weights, factor, E=None, raising=False):
    """sum of b(nu) factor(nu) E(nu) over the labels nu of the given
    weights, where b(nu) is the binomial coefficient (eta over nu), or (nu
    over eta) if ``raising``; ``E`` defaults to the basis's E.  Labels with
    b(nu) = 0 are skipped before ``factor`` is called."""
    E = jack.E if E is None else E
    if raising:
        terms = ((nu, binomial_coeff(jack, nu, eta))
                 for nu in _labels(jack.n, weights))
    else:
        # the row of eta holds exactly its non-zero coefficients
        terms = ((nu, b) for nu, b in jack.binomial_row(eta).items()
                 if sum(nu) in weights)
    return linear_combination(
        jack.n, ((b * factor(nu), E(nu)) for nu, b in terms if b))


def sym_binomial(jack, kappa, sigma):
    """Symmetric binomial coefficient (kappa over sigma), read from the
    basis's row of kappa; sigma is padded with zeros to n parts, and one
    that is not a composition after padding raises ``ValueError``."""
    pad = jack._label(tuple(sigma) + (0,) * (jack.n - len(sigma)))
    return jack.sym_binomial_row(kappa).get(comb.eta_plus(pad), ZERO)


def eps_eigenvalue(eta, alpha):
    """Eigenvalue of the degree-preserving second-order operator on E_eta."""
    alpha = Fraction(alpha)
    n = len(eta)
    kappa = comb.eta_plus(eta)
    diag = sum(k * (k - 1) for k in kappa)
    off = sum(2 * (n - 1 - j) * k for j, k in enumerate(kappa))
    return diag + off / alpha


# ---------------------------------------------------------------------------
# identity suite


def _first_term(diff, n):
    """None if ``diff`` is zero, else its first term, located by bidegree."""
    if diff.is_zero:
        return None
    e, c = min(diff.terms.items())
    return {"bidegree": [xdeg(e, n), ydeg(e, n)], "exponents": list(e),
            "coefficient": str(c)}


def _verdict(check, jack, D, params, diff, part=None):
    """Report on lhs - rhs = ``diff``; a nonzero diff names its first term
    (and ``part``, the part of the identity that failed)."""
    witness = _first_term(diff, jack.n)
    if witness is not None and part is not None:
        witness["part"] = part
    return report(check, witness is None, jack.n, jack.alpha,
                  {"D": D, **params}, witness)


def check_symmetry_and_multiplication(jack, D, **_):
    """Swap-equivariance of the kernel and the multiplication rule for the
    y-block Dunkl operators."""
    n = jack.n
    K = kernel_KA(jack, D)
    opx = jack.ops.on_block(range(n))
    opy = jack.ops.on_block(range(n, 2 * n))
    name = "kernel-symmetry-multiplication"
    for i in range(n - 1):
        diff = opx.s(K, i) - opy.s(K, i)
        if not diff.is_zero:
            return _verdict(name, jack, D, {}, diff, "swap equivariance")
    for i in range(n):
        diff = (opy.dunkl(K, i) - K.mul_var(i)).filter_terms(
            lambda e: xdeg(e, n) <= D)
        if not diff.is_zero:
            return _verdict(name, jack, D, {}, diff, "dunkl multiplication")
    return report(name, True, n, jack.alpha, {"D": D})


def check_exp_shift(jack, D, **_):
    """Multiplying by exp(p1 of x) shifts the y argument by one."""
    n = jack.n
    K = kernel_KA(jack, D)
    expx = exp_truncated(power_sum(2 * n, 1, range(n)), D, block=range(n))
    lhs = expx.mul_truncated(K, range(n), D)
    rhs = K.shift_by_one(only=range(n, 2 * n))
    return _verdict("kernel-exp-shift", jack, D, {}, lhs - rhs)


def _exp_gf(identity, jack, fb, D, kernel, down, s, c, params):
    """Generating function of the deformed family ``fb``: the kernel with
    fb in its x slot and weights 1 / prod [v]_eta (v in ``down``) equals
    ``kernel`` (the same series with the basis in its x slot) times
    exp(c p_rho(y)), once y -> s y on both, through y-degree D.  Here rho
    is the family's ``radius_degree``."""
    n = jack.n
    ys = range(n, 2 * n)
    lhs = kernel_series(jack, (), down, D, fb.E).scale_vars(s, ys)
    expz = exp_truncated(c * power_sum(2 * n, fb.radius_degree, ys), D,
                         block=ys)
    rhs = kernel.scale_vars(s, ys).mul_truncated(expz, ys, D)
    return _verdict(identity, jack, D, params, lhs - rhs)


def check_hermite_gf(jack, D, **_):
    """Generating function of the Gaussian-deformed family:
    sum 2^|eta| w_eta E^H_eta(x) E_eta(y) = K_A(x, 2y) exp(-p_2(y))."""
    return _exp_gf("hermite-generating-function", jack, jack.hermite(), D,
                   kernel_KA(jack, D), (), 2, -1, {})


def check_symmetrization(jack, D, **_):
    """Symmetrizing the x block yields n! times the symmetric kernel."""
    n = jack.n
    lhs = symmetrize(kernel_KA(jack, D), range(n))
    rhs = factorial(n) * hyper_0F0(jack, D)
    return _verdict("kernel-symmetrization", jack, D, {}, lhs - rhs)


def check_exp_expansion(jack, D, **_):
    """exp(p1) E_eta expands over the basis with binomial coefficients."""
    n, al = jack.n, jack.alpha
    exp_p1 = exp_truncated(power_sum(n, 1), D)

    def fails(eta):
        w = sum(eta)
        lhs = exp_p1.mul_truncated(jack.E(eta), None, D)
        lhs = al ** w / jack.d_prime_const(eta) * lhs
        rhs = binomial_expansion(
            jack, eta, range(w, D + 1),
            lambda nu: al ** sum(nu) / jack.d_prime_const(nu), raising=True)
        return _first_term(lhs - rhs, n)

    return first_failing("exp-binomial-expansion", n, al,
                         _labels(n, range(D + 1)), fails, {"D": D})


def check_p1_action(jack, D, **_):
    """Multiplication by p1 raises the label through binomial coefficients."""
    n, al = jack.n, jack.alpha
    p1 = power_sum(n, 1)

    def fails(eta):
        lhs = p1 * jack.E(eta)
        rhs = binomial_expansion(jack, eta, (sum(eta) + 1,),
                                 lambda nu: 1 / jack.d_prime_const(nu),
                                 raising=True)
        return _first_term(lhs - al * jack.d_prime_const(eta) * rhs, n)

    return first_failing("p1-raising-action", n, al, _labels(n, range(D)),
                         fails, {"D": D})


def check_euler_actions(jack, D, **_):
    """Actions of the Euler-type operators on the basis, with the
    second-order eigenvalue feeding the degree-raising action."""
    n, al = jack.n, jack.alpha
    ops = jack.ops

    def fails(eta):
        w = sum(eta)
        E = jack.E(eta)
        eps_eta = eps_eigenvalue(eta, al)
        # eigenoperator check
        if ops.d2_tilde(E) != eps_eta * E:
            return {"part": "second-order eigenvalue"}
        # commutator identity defining the lowering companion
        d1, eu0 = ops.d1_tilde(E), ops.euler(E, 0)
        if d1 != (ops.euler(ops.d2_tilde(E), 0) - ops.d2_tilde(eu0)) / 2:
            return {"part": "commutator identity"}
        # degree lowering by the sum of derivatives and by d1_tilde, with
        # 1 / E_nu(1^n) = d_nu / e_nu
        e_eta = jack.eval_ones(eta)
        lower = range(max(w - 1, 0), w)
        if eu0 / e_eta != binomial_expansion(
                jack, eta, lower, lambda nu: jack.d_const(nu) / jack.e_const(nu)):
            return {"part": "derivative lowering"}
        if d1 / e_eta != binomial_expansion(
                jack, eta, lower, lambda nu: (eps_eta - eps_eigenvalue(nu, al))
                * jack.d_const(nu) / (2 * jack.e_const(nu))):
            return {"part": "second-order lowering"}
        # degree raising by the squared Euler operator
        if w < D:
            rhs = binomial_expansion(
                jack, eta, (w + 1,),
                lambda nu: (eps_eigenvalue(nu, al) - eps_eta
                            - 2 * Fraction(n - 1) / al) / jack.d_prime_const(nu),
                raising=True)
            if ops.euler(E, 2) != al / 2 * jack.d_prime_const(eta) * rhs:
                return {"part": "squared-Euler raising"}
        return None

    return first_failing("euler-actions", n, al, _labels(n, range(D + 1)),
                         fails, {"D": D})


def check_2k1_pde(jack, D, a=None, b=None, c=None, **_):
    """The two-parameter kernel satisfies its second-order PDE."""
    n, al = jack.n, jack.alpha
    a = Fraction(a if a is not None else Fraction(1, 2))
    b = Fraction(b if b is not None else Fraction(4, 3))
    c = Fraction(c if c is not None else n + 2)
    F = kernel_series(jack, (a, b), (c,), D)
    opx = jack.ops.on_block(range(n))
    opy = jack.ops.on_block(range(n, 2 * n))
    nm1 = Fraction(n - 1) / al
    # the y-raising terms (euler(., 2), its commutator, p1(y) *) reach past
    # y-degree D from the top slice of F, so they act on the slices below it
    low = F.filter_terms(lambda e: ydeg(e, n) < D)
    raised = opy.euler(low, 2)
    comm = opy.d2_tilde(raised) - opy.euler(opy.d2_tilde(low), 2)
    lhs = (opx.d1_tilde(F) + (c - nm1) * opx.euler(F, 0)
           - (a + b - nm1) * raised - comm / 2)
    rhs = a * b * power_sum(2 * n, 1, range(n, 2 * n)) * low
    return _verdict("2k1-pde", jack, D, {"a": a, "b": b, "c": c}, lhs - rhs)


def check_laguerre_gf(jack, D, a=Fraction(1, 2), **_):
    """Principal Laguerre generating function via the type-B kernel:
    sum (-1)^|eta| w_eta / [aq]_eta E^L_eta(x) E_eta(y)
    = K_B(x, -y) exp(p_1(y))."""
    lb = jack.laguerre(a)
    return _exp_gf("laguerre-generating-function", jack, lb, D,
                   kernel_KB(jack, lb.a, D), (lb.shifted_a,), -1, 1,
                   {"a": lb.a})


def _geometric_gf(identity, jack, a, c, D, params):
    """Laguerre generating function through the one-parameter kernel
    1K1(cq; aq), with aq = a + 1 + (n-1)/alpha and cq likewise from c.

    The left side is prod_i (1 - z_i)^(-cq) 1K1(-x, z/(1-z)), the right side
    1K1 with the Laguerre family in its x slot at (x, -z), both through
    z-degree D.  At c = a the kernel is K_A, read from the basis's memo.
    """
    n = jack.n
    lb = jack.laguerre(a)
    aq = lb.shifted_a
    cq = Fraction(c) + jack.q
    K = (kernel_KA(jack, D) if cq == aq
         else kernel_series(jack, (cq,), (aq,), D))
    ys = range(n, 2 * n)
    pref = SparsePoly.one(2 * n)
    for i in range(n):
        pref = pref.mul_truncated(_series(2 * n, n + i, cq, 1, D), ys, D)
    lhs = pref.mul_truncated(
        geometric_substitution(K.scale_vars(-1, range(n)), ys, D, block=ys),
        ys, D)
    rhs = kernel_series(jack, (cq,), (aq,), D, lb.E).scale_vars(-1, ys)
    return _verdict(identity, jack, D, params, lhs - rhs)


def check_1k1_gf(jack, D, a=Fraction(1, 2), c=None, **_):
    """Laguerre generating function through the one-parameter kernel with a
    geometric change of argument."""
    a = Fraction(a)
    c = Fraction(c if c is not None else Fraction(3, 2))
    return _geometric_gf("1k1-generating-function", jack, a, c, D,
                         {"a": a, "c": c})


def check_ka_laguerre_gf(jack, D, a=Fraction(1, 2), **_):
    """Laguerre generating function through the type-A kernel: the 1K1
    identity at c = a, where [aq]_eta / [aq]_eta = 1."""
    a = Fraction(a)
    return _geometric_gf("ka-laguerre-generating-function", jack, a, a, D,
                         {"a": a})


def check_laguerre_jack_expansions(jack, D, a=Fraction(1, 2), **_):
    """Finite binomial expansions between the Laguerre and Jack bases."""
    n = jack.n
    lb = jack.laguerre(a)
    aq = lb.shifted_a

    def ratio(nu):
        """1 / (E_nu(1^n) [aq]_nu), with E_nu(1^n) = e_nu / d_nu."""
        return jack.d_const(nu) / (jack.e_const(nu) * jack.gen_fact(aq, nu))

    def fails(eta):
        w = sum(eta)
        pref = jack.gen_fact(aq, eta) * jack.eval_ones(eta)
        to_jack = binomial_expansion(jack, eta, range(w + 1),
                                     lambda nu: (-1) ** sum(nu) * ratio(nu))
        if lb.E(eta) != (-1) ** w * pref * to_jack:
            return {"part": "laguerre in jack"}
        to_lag = binomial_expansion(jack, eta, range(w + 1), ratio, E=lb.E)
        if jack.E(eta) != pref * to_lag:
            return {"part": "jack in laguerre"}
        return None

    return first_failing("laguerre-jack-expansion", n, jack.alpha,
                         _labels(n, range(D + 1)), fails,
                         {"D": D, "a": lb.a})


def check_binomial_sum_rules(jack, D, **_):
    """Orbit sums of the coefficients against their symmetric counterparts,
    including the weighted variant.

    Each row is read once: its entries are added up by the orbit eta_plus(nu)
    of their lower label nu into the plain sums of the row's label, and
    scattered, times e_eta / f_eta of the row's label eta, into the
    weighted sums of their lower label."""
    n = jack.n
    plain, weighted = {}, {}
    for eta in _labels(n, range(D + 1)):
        sums = plain[eta] = {}
        up = jack.e_const(eta) / jack.f_const(eta)
        kappa = comb.eta_plus(eta)
        for nu, b in jack.binomial_row(eta).items():
            mu = comb.eta_plus(nu)
            sums[mu] = sums.get(mu, ZERO) + b
            low = weighted.setdefault(nu, {})
            low[kappa] = low.get(kappa, ZERO) + b * up

    def labels():
        """(eta, mu, weighted): for each eta the orbit sums over mu up to
        |eta|, then the weighted ones upward in the other slot; their weights
        are the evaluation-adjusted e/(d d') rather than bare 1/d'."""
        for eta in _labels(n, range(D + 1)):
            w = sum(eta)
            yield from ((eta, mu, False) for w2 in range(w + 1)
                        for mu in comb.partitions(w2, n))
            yield from ((eta, mu, True) for w2 in range(w, D + 1)
                        for mu in comb.partitions(w2, n))

    def fails(label):
        eta, mu, is_weighted = label
        kappa = comb.eta_plus(eta)
        orbit = tuple(mu) + (0,) * (n - len(mu))
        # a wrong E_eta can leave a J_kappa whose E expansion differs across
        # an orbit; the symmetric row then raises, and the row read fails
        top, low = (orbit, kappa) if is_weighted else (kappa, orbit)
        try:
            rhs = sym_binomial(jack, top, low)
        except ArithmeticError as exc:
            return {"part": str(exc), "kappa": list(top)}
        if not is_weighted:
            holds = plain[eta].get(orbit, ZERO) == rhs
            return None if holds else {"part": "orbit sum"}
        total = weighted.get(eta, {}).get(orbit, ZERO)
        lhs = (jack.f_const(eta) / jack.e_const(eta)
               * jack.hook_norm_j(mu) * jack.J_ones(kappa)
               / jack.hook_norm_j(kappa) / jack.J_ones(mu) * total)
        return None if lhs == rhs else {"part": "weighted orbit sum"}

    return first_failing("binomial-sum-rules", n, jack.alpha, labels(), fails,
                         {"D": D})


def _summation(identity, jack, fb, D, kernel, x_scale, params):
    """Closed form of the norm-weighted bilinear sum of the deformed family
    ``fb``, as a formal series in an extra variable t through degree D; see
    the module docstring for the parts a family supplies.  ``kernel`` is in
    2n variables; t is variable 2n of 2n + 1."""
    n = jack.n
    total = 2 * n + 1
    tvar = 2 * n
    ts = (tvar,)
    rho = fb.radius_degree

    # t^|eta| rides on the y side: E^family_eta(y) t^|eta| in n + 1 variables
    lhs = _bilinear_sum(
        n, fb.E, lambda eta: fb.E(eta).embed(n + 1).mul_var(n, sum(eta)),
        lambda eta: 1 / fb.norm_ratio(eta), _labels(n, range(D + 1)), extra=1)

    # exp(-u (p_rho(x) + p_rho(y))) with u = t^rho / (1 - t^rho) truncated
    u = _series(total, tvar, 1, rho, D) - 1
    s = power_sum(total, rho, range(2 * n))
    expf = exp_truncated(-u.mul_truncated(s, ts, D), D, block=ts)
    kernel = kernel.scale_vars(x_scale, range(n)).embed(total)
    kern = linear_combination(total, (
        (1, sl.mul_var(tvar, d).mul_truncated(
            _series(total, tvar, Fraction(2 * d, rho), rho, D), ts, D))
        for d, sl in enumerate(kernel_slices(kernel, n, D))))
    rhs = _series(total, tvar, fb.gamma, rho, D).mul_truncated(expf, ts, D)
    rhs = rhs.mul_truncated(kern, ts, D)
    return _verdict(identity, jack, D, params, lhs - rhs)


def check_hermite_summation(jack, D, **_):
    """Closed form of the norm-weighted bilinear Hermite sum through
    t-degree D."""
    return _summation("hermite-summation", jack, jack.hermite(), D,
                      kernel_KA(jack, D), 2, {})


def check_laguerre_summation(jack, D, a=Fraction(1, 2), **_):
    """Closed form of the norm-weighted bilinear Laguerre sum through
    t-degree D."""
    lb = jack.laguerre(a)
    return _summation("laguerre-summation", jack, lb, D,
                      kernel_KB(jack, lb.a, D), 1, {"a": lb.a})


IDENTITY_CHECKS = {
    "kernel-symmetry-multiplication": check_symmetry_and_multiplication,
    "kernel-exp-shift": check_exp_shift,
    "hermite-generating-function": check_hermite_gf,
    "kernel-symmetrization": check_symmetrization,
    "exp-binomial-expansion": check_exp_expansion,
    "p1-raising-action": check_p1_action,
    "euler-actions": check_euler_actions,
    "2k1-pde": check_2k1_pde,
    "laguerre-generating-function": check_laguerre_gf,
    "1k1-generating-function": check_1k1_gf,
    "ka-laguerre-generating-function": check_ka_laguerre_gf,
    "laguerre-jack-expansion": check_laguerre_jack_expansions,
    "binomial-sum-rules": check_binomial_sum_rules,
    "hermite-summation": check_hermite_summation,
    "laguerre-summation": check_laguerre_summation,
}


def verify_kernel_identity(name, jack, D, **params):
    """Run one named identity check; returns a JSON-ready report."""
    try:
        fn = IDENTITY_CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}") from None
    return fn(jack, D, **params)
