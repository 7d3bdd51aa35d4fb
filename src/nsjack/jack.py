"""Construction of the non-symmetric Jack basis and its symmetrization.

The basis polynomials E_eta are built by the raising/transposition
recursion, which starts from a cached label or from a single-part label
(m, 0, ..., 0), m >= 1.  That label is built in one pass from the
generating function of ``JackBasis.E``'s docstring: with beta = 1/alpha,

    E_(m,0,...,0) = m!/(1+beta)_m  sum over |mu| = m of
                    (1+beta)_mu_0/mu_0!  prod_(i>=1) (beta)_mu_i/mu_i!  x^mu,

so E_(0,...,0,m+1) costs one formula pass and one raising step instead of
about n m recursion steps.  ``JackBasis.E`` keeps the label it was asked
for and, of the labels its chain passes through, only those no heavier
than the heaviest label asked for before, so a single long chain does not
pin every intermediate in memory (a chain wholly below an earlier,
heavier request is still kept whole).  Every kept E_eta takes its
exponent tuples from one table per basis, ``JackBasis._exps``, so an
exponent shared by many kept polynomials (and by the sums built from
them) is one tuple object, not one per polynomial.  An independent
oracle recovers the same polynomials from the joint Cherednik
eigenproblem on monomials, by back-substitution over the labels below,
where the operators are triangular.
The basis owns everything derived at its (n, alpha) and keeps it in one
memo, ``JackBasis._memo``: the label constants (d, d', e, f, the
generalized factorials, the hook norm j_kappa and J_kappa(1^n)), the
symmetric J_kappa, the generalized binomial rows, the Hermite and Laguerre
families built on it, and whatever the kernel and constant-term layers
store there, so each is computed once per basis.  ``JackBasis.shared``
keeps one basis per (n, alpha) in ``_shared``, the only process-wide
cache of the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import index, neg

from . import combinat as comb
from .operators import Operators
from .poly import (SparsePoly, _bring_over, _from_num, _raw,
                   linear_combination)


_shared = {}


class JackBasis:
    """Cache of non-symmetric Jack polynomials for fixed (n, alpha).

    Cached values are immutable; recomputation is deterministic, so
    concurrent use only ever races identical insertions.
    """

    @classmethod
    def shared(cls, n, alpha):
        """Process-wide memoized instance (bases are append-only caches)."""
        key = (n, Fraction(alpha))
        got = _shared.get(key)
        if got is None:
            got = _shared[key] = cls(n, alpha)
        return got

    def __init__(self, n, alpha):
        alpha = Fraction(alpha)
        if n < 1:
            raise ValueError("need at least one variable")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.n = n
        self.alpha = alpha
        # the paper's q = 1 + (n - 1)/alpha, which shifts the Laguerre
        # parameter and the beta-integral exponents
        self.q = 1 + Fraction(n - 1) / alpha
        self.ops = Operators(n, alpha)
        self._cache = {(0,) * n: SparsePoly.one(n)}
        # each exponent of a kept E_eta, mapped to the one tuple object
        # that every kept polynomial uses as its key
        self._exps = {}
        self._top = 0
        self._consts = {}

    def _memo(self, key, build, *args):
        """The value kept under ``key``; ``build(*args)`` makes it on a miss."""
        consts = self._consts
        got = consts.get(key)
        if got is None:
            got = consts[key] = build(*args)
        return got

    # -- the recursion ---------------------------------------------------

    def _label(self, eta):
        """eta as a tuple of ints, checked to be a composition with n parts."""
        try:
            eta = tuple(map(index, eta))
        except TypeError:
            raise ValueError("composition parts must be integers") from None
        if len(eta) != self.n:
            raise ValueError("composition length must equal the variable count")
        if any(x < 0 for x in eta):
            raise ValueError("composition parts must be non-negative")
        return eta

    def E(self, eta):
        """The monic simultaneous eigenfunction labelled by eta.

        Each recursion step is one pass over the source's numerators: the
        raising map is one rotation of the exponents (``Operators.phi``),
        and the transposition step s_i E - E/gap is one ``swap_add``.

        The walk down the chain ends at a cached label or at a
        single-part label (m, 0, ..., 0), m >= 1, which ``_single_part``
        builds in one pass as the t^m coefficient G_m of

            G = u_0 prod_j u_j^beta,  u_j = (1 - x_j t)^(-1),  beta = 1/alpha,

        times m!/(1+beta)_m.  Proof: xi_0 = alpha x_0 d/dx_0
        + sum_(k>0) x_k (1 - s_0k)/(x_0 - x_k), and (1 - s_0k) G =
        t (x_0 - x_k) u_k G, so a direct computation gives
        xi_0 G = G ((alpha+1) x_0 t u_0 + sum_(k>0) x_k t u_k)
        = alpha t dG/dt, and xi_0 G_m = alpha m G_m.  Among the
        compositions nu of m only (m, 0, ..., 0) has nu_bar_0 = alpha m:
        alpha (m - nu_0) = -#{j > 0 : nu_j > nu_0} forces nu_0 = m.  The
        E_nu of weight m are an eigenbasis of xi_0, so G_m is
        E_(m,0,...,0) times its x_0^m coefficient (1+beta)_m/m!.  Every
        other label keeps the recursion, which tests check this formula
        against.

        The requested label is always kept in ``_cache``.  A label passed
        on the way is kept only if its weight is at most ``_top``, the
        heaviest weight asked for before this call, so a family built
        weight by weight keeps what its later requests reuse, while one
        long chain above everything asked so far keeps only its result.
        A chain lying wholly below an earlier, heavier request is still
        kept whole: ``E((0,0,199))`` after ``E((0,0,200))``.

        A kept polynomial takes its keys from the exponent table ``_exps``
        (see ``_keep``); the steps themselves make fresh tuples, which die
        with the labels that are not kept.
        """
        eta = self._label(eta)
        cache = self._cache
        got = cache.get(eta)
        if got is not None:
            return got
        # Each label is built from one strictly smaller label.  Walk down
        # that chain to a cached label (at the latest the constant, cached
        # from the start) or a single-part label, then build back up, so
        # long chains need no recursion.
        chain = []
        label = eta
        while label not in cache:
            if label[0] == sum(label):
                # (m, 0, ..., 0): built in one pass, from no source
                chain.append((label, None, None))
                break
            if label[-1] >= 1:
                # undo the raising map: label = phi(lowered)
                source, i = comb.phi_hat_map(label), None
            else:
                # swap at the last descent; the swapped label is smaller
                i = max(i for i in range(self.n - 1) if label[i] > label[i + 1])
                source = comb.si_map(label, i)
            chain.append((label, source, i))
            label = source
        top = self._top
        poly = cache.get(label)
        for label, source, i in reversed(chain):
            if source is None:
                poly = self._single_part(label[0])
            elif i is None:
                poly = self.ops.phi(poly)
            else:
                gap = comb.delta_gap(source, i, self.alpha)
                poly = poly.swap_add(i, i + 1, -1 / gap)
            if label is eta or sum(label) <= top:
                poly = self._keep(label, poly)
        self._top = max(top, sum(eta))
        return poly

    def _keep(self, label, poly):
        """Store ``poly`` as E_label, its keys taken from the exponent
        table: an exponent met before is replaced by the tuple kept for
        it, a new one is entered as itself."""
        intern = self._exps.setdefault
        poly = _raw(self.n, {intern(e, e): v for e, v in poly.num.items()},
                    poly.den)
        self._cache[label] = poly
        return poly

    def _single_part(self, m):
        """E_(m,0,...,0) from its generating function (see ``E``), not kept.

        With alpha = p/q, p^j (beta)_j = a_j = prod_(r<j) (q + r p) and
        p^j (1+beta)_j = b_j = prod_(r<j) (q + (r+1) p), so the numerator
        of x^mu is the integer (m!/prod mu_i!) b_(mu_0) prod_(i>=1) a_(mu_i)
        over the one denominator b_m.
        """
        p, q = self.alpha.numerator, self.alpha.denominator
        a, b = [1], [1]
        for r in range(m):
            a.append(a[-1] * (q + r * p))
            b.append(b[-1] * (q + (r + 1) * p))
        fact = [factorial(j) for j in range(m + 1)]
        num = {}
        for mu in comb.compositions(self.n, m):
            c, d = b[mu[0]], fact[mu[0]]
            for part in mu[1:]:
                if part:
                    c *= a[part]
                    d *= fact[part]
            num[mu] = fact[m] * c // d
        return _from_num(self.n, num, b[m])

    # -- independent oracle ------------------------------------------------

    def E_oracle(self, eta):
        """Solve the joint Cherednik eigenproblem directly on monomials.

        Uses only the divided-difference operators, through their image
        cache, independently of the recursion above.  They are triangular
        on the compositions nu below eta, so walking nu down ``order_key``
        from v_eta = 1, one division by the first pivot
        Y_i[nu][nu] - eta_bar_i != 0 makes the carried residual
        R_i = (Y_i - eta_bar_i) p vanish at x^nu.  At the end every R_i
        is exactly (Y_i - eta_bar_i) p over all monomials and must be 0.
        """
        eta = self._label(eta)
        n = self.n
        basis = [nu for nu in comb.compositions(n, sum(eta))
                 if nu == eta or comb.precedes(nu, eta)]
        basis.sort(key=comb.order_key, reverse=True)
        span = set(basis)
        evec = comb.eta_bar_vec(eta, self.alpha)
        coeffs = {}
        residuals = [SparsePoly.zero(n)] * n
        for nu in basis:
            x = SparsePoly.monomial(n, nu)
            images = [self.ops.cherednik_direct(x, i) for i in range(n)]
            if not all(span.issuperset(img.num) for img in images):
                raise ArithmeticError(
                    "operator image left the triangular span; operator bug")
            if nu == eta:
                v = 1
            else:
                for R, img, ev in zip(residuals, images, evec):
                    pivot = img.coeff(nu) - ev
                    if pivot:
                        break
                else:
                    raise ArithmeticError(f"no Cherednik eigenvalue separates {nu}")
                v = -R.coeff(nu) / pivot
            coeffs[nu] = v
            residuals = [linear_combination(n, ((1, R), (v, img), (-v * ev, x)))
                         for R, img, ev in zip(residuals, images, evec)]
        if not all(R.is_zero for R in residuals):
            raise ArithmeticError(
                f"back-substitution for {eta} left a non-zero eigen-residual")
        return SparsePoly(n, coeffs)

    # -- label constants -----------------------------------------------------
    # With alpha = p/q every node factor of d, d', e and j_kappa is an
    # integer over q (over s p for [c]_eta with c = r/s), so each constant
    # is an integer product over one power, made a Fraction once and kept
    # in the memo under (kind, label) or (kind, c, label); the binomial
    # rows below live there too.  These are the only copies in the
    # package: every norm, kernel weight, binomial formula and check reads
    # them here, from the diagram statistics of ``combinat``.

    def _node_products(self, kind, eta):
        """d, d' and e of a label from one pass over its nodes: all three
        are kept in the memo and the one of the given kind is returned."""
        if len(eta) != self.n:
            raise ValueError("composition length must equal the variable count")
        p, q = self.alpha.numerator, self.alpha.denominator
        n = self.n
        d = dp = e = 1
        for i, j in comb.nodes(eta):
            arm1, leg = comb.arm(eta, i, j) + 1, comb.leg(eta, i, j)
            d *= p * arm1 + q * (leg + 1)
            dp *= p * arm1 + q * leg
            e *= p * (comb.arm_co(eta, i, j) + 1) + q * (n - comb.leg_co(eta, i, j))
        qw = q ** sum(eta)
        consts = self._consts
        consts["d", eta] = Fraction(d, qw)
        consts["d'", eta] = Fraction(dp, qw)
        consts["e", eta] = Fraction(e, qw)
        return consts[kind, eta]

    def _node_const(self, kind, eta):
        eta = tuple(eta)
        return self._memo((kind, eta), self._node_products, kind, eta)

    def d_const(self, eta):
        """d_eta: product over nodes of alpha (arm + 1) + leg + 1."""
        return self._node_const("d", eta)

    def d_prime_const(self, eta):
        """d'_eta: product over nodes of alpha (arm + 1) + leg."""
        return self._node_const("d'", eta)

    def e_const(self, eta):
        """e_eta: product over nodes of alpha (arm colength + 1) + n - leg
        colength."""
        return self._node_const("e", eta)

    def f_const(self, eta):
        """f_eta = d_eta d'_eta."""
        return self.d_const(eta) * self.d_prime_const(eta)

    def gen_fact(self, c, eta):
        """[c]_eta: product over nodes of c + arm colength - leg colength / alpha."""
        c, eta = Fraction(c), tuple(eta)
        return self._memo(("gen_fact", c, eta), self._gen_fact, c, eta)

    def _gen_fact(self, c, eta):
        p, q = self.alpha.numerator, self.alpha.denominator
        r, s = c.numerator, c.denominator
        out = 1
        for i, j in comb.nodes(eta):
            out *= (p * (r + s * comb.arm_co(eta, i, j))
                    - s * q * comb.leg_co(eta, i, j))
        return Fraction(out, (s * p) ** sum(eta))

    def hook_norm_j(self, kappa):
        """j_kappa: product over the nodes of the partition kappa of
        (alpha arm + leg + 1)(alpha arm + leg + alpha)."""
        kappa = tuple(x for x in kappa if x > 0)
        return self._memo(("j", kappa), self._hook_norm_j, kappa)

    def _hook_norm_j(self, kappa):
        p, q = self.alpha.numerator, self.alpha.denominator
        out = 1
        for i, j in comb.nodes(kappa):
            arm, leg = comb.arm(kappa, i, j), comb.leg(kappa, i, j)
            out *= (p * arm + q * (leg + 1)) * (p * arm + q * leg + p)
        return Fraction(out, q ** (2 * sum(kappa)))

    def J_ones(self, kappa):
        """J_kappa at the all-ones point."""
        kappa = tuple(kappa)
        return self._memo(("J_ones", kappa + (0,) * (self.n - len(kappa))),
                          self._J_ones, kappa)

    def _J_ones(self, kappa):
        return self.J(kappa).eval_exact([1] * self.n)

    # -- deformed families -----------------------------------------------------

    # ``hermite_laguerre`` is imported on first use, so the commands that
    # never build a deformed family do not load it

    def hermite(self):
        """The Hermite family exp(-Delta_A/4) E_eta on this basis."""
        from .hermite_laguerre import HermiteBasis

        return self._memo(("hermite",), HermiteBasis, self)

    def laguerre(self, a):
        """The Laguerre family exp(-Delta_B/4) E_eta with parameter a."""
        from .hermite_laguerre import LaguerreBasis

        a = Fraction(a)
        return self._memo(("laguerre", a), LaguerreBasis, self, a)

    # -- evaluations -----------------------------------------------------------

    def eval_ones(self, eta):
        """Exact value at the all-ones point: e_eta / d_eta."""
        return self.e_const(eta) / self.d_const(eta)

    def a_sym_const(self, eta):
        """Constant relating Sym E_eta to the symmetric polynomial J."""
        return (factorial(self.n) * self.eval_ones(eta)
                / self.J_ones(comb.eta_plus(eta)))

    # -- symmetric basis -----------------------------------------------------

    def J(self, kappa):
        """Symmetric polynomial indexed by a partition, in the hook-product
        normalization consistent with the orbit sum of E_eta / d'_eta."""
        kappa = tuple(kappa)
        if list(kappa) != sorted(kappa, reverse=True):
            raise ValueError("J is indexed by partitions")
        if len(kappa) > self.n:
            raise ValueError("partition has more parts than variables")
        kappa = kappa + (0,) * (self.n - len(kappa))
        return self._memo(("J", kappa), self._J, kappa)

    def _J(self, kappa):
        j = self.hook_norm_j(kappa)
        return linear_combination(self.n, (
            (j / self.d_prime_const(eta), self.E(eta))
            for eta in set(permutations(kappa))))

    # -- change of basis -------------------------------------------------------

    def expand_in_E(self, p):
        """Expand a polynomial in the E basis; returns {eta: coefficient}.

        Peels the triangular leading terms in descending ``order_key``, so
        only exact subtraction is needed.  The residual is one dict of
        integer numerators over a running denominator, each E_eta is
        subtracted from it in place, and a heap hands out its labels, so
        each label's key is computed once.  A subtraction that writes a
        term at or above the label being peeled means E is not triangular
        (a bug, and the peeling would never end), so it raises
        ``ArithmeticError`` instead.  The result lists the labels in the
        order they were peeled.
        """
        from heapq import heapify, heappop, heappush

        if not p.is_laurent_free():
            raise ValueError("can only expand genuine polynomials")

        def rank(e):
            # the entries of order_key(e), negated and flattened: the heap
            # pops the largest label first
            w, plus, _ = comb.order_key(e)
            return (-w, *map(neg, plus), *map(neg, e))

        num, den = dict(p.num), p.den
        heap = [(rank(e), e) for e in num]
        heapify(heap)
        out = {}
        while heap:
            top, eta = heappop(heap)
            a = num[eta]
            if not a:
                del num[eta]
                continue
            c = Fraction(a, den)
            out[eta] = c
            E = self.E(eta)
            den, a = _bring_over(num, den, c, E.den)
            for e, v in E.num.items():
                got = num.get(e)
                if got is None:
                    key = rank(e)
                    if key <= top:
                        raise ArithmeticError(
                            f"peeling E{eta} wrote the term {e} at or above "
                            "it; E is not triangular")
                    heappush(heap, (key, e))
                    got = 0
                num[e] = got - a * v
            if num.pop(eta):
                raise ArithmeticError(
                    f"peeling E{eta} left its own term; E is not triangular")
        return out

    # -- generalized binomial coefficients -------------------------------------

    def E_shifted(self, eta):
        """E_eta(1 + z), kept in the memo next to the binomial row of eta,
        which is its expansion in the E basis."""
        eta = tuple(eta)
        return self._memo(("shifted", eta), self._E_shifted, eta)

    def _E_shifted(self, eta):
        return self.E(eta).shift_by_one()

    def binomial_row(self, eta):
        """The coefficients of E_eta(1+z)/E_eta(1^n) over the
        E_nu(z)/E_nu(1^n), as {nu: coefficient}."""
        eta = tuple(eta)
        return self._memo(("binomial", eta), self._binomial_row, eta)

    def _binomial_row(self, eta):
        coeffs = self.expand_in_E(self.E_shifted(eta))
        e_top = self.eval_ones(eta)
        return {nu: c * self.eval_ones(nu) / e_top for nu, c in coeffs.items()}

    def sym_binomial_row(self, kappa):
        """The coefficients of J_kappa(1+z)/J_kappa(1^n) over the
        J_mu(z)/J_mu(1^n), as {mu: coefficient} with mu padded to n parts."""
        kappa = tuple(kappa) + (0,) * (self.n - len(kappa))
        return self._memo(("sym_binomial", kappa), self._sym_binomial_row, kappa)

    def _sym_binomial_row(self, kappa):
        row = {}
        shifted = self.J(kappa).shift_by_one()
        for eta, c in self.expand_in_E(shifted).items():
            mu = comb.eta_plus(eta)
            # coefficient of J_mu is c d'_eta / j_mu, constant over the orbit
            b = c * self.d_prime_const(eta) / self.hook_norm_j(mu)
            if row.setdefault(mu, b) != b:
                raise ArithmeticError("J expansion inconsistent across an orbit")
        return {mu: b * self.J_ones(mu) / self.J_ones(kappa) for mu, b in row.items()}
