"""Non-symmetric Hermite and Laguerre polynomials.

Both families are images of the Jack basis under the terminating
exponential exp(-lap/4) of the relevant Laplacian, which lowers the
degree, so each E_eta is one ``poly.exp_series`` call and one class,
``DeformedBasis``, holds the construction, the pairing and the harmonic
decomposition; ``HermiteBasis`` and ``LaguerreBasis`` add their ladders
and closed forms.  The Laguerre family lives natively in the squared
variables y_i = x_i^2; exponent doubling recovers the x-form on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import combinat as comb
from .operators import Operators
from .poly import SparsePoly, exp_series, linear_combination, power_sum, rising


def laguerre_1d_coeffs(m, a):
    """Coefficients (in t) of the classical one-variable Laguerre polynomial
    of degree m with rational parameter a, from its closed-form sum."""
    a = Fraction(a)
    return [Fraction((-1) ** k) * rising(a + k + 1, m - k)
            / (factorial(m - k) * factorial(k)) for k in range(m + 1)]


class DeformedBasis:
    """The images exp(-lap/4) E_eta of a Jack basis under a degree-lowering
    Laplacian, with their pairing and harmonic decomposition.

    A family is fixed by its Laplacian ``laplacian(p)``, the word operator
    ``word(p, i)`` that stands in for the i-th variable in the pairing, the
    degree ``radius_degree`` of the radius sum_i x_i^radius_degree in the
    family's own variables, and the constant ``gamma`` of its harmonic
    projector.  A native degree d counts as x-degree (2 / radius_degree) * d.
    """

    def __init__(self, jack, ops, laplacian, word, radius_degree, gamma):
        self.jack = jack
        self.n = jack.n
        self.alpha = jack.alpha
        self.ops = ops
        self.laplacian = laplacian
        self.word = word
        self.radius_degree = radius_degree
        self.gamma = gamma
        self._cache = {}

    def E(self, eta):
        eta = tuple(eta)
        got = self._cache.get(eta)
        if got is None:
            got = exp_series(self.jack.E(eta), self.laplacian, Fraction(-1, 4))
            self._cache[eta] = got
        return got

    # -- ladder -----------------------------------------------------------

    def lower_constant(self, eta):
        """Proportionality constant of the lowering action (0 if last part 0)."""
        eta = tuple(eta)
        if eta[-1] == 0:
            return Fraction(0)
        down = comb.phi_hat_map(eta)
        jack = self.jack
        return (self._lower_factor(eta, down) * jack.d_prime_const(eta)
                / jack.d_prime_const(down) / self.alpha)

    def _lower_factor(self, eta, down):
        """Family-specific factor of the lowering constant."""
        return 1

    # -- pairing ----------------------------------------------------------

    def pairing(self, p, q):
        """Bilinear pairing replacing each variable of p by the word
        operator acting on q.

        Both arguments must be homogeneous; different degrees pair to 0.
        """
        if not (p.is_homogeneous() and q.is_homogeneous()):
            raise ValueError("pairing is defined for homogeneous polynomials")
        if p.is_zero or q.is_zero:
            return Fraction(0)
        if p.total_degree() != q.total_degree():
            return Fraction(0)
        row = self.pairing_row(q)
        return sum((c * row[e] for e, c in p.terms.items()), Fraction(0))

    def pairing_row(self, q):
        """Constants of all words of length deg(q) applied to q.

        Shared-prefix memoization; lets a whole Gram row reuse one pass.
        """
        memo = {(0,) * self.n: q}

        def applied(e):
            got = memo.get(e)
            if got is None:
                i = next(idx for idx, k in enumerate(e) if k)
                prev = list(e)
                prev[i] -= 1
                got = self.word(applied(tuple(prev)), i)
                memo[e] = got
            return got

        return {e: applied(e).constant_term()
                for e in comb.compositions(self.n, q.total_degree())}

    # -- harmonic decomposition ---------------------------------------------

    def _radius_powers(self, top):
        """The powers r^0, ..., r^top of the radius, in native variables."""
        r = power_sum(self.n, self.radius_degree)
        powers = [SparsePoly.one(self.n)]
        for _ in range(top):
            powers.append(powers[-1] * r)
        return powers

    def harmonic_components(self, eta):
        """Decompose E_eta (the Jack polynomial) as the sum over m of the
        m-th power of the radius times a harmonic piece.

        Returns [(m, component)] with every component annihilated by the
        family's Laplacian.  Each L_t = lap^t E_eta (t <= d // rho) is built
        once; component m, the harmonic part of L_m, sums the r^j L_(m+j).
        """
        eta = tuple(eta)
        d = sum(eta)
        rho = self.radius_degree
        top = d // rho
        tower = [self.jack.E(eta)]
        for _ in range(top):
            tower.append(self.laplacian(tower[-1]))
        rpow = self._radius_powers(top)
        out = []
        for m in range(top + 1):
            lead = factorial(m) * rising(
                self.gamma + (2 // rho) * d - 2 * m, m)
            shift = 2 - self.gamma - (2 // rho) * (d - rho * m)
            out.append((m, linear_combination(self.n, (
                (1 / (Fraction(4) ** (m + j) * lead * factorial(j)
                      * rising(shift, j)), rpow[j] * tower[m + j])
                for j in range(top - m + 1)))))
        return out

    def from_harmonics(self, eta, components=None):
        """Rebuild the deformed polynomial from the harmonic pieces and
        classical one-variable Laguerre polynomials of the radius."""
        eta = tuple(eta)
        d = sum(eta)
        rho = self.radius_degree
        rpow = self._radius_powers(d // rho)

        def terms():
            for m, component in (components or self.harmonic_components(eta)):
                # parameter x-degree + gamma - 1 of the harmonic piece
                lag = laguerre_1d_coeffs(
                    m, (2 // rho) * (d - rho * m) + self.gamma - 1)
                lpoly = linear_combination(
                    self.n, ((c, rpow[k]) for k, c in enumerate(lag)))
                yield (-1) ** m * factorial(m), lpoly * component

        return linear_combination(self.n, terms())


class HermiteBasis(DeformedBasis):
    """Gaussian-deformed family: type-A Laplacian, Dunkl-operator pairing."""

    def __init__(self, jack):
        n, ops = jack.n, jack.ops
        super().__init__(
            jack, ops, ops.laplacian_A, ops.dunkl, radius_degree=2,
            gamma=Fraction(n, 2) + Fraction(n * (n - 1), 2) / jack.alpha)

    def norm_ratio(self, eta):
        """Norm divided by the ground-state normalization: exact rational."""
        jack = self.jack
        return (jack.d_prime_const(eta) * jack.eval_ones(eta)
                / (2 * self.alpha) ** sum(eta))

    def raise_op(self, eta):
        """Operator-applied raising; equals 2 * E(phi eta)."""
        return self.ops.phi_hat_star(self.E(eta))

    def lower_op(self, eta):
        """Operator-applied lowering; annihilates when the last part is 0."""
        return self.ops.phi_hat(self.E(eta))


class LaguerreBasis(DeformedBasis):
    """Laguerre-type family in squared variables: type-B Laplacian, pairing
    through four times the B operators."""

    def __init__(self, jack, a):
        n = jack.n
        self.a = Fraction(a)
        ops = Operators(n, jack.alpha, a)
        super().__init__(
            jack, ops, ops.laplacian_B, lambda p, i: 4 * ops.b_op(p, i),
            radius_degree=1,
            gamma=n * (self.a + 1) + Fraction(n * (n - 1)) / jack.alpha)

    @property
    def shifted_a(self):
        """The combination a + q = a + 1 + (n-1)/alpha entering every
        formula."""
        return self.a + self.jack.q

    def norm_ratio(self, eta):
        """Norm divided by the ground-state normalization; the weight
        y^a exp(-y) is integrable only for a > -1."""
        if self.a <= -1:
            raise ValueError(f"the Laguerre norm needs a > -1, got a = {self.a}")
        jack = self.jack
        return (jack.gen_fact(self.shifted_a, eta) * jack.d_prime_const(eta)
                * jack.eval_ones(eta) / self.alpha ** sum(eta))

    def at_zero(self, eta):
        """Exact value at the origin."""
        return ((-1) ** sum(eta) * self.jack.gen_fact(self.shifted_a, eta)
                * self.jack.eval_ones(eta))

    def raise_op(self, eta):
        """Operator-applied raising; equals E(phi eta)."""
        return self.ops.psi_hat_star(self.E(eta))

    def lower_op(self, eta):
        return self.ops.psi_hat(self.E(eta))

    def _lower_factor(self, eta, down):
        c = self.shifted_a
        return self.jack.gen_fact(c, eta) / self.jack.gen_fact(c, down)
