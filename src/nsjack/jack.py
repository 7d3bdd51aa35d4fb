"""Construction of the non-symmetric Jack basis and its symmetrization.

The basis polynomials E_eta are built by the raising/transposition
recursion; an independent oracle recovers the same polynomials by solving
the joint eigenproblem of the Cherednik operators directly on monomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from . import combinat as comb
from .linalg import solve_exact
from .operators import Operators
from .poly import SparsePoly


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
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.n = n
        self.alpha = alpha
        self.ops = Operators(n, alpha)
        self._cache = {(0,) * n: SparsePoly.one(n)}
        self._j_cache = {}

    # -- the recursion ---------------------------------------------------

    def E(self, eta):
        """The monic simultaneous eigenfunction labelled by eta."""
        eta = tuple(eta)
        if len(eta) != self.n:
            raise ValueError("composition length must equal the variable count")
        if any(x < 0 for x in eta):
            raise ValueError("composition parts must be non-negative")
        cache = self._cache
        got = cache.get(eta)
        if got is not None:
            return got
        # Each label is built from one strictly smaller label.  Walk down
        # that chain to a cached label (at the latest the constant, cached
        # from the start), then build back up, so long chains need no
        # recursion.
        chain = []
        label = eta
        while label not in cache:
            if label[-1] >= 1:
                # undo the raising map: label = phi(lowered)
                source, i = comb.phi_hat_map(label), None
            else:
                # swap at the last descent; the swapped label is smaller
                i = max(i for i in range(self.n - 1) if label[i] > label[i + 1])
                source = comb.si_map(label, i)
            chain.append((label, source, i))
            label = source
        for label, source, i in reversed(chain):
            e_src = cache[source]
            if i is None:
                poly = self.ops.phi(e_src)
            else:
                gap = comb.delta_gap(source, i, self.alpha)
                poly = self.ops.s(e_src, i) - e_src / gap
            cache[label] = poly
        return cache[eta]

    # -- independent oracle ------------------------------------------------

    def E_oracle(self, eta):
        """Solve the joint Cherednik eigenproblem directly on monomials.

        Uses only the divided-difference form of the operators and exact
        linear algebra, independently of the recursion above.  Column s of
        the i-th block is the image of x^basis[s] under
        ``cherednik_direct(., i)``, read from the operators' image cache,
        so labels of one weight share their columns.
        """
        eta = tuple(eta)
        w = sum(eta)
        basis = [nu for nu in comb.compositions(self.n, w)
                 if nu == eta or comb.precedes(nu, eta)]
        basis.sort(key=comb.order_key)
        index = {nu: t for t, nu in enumerate(basis)}
        m = len(basis)
        evec = comb.eta_bar_vec(eta, self.alpha)

        rows, rhs = [], []
        # normalization row: coefficient of x^eta is 1
        row = [Fraction(0)] * m
        row[index[eta]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
        for i in range(self.n):
            # (Y_i - eta_bar_i) p = 0, one row per basis monomial
            block = [[Fraction(0)] * m for _ in range(m)]
            for s, nu in enumerate(basis):
                img = self.ops.cherednik_direct(SparsePoly.monomial(self.n, nu), i)
                for e, c in img.terms.items():
                    t = index.get(e)
                    if t is None:
                        raise ArithmeticError(
                            "operator image left the triangular span; operator bug")
                    block[t][s] = c
            for t in range(m):
                block[t][t] -= evec[i]
            rows.extend(block)
            rhs.extend([Fraction(0)] * m)
        sol = solve_exact(rows, rhs)
        return SparsePoly(self.n, {nu: sol[index[nu]] for nu in basis})

    # -- evaluations and constants -----------------------------------------

    def eval_ones(self, eta):
        """Exact value at the all-ones point: e_eta / d_eta."""
        eta = tuple(eta)
        return comb.e_const(eta, self.alpha) / comb.d_const(eta, self.alpha)

    def a_sym_const(self, eta):
        """Constant relating Sym E_eta to the symmetric polynomial J."""
        eta = tuple(eta)
        kappa = comb.eta_plus(eta)
        return (factorial(self.n) * comb.e_const(eta, self.alpha)
                / comb.d_const(eta, self.alpha) / self.J_ones(kappa))

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
        got = self._j_cache.get(kappa)
        if got is not None:
            return got
        total = SparsePoly.zero(self.n)
        for eta in set(permutations(kappa)):
            total = total + self.E(eta) / comb.d_prime_const(eta, self.alpha)
        out = comb.hook_norm_j(kappa, self.alpha) * total
        self._j_cache[kappa] = out
        return out

    def J_ones(self, kappa):
        return self.J(kappa).eval_exact([1] * self.n)

    # -- change of basis -------------------------------------------------------

    def expand_in_E(self, p):
        """Expand a polynomial in the E basis; returns {eta: coefficient}.

        Peels the triangular leading terms degree by degree in descending
        order, so only exact subtraction is needed.  The leading label must
        strictly decrease in ``order_key``; if it does not, E is not
        triangular (a bug) and the peeling would never end, so it raises
        ``ArithmeticError`` instead.
        """
        if not p.is_laurent_free():
            raise ValueError("can only expand genuine polynomials")
        out = {}
        residual = p
        last = None
        while not residual.is_zero:
            eta = max(residual.terms, key=comb.order_key)
            key = comb.order_key(eta)
            if last is not None and key >= last:
                raise ArithmeticError(
                    f"peeling E{last[2]} left the leading label {eta}; "
                    "E is not triangular")
            last = key
            c = residual.terms[eta]
            out[eta] = c
            residual = residual - c * self.E(eta)
        return out
