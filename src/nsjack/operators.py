"""Differential-difference operators acting on exact polynomials.

All operators that look like rational functions of the variables
(1/(x_i-x_j), 1/(x_i-x_j)^2, ...) are realized through exact divided
differences and exact polynomial division, so polynomials stay
polynomials and coefficients stay rational.

Variables are 0-based throughout.  An ``Operators`` instance may act on a
contiguous block of the ambient variables (used for two-argument kernels);
by default the block is all of them.  Every operator commutes with
multiplication by monomials in the variables outside its block, so the
cached image of a monomial is keyed by the block's exponents alone (see
``_linear``); an image derived on one block is the whole-space image, so
the views ``Operators.on_block`` returns at the same (n, alpha, a) share
one image table.  The swap cycle s_0, ..., s_(n-2),
its reverse, and the raising map built on it are each one rotation of the
block's exponents (``SparsePoly.rotate_vars``).  Type-B objects act on
polynomials in the squared variables y_i = x_i^2, where the
squared-variable Dunkl operator is just the type-A one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .poly import _from_num, _raw, linear_combination


def _linear(formula):
    """Turn ``formula(self, p, *idx)``, a linear operator, into a method
    that applies it term by term through the instance's image cache.

    The operator acts on the instance's block of variables and commutes
    with multiplication by monomials in the others (Laurent ones too), so
    the image of x^e depends only on the block exponents b = e[lo:hi].  It
    is computed once per instance, by applying ``formula`` to the monomial
    with block exponents b and 0 elsewhere, built directly in canonical
    form (no ``SparsePoly`` validation, no ``Fraction``); it is keyed by
    (operator name, index arguments, b), and kept as a (numerators,
    denominator) pair whose exponents are the block's, so one image serves
    every ambient variable count; a call then brings the images it needs
    over one common denominator and merges them on integers, writing
    e[:lo] + f + e[hi:] for each image exponent f.  When the block is the
    whole ambient space, b is e itself, the derived image is stored as it
    is, and the merge writes f unchanged: slicing and concatenating there
    cost the whole-space workloads a few per cent of their run time.  The
    name keeps operators with equal arguments apart (``cherednik`` and
    ``cherednik_direct`` never share images).
    """
    name = formula.__name__

    def apply(self, p, *idx):
        images = self._images
        n, lo, hi = p.n, self._lo, self._hi
        whole = lo == 0 and hi == n
        hits = []
        den = 1
        for e, c in p.num.items():
            b = e if whole else e[lo:hi]
            key = (name, idx, b)
            img = images.get(key)
            if img is None:
                x_b = (0,) * lo + b + (0,) * (n - hi)
                q = formula(self, _raw(n, {x_b: 1}, 1), *idx)
                num = q.num
                if not whole:
                    num = {f[lo:hi]: v for f, v in num.items()}
                images[key] = img = (num, q.den)
            hits.append((c, e, img))
            den = lcm(den, img[1])
        out = {}
        get = out.get
        for c, e, (num, d) in hits:
            c *= den // d
            if whole:
                for f, v in num.items():
                    out[f] = get(f, 0) + c * v
            else:
                head, tail = e[:lo], e[hi:]
                for f, v in num.items():
                    f = head + f + tail
                    out[f] = get(f, 0) + c * v
        return _from_num(n, out, den * p.den)

    apply.__name__ = name
    apply.__qualname__ = formula.__qualname__
    apply.__doc__ = formula.__doc__
    return apply


def divided_difference(p, i, j):
    """(p - s_ij p) / (x_i - x_j), computed exactly term by term."""
    out = {}
    for e, c in p.num.items():
        a, b = e[i], e[j]
        if a == b:
            continue
        if a < b:
            a, b = b, a
            c = -c
        # (x_i^a x_j^b - x_i^b x_j^a)/(x_i-x_j) = sum_t x_i^(a-1-t) x_j^(b+t)
        for t in range(a - b):
            ne = list(e)
            ne[i] = a - 1 - t
            ne[j] = b + t
            key = tuple(ne)
            out[key] = out.get(key, 0) + c
    return _from_num(p.n, out, p.den)


def divide_by_difference(p, i, j):
    """Exact quotient p / (x_i - x_j).

    Raises if the division leaves a remainder; a nonzero remainder in any
    of the callers signals an arithmetic bug, never valid data.
    """
    quot = {}
    rem = {}
    for e, c in p.num.items():
        k = e[i]
        if k < 0:
            raise ValueError("division needs non-negative exponent in x_i")
        # x_i^k = (x_i - x_j) * sum_t x_i^(k-1-t) x_j^t + x_j^k
        for t in range(k):
            ne = list(e)
            ne[i] = k - 1 - t
            ne[j] = e[j] + t
            key = tuple(ne)
            quot[key] = quot.get(key, 0) + c
        ne = list(e)
        ne[i] = 0
        ne[j] = e[j] + k
        key = tuple(ne)
        rem[key] = rem.get(key, 0) + c
    if any(rem.values()):
        raise ArithmeticError("polynomial not divisible by (x_i - x_j)")
    return _from_num(p.n, quot, p.den)


class Operators:
    """All operator actions for a fixed variable count and coupling.

    ``block`` selects which ambient variables the n logical variables map
    to; it must be a contiguous range.  The optional parameter ``a`` enters
    only the type-B operators.  Instances are immutable apart from an
    append-only image cache (the image of each monomial in the block's
    variables under each operator, see ``_linear``) and are safe to share.
    """

    def __init__(self, n, alpha, a=None, block=None):
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("coupling alpha must be positive")
        self.n = n
        self.alpha = alpha
        self.a = None if a is None else Fraction(a)
        self.vars = tuple(block) if block is not None else tuple(range(n))
        if len(self.vars) != n:
            raise ValueError("block size must equal the logical variable count")
        self._lo = self.vars[0] if n else 0
        self._hi = self._lo + n
        if self.vars != tuple(range(self._lo, self._hi)):
            raise ValueError("block must be a contiguous range of variables")
        self._images = {}

    def on_block(self, block):
        """These operators at the same (n, alpha, a), acting on ``block``.

        The view shares this instance's image table: images are keyed and
        stored by block exponents, so an image derived on any block is the
        whole-space image, and each is derived once for all the views."""
        view = Operators(self.n, self.alpha, self.a, block)
        view._images = self._images
        return view

    def _require_a(self):
        if self.a is None:
            raise ValueError("type-B operators need the parameter a")
        return self.a

    def _x(self, q, i, power=1):
        """x_i^power * q, as an exponent shift."""
        return q.mul_var(self.vars[i], power)

    # -- symmetric group action ---------------------------------------

    def swap(self, p, i, j):
        return p.swap_vars(self.vars[i], self.vars[j])

    def s(self, p, i):
        """Adjacent transposition s_i exchanging variables i, i+1."""
        return p.swap_vars(self.vars[i], self.vars[i + 1])

    def dd(self, p, i, j):
        return divided_difference(p, self.vars[i], self.vars[j])

    # -- type A --------------------------------------------------------

    @_linear
    def dunkl(self, p, i):
        """Type-A Dunkl operator: d/dx_i plus exchange-divided-differences."""
        inv = 1 / self.alpha
        return linear_combination(p.n, chain(
            ((1, p.diff(self.vars[i])),),
            ((inv, self.dd(p, i, k)) for k in range(self.n) if k != i)))

    @_linear
    def cherednik(self, p, i):
        """Cherednik operator in composed form: alpha x_i T_i + 1 - n + sum s_ip."""
        return linear_combination(p.n, chain(
            ((self.alpha, self._x(self.dunkl(p, i), i)), (1 - self.n, p)),
            ((1, self.swap(p, i, k)) for k in range(i + 1, self.n))))

    @_linear
    def cherednik_direct(self, p, i):
        """Cherednik operator from its divided-difference definition.

        Independent of ``dunkl``; used as a cross-check and by the
        eigenproblem oracle.
        """
        # x_i (dd_ik p) for k < i, x_k (dd_ik p) for k > i
        return linear_combination(p.n, chain(
            ((self.alpha, self._x(p.diff(self.vars[i]), i)), (-i, p)),
            ((1, self._x(self.dd(p, i, k), max(i, k)))
             for k in range(self.n) if k != i)))

    @_linear
    def laplacian_A(self, p):
        return linear_combination(
            p.n, ((1, self.dunkl(self.dunkl(p, i), i)) for i in range(self.n)))

    def phi(self, p):
        """Raising operator: multiply by the last variable after the swap cycle."""
        return p.rotate_vars(self._lo, self._hi, 1, 1)

    @_linear
    def phi_hat(self, p):
        """Lowering operator: T_0 after the reverse swap cycle."""
        return self.dunkl(p.rotate_vars(self._lo, self._hi, -1), 0)

    @_linear
    def phi_hat_star(self, p):
        """Adjoint of the lowering operator for the Gaussian pairing."""
        q = linear_combination(p.n, ((2, self._x(p, 0)),
                                     (-1, self.dunkl(p, 0))))
        return q.rotate_vars(self._lo, self._hi, 1)

    @_linear
    def h_op(self, p, i):
        """Eigenoperator of the Gaussian-deformed family."""
        return self.cherednik(p, i) - (self.alpha / 2) * self.dunkl(self.dunkl(p, i), i)

    # -- Euler-type and second-order operators --------------------------

    @_linear
    def euler(self, p, k):
        """sum_i x_i^k d/dx_i (degree operator for k = 1)."""
        return linear_combination(p.n, (
            (1, self._x(p.diff(self.vars[i]), i, k)) for i in range(self.n)))

    @_linear
    def d2_tilde(self, p):
        """Degree-preserving second-order eigenoperator of the E basis.

        sum x_j^2 d_j^2 + (2/alpha) sum_{j<k} [x_j^2 d_j - x_k^2 d_k
        - x_j x_k dd_jk] / (x_j - x_k), the bracket being exactly divisible.
        """
        def bracket(j, k):
            num = linear_combination(p.n, (
                (1, self._x(p.diff(self.vars[j]), j, 2)),
                (-1, self._x(p.diff(self.vars[k]), k, 2)),
                (-1, self._x(self._x(self.dd(p, j, k), j), k))))
            return divide_by_difference(num, self.vars[j], self.vars[k])

        return linear_combination(p.n, chain(
            ((1, self._x(p.diff(v).diff(v), j, 2)) for j, v in enumerate(self.vars)),
            ((2 / self.alpha, bracket(j, k))
             for j in range(self.n) for k in range(j + 1, self.n))))

    @_linear
    def d1_tilde(self, p):
        """Degree-lowering companion of ``d2_tilde`` (half its commutator
        with sum d_j)."""
        def bracket(j, k):
            dd = self.dd(p, j, k)
            num = linear_combination(p.n, (
                (2, self._x(p.diff(self.vars[j]), j)),
                (-2, self._x(p.diff(self.vars[k]), k)),
                (-1, self._x(dd, j)), (-1, self._x(dd, k))))
            return divide_by_difference(num, self.vars[j], self.vars[k])

        return linear_combination(p.n, chain(
            ((1, self._x(p.diff(v).diff(v), j)) for j, v in enumerate(self.vars)),
            ((1 / self.alpha, bracket(j, k))
             for j in range(self.n) for k in range(j + 1, self.n))))

    # -- type B (squared variables) -------------------------------------

    @_linear
    def b_op(self, p, i):
        """Squared-variable building block of the type-B Laplacian:

        B_i = y_i T_i^2 + (a+1) T_i + (1/alpha) sum_{k != i} s_ik T_i.
        """
        a = self._require_a()
        ti = self.dunkl(p, i)
        inv = 1 / self.alpha
        return linear_combination(p.n, chain(
            ((1, self._x(self.dunkl(ti, i), i)), (a + 1, ti)),
            ((inv, self.swap(ti, i, k)) for k in range(self.n) if k != i)))

    @_linear
    def laplacian_B(self, p):
        """Type-B Laplacian on squared-variable polynomials (equals 4 sum B_i)."""
        return linear_combination(
            p.n, ((4, self.b_op(p, i)) for i in range(self.n)))

    @_linear
    def l_op(self, p, i):
        """Eigenoperator of the Laguerre-type family."""
        return self.cherednik(p, i) - self.alpha * self.b_op(p, i)

    # the type-B raising operator multiplies by the last squared variable
    # after the swap cycle, which in squared variables is ``phi`` itself
    psi = phi

    @_linear
    def psi_hat(self, p):
        """Type-B lowering operator: B_0 after the reverse swap cycle."""
        return self.b_op(p.rotate_vars(self._lo, self._hi, -1), 0)

    @_linear
    def psi_hat_star(self, p):
        """Adjoint of the type-B lowering operator for the Laguerre pairing:

        Psi + (1/4) [Psi, Delta_B] + (swap cycle) B_0.
        """
        up = self.psi(p)
        return linear_combination(p.n, (
            (1, up), (Fraction(1, 4), self.psi(self.laplacian_B(p))),
            (Fraction(-1, 4), self.laplacian_B(up)),
            (1, self.b_op(p, 0).rotate_vars(self._lo, self._hi, 1))))
