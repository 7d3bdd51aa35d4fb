"""Exact sparse multivariate Laurent polynomials over the rationals.

A polynomial is stored as integer numerators over one shared positive
denominator: ``num`` maps integer exponent vectors (length-n tuples,
negative entries allowed) to non-zero ints, and ``den`` is a positive int
with ``gcd(den, *num.values()) == 1``.  That form is canonical, so equal
polynomials have equal ``(n, den, num)``, and ring operations run on
Python ints instead of ``Fraction`` objects.  ``Fraction`` stays at the
boundary: constructors and scalars take it, and ``terms``, ``coeff`` and
the serializers hand it out.  Everything here is pure and exact; floats
never appear.

The one reduction to canonical form, ``_from_num``, is also the only
place that drops zero numerators, so the loops that accumulate numerators
(sums, products, substitutions, and the operators built on them) store
every partial sum without testing it.

A sum of many polynomials is one ``linear_combination(n, pairs)`` call,
which merges every summand's numerators into one dict over a running
denominator and reduces once, instead of a chain of ``+`` that copies and
rescales the partial sum at every step.  A terminating exponential
exp(c step) p is one ``exp_series(p, step, c)`` call, its terms streamed
through that accumulator.  Multiplying by a power of one variable is
``SparsePoly.mul_var``, an exponent shift rather than a product.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm
from operator import add, itemgetter

ZERO = Fraction(0)
ONE = Fraction(1)


def _raw(n, num, den):
    """Wrap numerators over a denominator that are already in canonical form."""
    p = object.__new__(SparsePoly)
    p.n = n
    p.num = num
    p.den = den
    return p


def _from_num(n, num, den=1):
    """The polynomial ``num / den``, reduced to canonical form.

    Zero numerators are dropped here, so the loops that accumulate into
    ``num`` never test for them.  ``den`` must be positive; the dict is
    taken over, not copied.
    """
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values()) if num else den
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    # ``_raw`` inlined: one call fewer on every reduction
    p = object.__new__(SparsePoly)
    p.n = n
    p.num = num
    p.den = den
    return p


class _Terms(Mapping):
    """Read-only view of a polynomial's coefficients as ``Fraction`` values.

    A ``Mapping`` from exponent tuples to non-zero ``Fraction``
    coefficients, so ``get``, ``keys``, ``values``, ``items`` and ``==``
    with a dict come from ``collections.abc``.  Each value is built on
    access from the shared numerators, so the view costs no memory of its
    own; ``in`` reads the numerators and builds no ``Fraction``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __len__(self):
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __contains__(self, e):
        return e in self._num

    def __getitem__(self, e):
        return Fraction(self._num[e], self._den)

    def __repr__(self):
        return repr(dict(self.items()))


class SparsePoly:
    """A sparse Laurent polynomial in a fixed number of variables.

    Instances are treated as immutable: all operations return new
    polynomials and never mutate their arguments (or the ``num`` dicts
    they share), so values can be cached and shared freely.
    ``SparsePoly(n, terms)`` takes a map from exponent vectors to rational
    coefficients; zero coefficients are dropped.  The value is held as
    ``num`` (exponents to non-zero int numerators) over ``den`` in the
    canonical form described in the module docstring; ``terms`` reads it
    back as a read-only ``Mapping`` of ``Fraction`` coefficients.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        den = 1
        if terms:
            for exps, c in terms.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c != 0:
                    if len(exps) != n:
                        raise ValueError(
                            f"exponent vector {exps} has length {len(exps)}, expected {n}")
                    clean[tuple(exps)] = c
                    den = lcm(den, c.denominator)
        self.n = n
        # over the lcm of reduced denominators the numerators have no
        # common factor with it, so this is already canonical
        self.num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls.monomial(n, (0,) * n, c)

    @classmethod
    def one(cls, n):
        return _raw(n, {(0,) * n: 1}, 1)

    @classmethod
    def variable(cls, n, i):
        """The monomial x_i (0-based index)."""
        e = [0] * n
        e[i] = 1
        return _raw(n, {tuple(e): 1}, 1)

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self):
        """The coefficients as a read-only ``Mapping`` of Fractions."""
        return _Terms(self.num, self.den)

    @property
    def is_zero(self):
        return not self.num

    def coeff(self, exps):
        c = self.num.get(tuple(exps))
        return ZERO if c is None else Fraction(c, self.den)

    def constant_term(self):
        """Coefficient of the zero exponent vector (0 if absent)."""
        return self.coeff((0,) * self.n)

    def total_degree(self):
        """Maximum exponent sum over terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self.num), default=0)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.num}
        return len(degrees) <= 1

    def is_laurent_free(self):
        """True if no exponent is negative (a genuine polynomial)."""
        return all(min(e) >= 0 for e in self.num) if self.num else True

    def sorted_terms(self):
        """Terms in canonical order: descending lexicographic exponents."""
        num, den = self.num, self.den
        return [(e, Fraction(num[e], den)) for e in sorted(num, reverse=True)]

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other, sign=1):
        """self + sign * other, over the lcm of the two denominators.

        Subtraction is this call with sign -1, so every sum or difference
        of polynomials is one ``__add__`` call.
        """
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.n, other)
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, m2 = d1, sign
            out = dict(self.num)
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, sign * (den // d2)
            out = {e: c * m1 for e, c in self.num.items()}
        for e, c in other.num.items():
            out[e] = out.get(e, 0) + c * m2
        return _from_num(self.n, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.n, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        """self * c for a rational c, reduced without a pass over the result.

        With gcd(den, content) = 1 and gcd(a, b) = 1, the common factor of
        (a * num) / (den * b) is gcd(a, den) * gcd(b, content).
        """
        if isinstance(c, int):
            a, b = c, 1
        else:
            c = Fraction(c)
            a, b = c.numerator, c.denominator
        if a == 0:
            return SparsePoly.zero(self.n)
        g = gcd(a, self.den)
        h = gcd(b, *self.num.values()) if b != 1 else 1
        a //= g
        if h == 1:
            num = {e: v * a for e, v in self.num.items()}
        else:
            num = {e: v // h * a for e, v in self.num.items()}
        return _raw(self.n, num, self.den // g * (b // h))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self._scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _from_num(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def mul_truncated(self, other, block, cap):
        """The terms of ``self * other`` of degree at most ``cap`` in the
        variables ``block``.

        ``other`` is bucketed by its degree in the block, so no pair of
        terms beyond the cap is ever formed.
        """
        self._check(other)
        bdeg = _block_degree(block, self.n)
        levels = {}
        for e2, c2 in other.num.items():
            levels.setdefault(bdeg(e2), []).append((e2, c2))
        levels = sorted(levels.items())
        out = {}
        for e1, c1 in self.num.items():
            room = cap - bdeg(e1)
            for k, terms in levels:
                if k > room:
                    break
                for e2, c2 in terms:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return _from_num(self.n, out, self.den * other.den)

    def __truediv__(self, scalar):
        return self._scale(ONE / Fraction(scalar))

    def __pow__(self, m):
        if not isinstance(m, int) or m < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = SparsePoly.one(self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def __eq__(self, other):
        """Equality by value with a polynomial or a rational constant; any
        other operand is left to Python (so ``p == "1"`` is False)."""
        if isinstance(other, SparsePoly):
            return self.n == other.n and self.den == other.den and self.num == other.num
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.is_zero if other == 0 else self == SparsePoly.constant(self.n, other)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.num.items())))

    # -- substitutions and reindexings ----------------------------------
    # A relabeling of exponents that is one-to-one keeps the numerators
    # and the denominator as they are, so the result stays canonical.

    def _reorder(self, order):
        """Exponent vector e becomes (e[order[0]], ..., e[order[n-1]]); n >= 2."""
        relabel = itemgetter(*order)
        return _raw(self.n, {relabel(e): c for e, c in self.num.items()}, self.den)

    def swap_vars(self, i, j):
        """Exchange variables i and j."""
        if i == j:
            return self
        order = list(range(self.n))
        order[i], order[j] = j, i
        return self._reorder(order)

    def swap_add(self, i, j, c):
        """s_ij(self) + c * self, built on the integer numerators with no
        intermediate polynomial.

        With c = -b/a in lowest terms, the sum is (a s_ij(num) - b num) /
        (a den); terms that the swap fixes or sends onto another term
        merge, so the result goes through ``_from_num``.
        """
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if i == j:  # also the only case in one variable
            return self._scale(1 + c)
        a, b = c.denominator, -c.numerator
        order = list(range(self.n))
        order[i], order[j] = j, i
        relabel = itemgetter(*order)
        num = self.num
        out = {relabel(e): a * v for e, v in num.items()}
        get = out.get
        for e, v in num.items():
            out[e] = get(e, 0) - b * v
        return _from_num(self.n, out, self.den * a)

    def rotate_vars(self, lo, hi, k, power=0):
        """Cycle the variables lo, ..., hi-1 by k places, then multiply by
        x_(hi-1)^power, in one relabel of the exponents.

        The exponents b = e[lo:hi] of the block become b[k:] + b[:k]: k = 1
        is the swap cycle s_(hi-2) ... s_lo, which moves x_lo to x_(hi-1),
        and k = -1 is its inverse.
        """
        if not 0 <= lo < hi <= self.n:
            raise ValueError(f"no block {lo}..{hi - 1} among {self.n} variables")
        cut = lo + k % (hi - lo)
        if cut == lo:
            return self.mul_var(hi - 1, power)
        if not power:  # hi - lo >= 2 here, so n >= 2
            return self._reorder([*range(lo), *range(cut, hi),
                                  *range(lo, cut), *range(hi, self.n)])
        last = cut - 1
        num = {e[:lo] + e[cut:hi] + e[lo:last] + (e[last] + power,) + e[hi:]: c
               for e, c in self.num.items()}
        return _raw(self.n, num, self.den)

    def permute_vars(self, sigma):
        """Substitute x_i -> x_{sigma[i]} for every variable simultaneously."""
        if sorted(sigma) != list(range(self.n)):
            raise ValueError(f"{sigma} is not a permutation of the variables")
        if self.n == 1:
            return self
        order = [0] * self.n
        for i, target in enumerate(sigma):
            order[target] = i
        return self._reorder(order)

    def scale_vars(self, factor, block=None):
        """Substitute x_i -> factor * x_i for i in ``block`` (every variable
        if None).  With factor = a/b, a term of block degree k gets
        a^(k - lo) b^(hi - k) over a^(-lo) b^hi, where lo <= 0 <= hi bound
        the block degrees, so every step stays in integers."""
        factor = Fraction(factor)
        if factor == 0:
            raise ValueError("scale_vars needs a non-zero factor")
        a, b = factor.numerator, factor.denominator
        bdeg = _block_degree(block, self.n)
        degs = [bdeg(e) for e in self.num]
        lo, hi = min([0, *degs]), max([0, *degs])
        num = {e: c * a ** (k - lo) * b ** (hi - k)
               for (e, c), k in zip(self.num.items(), degs)}
        den = self.den * a ** -lo * b ** hi
        if den < 0:
            den, num = -den, {e: -c for e, c in num.items()}
        return _from_num(self.n, num, den)

    def embed(self, total, offset=0):
        """The same polynomial in ``total`` variables: variable i becomes
        variable offset + i, and the other variables do not occur."""
        if not 0 <= offset <= total - self.n:
            raise ValueError(f"{self.n} variables do not fit at {offset} of {total}")
        pre, post = (0,) * offset, (0,) * (total - offset - self.n)
        return _raw(total, {pre + e + post: c for e, c in self.num.items()},
                    self.den)

    def mul_var(self, i, power=1):
        """self * x_i^power, as a shift of every exponent of x_i (power may
        be negative)."""
        if not 0 <= i < self.n:
            raise ValueError(f"no variable {i} among {self.n}")
        if not power:
            return self
        j = i + 1
        return _raw(self.n, {e[:i] + (e[i] + power,) + e[j:]: c
                             for e, c in self.num.items()}, self.den)

    def invert_vars(self):
        """Substitute x_i -> 1/x_i (exponent negation)."""
        return _raw(
            self.n, {tuple(-x for x in e): c for e, c in self.num.items()}, self.den)

    def scale_exponents(self, m):
        """Substitute x_i -> x_i^m (used to write y-variable results in x^2)."""
        if m == 0:
            raise ValueError("scale_exponents needs a non-zero power")
        return _raw(
            self.n, {tuple(m * x for x in e): c for e, c in self.num.items()}, self.den)

    def shift_by_one(self, only=None):
        """Substitute x_i -> x_i + 1 (for every variable, or a chosen subset)."""
        p = self
        for i in (range(self.n) if only is None else only):
            out = {}
            for e, c in p.num.items():
                k = e[i]
                if k < 0:
                    raise ValueError("shift by one needs non-negative exponents")
                for j in range(k + 1):
                    ne = list(e)
                    ne[i] = j
                    key = tuple(ne)
                    out[key] = out.get(key, 0) + c * comb(k, j)
            p = _from_num(self.n, out, p.den)
        return p

    def diff(self, i):
        """Partial derivative with respect to x_i."""
        out = {}
        for e, c in self.num.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            out[tuple(ne)] = c * k
        return _from_num(self.n, out, self.den)

    def eval_exact(self, point):
        """Evaluate at a point of rationals, exactly.

        Raises on a zero coordinate hitting a negative exponent.
        """
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        point = [Fraction(x) for x in point]
        total = ZERO
        for e, c in self.num.items():
            v = c
            for x, k in zip(point, e):
                if k == 0:
                    continue
                if x == 0:
                    if k < 0:
                        raise ValueError("pole: evaluation at 0 with negative exponent")
                    v = 0
                    break
                v *= x ** k
            total += v
        return total / self.den

    def filter_terms(self, keep):
        """Sub-polynomial of the terms whose exponent vector satisfies ``keep``."""
        return _from_num(
            self.n, {e: c for e, c in self.num.items() if keep(e)}, self.den)

    # -- serialization --------------------------------------------------

    def to_json_dict(self):
        """Canonical JSON form with coefficients as decimal strings."""
        return {
            "n": self.n,
            "terms": [[list(e), str(c.numerator), str(c.denominator)]
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, d):
        terms = {tuple(map(int, e)): Fraction(int(num), int(den))
                 for e, num, den in d["terms"]}
        return cls(d["n"], terms)

    def __repr__(self):
        if self.is_zero:
            return "SparsePoly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{k}" if k != 1 else f"x{i}"
                            for i, k in enumerate(e) if k != 0)
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "SparsePoly(" + " + ".join(bits) + ")"


# -- module-level helpers ----------------------------------------------


def linear_combination(n, pairs):
    """The sum of c * p over the ``(c, p)`` pairs, for rational c and
    polynomials p in n variables.

    Every summand's numerators are merged into one dict over a running
    denominator, which is rescaled in place only when a summand's
    denominator does not divide it; the sum is reduced once at the end.
    ``pairs`` may be any iterable and is consumed one pair at a time, so a
    generator of summands is never held in full.  An empty sum is the zero
    polynomial in n variables.
    """
    out = {}
    den = 1
    for c, p in pairs:
        if p.n != n:
            raise ValueError(f"ambient dimension mismatch: {p.n} vs {n}")
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c or not p.num:
            continue
        # c * p = m * p.num / den
        den, m = _bring_over(out, den, c, p.den)
        get = out.get
        for e, v in p.num.items():
            out[e] = get(e, 0) + v * m
    return _from_num(n, out, den)


def _bring_over(out, den, c, d):
    """Put the rational c over ``d`` on the running denominator ``den`` of
    the integer numerators ``out``: returns (den', m) with c / d = m / den',
    where den' is den, or their lcm with ``out`` rescaled in place.  The
    factor that c's numerator shares with d is dropped first."""
    a = c.numerator
    g = gcd(a, d)
    a, d = a // g, c.denominator * (d // g)
    if den % d:
        new = lcm(den, d)
        r = new // den
        for e, v in out.items():
            out[e] = v * r
        den = new
    return den, a * (den // d)


def symmetrize(p, block=None):
    """Sum of p over all permutations of the variables ``block`` (all
    variables if None); not averaged."""
    idx = list(range(p.n) if block is None else block)

    def images():
        for perm in permutations(idx):
            sigma = list(range(p.n))
            for src, dst in zip(idx, perm):
                sigma[src] = dst
            yield 1, p.permute_vars(sigma)

    return linear_combination(p.n, images())


def power_sum(n, k, block=None):
    """The power sum of x_i^k over the variables ``block`` (all n variables
    if None), as a polynomial in n variables."""
    num = {}
    for i in (range(n) if block is None else block):
        e = [0] * n
        e[i] = k
        e = tuple(e)
        num[e] = num.get(e, 0) + 1
    return _raw(n, num, 1)


def rising(c, k):
    """Rising factorial c (c+1) ... (c+k-1) as an exact Fraction."""
    c = Fraction(c)
    out = ONE
    for m in range(k):
        out *= c + m
    return out


def series_binomial(c, degree):
    """Taylor coefficients of (1-t)^(-c) through t^degree."""
    c = Fraction(c)
    out = [ONE]
    for k in range(1, degree + 1):
        out.append(out[-1] * (c + k - 1) / k)
    return out


def _block_degree(block, n):
    """The degree in the variables ``block`` (all n variables if None), as
    a function of an exponent vector."""
    if block is None or sorted(block) == list(range(n)):
        return sum
    block = tuple(block)
    if len(block) == 1:
        return itemgetter(block[0])
    pick = itemgetter(*block)
    return lambda e: sum(pick(e))


def exp_truncated(p, cap, block=None):
    """exp(p) truncated to degree ``cap`` in the variables ``block`` (all
    variables if None).

    Every term of ``p`` must have strictly positive degree in the block
    (so p has no constant term): then truncation commutes with the series,
    and the series ends.
    """
    bdeg = _block_degree(block, p.n)
    if not all(bdeg(e) > 0 for e in p.num):
        raise ValueError("exp series needs every term of positive degree in the block")
    return exp_series(SparsePoly.one(p.n),
                      lambda q: q.mul_truncated(p, block, cap))


def exp_series(p, step, c=1):
    """exp(c * step) applied to p: the sum over m >= 0 of c^m / m! times
    step^m(p), for a linear map ``step`` that sends p to 0 after finitely
    many applications.

    The terms stream through one ``linear_combination`` and stop at the
    first step^m(p) that is zero.
    """
    def terms():
        coeff, term, m = ONE, p, 0
        while not term.is_zero:
            yield coeff, term
            m += 1
            coeff = coeff * c / m
            term = step(term)

    return linear_combination(p.n, terms())


def geometric_substitution(p, var_indices, cap, block=None):
    """Substitute x_v -> x_v/(1-x_v) for each v in var_indices, truncated
    to degree ``cap`` in the variables ``block`` (all variables if None).

    Exponents of the substituted variables must be non-negative, and the
    block must contain them.
    """
    block = range(p.n) if block is None else block
    if not set(var_indices) <= set(block):
        raise ValueError("the truncation block must contain the substituted variables")
    bdeg = _block_degree(block, p.n)
    out = p
    for v in var_indices:
        acc = {}
        for e, c in out.num.items():
            k = e[v]
            if k < 0:
                raise ValueError("geometric substitution needs non-negative exponents")
            room = cap - bdeg(e)
            if room < 0:
                continue
            if k == 0:
                acc[e] = c
                continue
            # x^k/(1-x)^k = sum_m C(k-1+m, m) x^(k+m); each m raises the
            # block degree by one
            for m in range(room + 1):
                ne = list(e)
                ne[v] = k + m
                key = tuple(ne)
                acc[key] = acc.get(key, 0) + c * comb(k - 1 + m, m)
        out = _from_num(p.n, acc, out.den)
    return out
