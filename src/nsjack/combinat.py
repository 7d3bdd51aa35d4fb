"""Compositions, partitions, orderings, and diagram statistics.

A composition eta is an n-tuple of non-negative integers.  Attached to it
are the spectral vector eta_bar (exact Fractions) and the diagram
statistics (arm/leg lengths and colengths).  The label constants built
from those statistics (d, d', e, f, the generalized factorials and
j_kappa) live in the basis memo, ``JackBasis``, at its (n, alpha).
"""

from __future__ import annotations

from fractions import Fraction


# -- enumeration -----------------------------------------------------------


def compositions(n, weight):
    """All n-tuples of non-negative integers with the given sum.

    Deterministic order: descending lexicographic.  Iterative, so any n
    works: the successor moves one unit from the rightmost positive part
    before the last to the part after it, which also takes the last part.
    """
    if n == 1:
        yield (weight,)
        return
    if weight < 0:
        return
    parts = [weight] + [0] * (n - 1)
    last = n - 1
    while True:
        yield tuple(parts)
        i = last - 1
        while i >= 0 and not parts[i]:
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        tail = parts[last]
        parts[last] = 0
        parts[i + 1] = tail + 1


def compositions_up_to(n, max_weight):
    out = []
    for w in range(max_weight + 1):
        out.extend(compositions(n, w))
    return out


def partitions(weight, max_parts):
    """Partitions of ``weight`` into at most ``max_parts`` parts (no padding)."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                if len(rest) < max_parts:
                    yield (first,) + rest

    if weight == 0:
        yield ()
        return
    yield from rec(weight, weight)


# -- orderings -------------------------------------------------------------


def eta_plus(eta):
    """The partition obtained by sorting the parts decreasingly."""
    return tuple(sorted(eta, reverse=True))


def dominance_leq(nu, eta):
    """nu <= eta in dominance order (all partial sums of eta-nu >= 0)."""
    s = 0
    for a, b in zip(eta, nu):
        s += a - b
        if s < 0:
            return False
    return True


def precedes(nu, eta):
    """The strict partial order used in the triangular monomial expansion.

    nu < eta iff nu+ is dominance-below eta+, or the rearrangements agree
    and nu is dominance-below eta, with nu != eta.
    """
    if sum(nu) != sum(eta):
        raise ValueError("order undefined for compositions of different weight")
    if nu == eta:
        return False
    np_, ep = eta_plus(nu), eta_plus(eta)
    if np_ == ep:
        return dominance_leq(nu, eta)
    return dominance_leq(np_, ep)


def order_key(eta):
    """Total order key refining ``precedes`` (for deterministic peeling)."""
    return (sum(eta), eta_plus(eta), eta)


# -- spectral vector -------------------------------------------------------


def _rank(eta, i):
    """The integer k in eta_bar_i = alpha eta_i - k: the parts before i at
    least eta_i, and the parts after i above it."""
    e = eta[i]
    return sum(x >= e for x in eta[:i]) + sum(x > e for x in eta[i + 1:])


def eta_bar(eta, i, alpha):
    """i-th entry (0-based) of the spectral vector of eta.

    With alpha = p/q this is (p eta_i - q k)/q: counted in integers, made
    a Fraction once.
    """
    alpha = Fraction(alpha)
    q = alpha.denominator
    return Fraction(alpha.numerator * eta[i] - q * _rank(eta, i), q)


def eta_bar_vec(eta, alpha):
    return tuple(eta_bar(eta, i, alpha) for i in range(len(eta)))


def delta_gap(eta, i, alpha):
    """eta_bar_i - eta_bar_{i+1}; never zero when the parts differ."""
    return eta_bar(eta, i, alpha) - eta_bar(eta, i + 1, alpha)


# -- diagram statistics ----------------------------------------------------


def nodes(eta):
    """Diagram nodes (i, j) with 0-based row i and 1-based column j."""
    return [(i, j) for i, part in enumerate(eta) for j in range(1, part + 1)]


def arm(eta, i, j):
    return eta[i] - j


def arm_co(eta, i, j):
    return j - 1


def leg(eta, i, j):
    below = sum(1 for k in range(i + 1, len(eta)) if j <= eta[k] <= eta[i])
    above = sum(1 for k in range(i) if j <= eta[k] + 1 <= eta[i])
    return below + above


def leg_co(eta, i, j):
    below = sum(1 for k in range(i + 1, len(eta)) if eta[k] > eta[i])
    above = sum(1 for k in range(i) if eta[k] >= eta[i])
    return below + above


# -- composition maps ------------------------------------------------------


def phi_map(eta):
    """Raising map: drop the first part, append first+1."""
    return eta[1:] + (eta[0] + 1,)


def phi_hat_map(eta):
    """Lowering map: prepend last-1 (needs a positive last part)."""
    if eta[-1] < 1:
        raise ValueError("lowering map needs a positive last part")
    return (eta[-1] - 1,) + eta[:-1]


def si_map(eta, i):
    """Swap parts i and i+1 (0-based)."""
    out = list(eta)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def add_to_all(eta, p):
    return tuple(x + p for x in eta)


def reversed_eta(eta):
    return tuple(reversed(eta))
