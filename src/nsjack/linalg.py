"""Tiny exact linear solver over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(values):
    """The row as coprime ints: scaled by the lcm of its denominators and
    divided by the gcd of the resulting numerators."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v)
              for v in values]
    d = lcm(*(v.denominator for v in values))
    row = [v.numerator * (d // v.denominator) for v in values]
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def solve_exact(rows, rhs):
    """Solve a consistent (possibly overdetermined) linear system exactly.

    ``rows`` is a list of equal-length coefficient lists, ``rhs`` the
    right-hand sides.  Raises if the system is inconsistent or the
    solution is not unique.

    Fraction-free Gauss-Jordan: each augmented row is cleared of its
    denominators, an elimination step replaces row k by
    (p/g) * row_k - (f/g) * pivot_row with g = gcd(p, f), and the new row
    is divided by its content, so the entries stay small integers.  Only
    the final quotients are ``Fraction`` values.
    """
    m = len(rows[0])
    aug = [_integer_row(list(row) + [b]) for row, b in zip(rows, rhs)]
    # every column gets a pivot, so the pivot of column col sits in row col
    for col in range(m):
        pivot = next((k for k in range(col, len(aug)) if aug[k][col]), None)
        if pivot is None:
            raise ArithmeticError("singular system: no pivot for a column")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pr = aug[col]
        p = pr[col]
        for k, row in enumerate(aug):
            f = row[col]
            if k == col or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(row, pr)]
            content = gcd(*new)
            if content > 1:
                new = [x // content for x in new]
            aug[k] = new
    if any(row[m] for row in aug[m:]):
        raise ArithmeticError("inconsistent linear system")
    return [Fraction(aug[col][m], aug[col][col]) for col in range(m)]
