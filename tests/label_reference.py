"""Reference values of the label constants, for the tests only.

Each constant is its defining product over the diagram nodes, taken one
Fraction factor at a time.  ``JackBasis`` computes the same constants as
integer products over one power of the denominator and keeps them in its
memo; the tests compare the two, and check hand-computed values and
recursions against these.
"""

from fractions import Fraction

from nsjack.combinat import arm, arm_co, leg, leg_co, nodes


def d_prime_const(eta, alpha):
    """Product over nodes of alpha*(arm+1) + leg."""
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i, j in nodes(eta):
        out *= alpha * (arm(eta, i, j) + 1) + leg(eta, i, j)
    return out


def d_const(eta, alpha):
    """Product over nodes of alpha*(arm+1) + leg + 1."""
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i, j in nodes(eta):
        out *= alpha * (arm(eta, i, j) + 1) + leg(eta, i, j) + 1
    return out


def e_const(eta, alpha):
    """Product over nodes of alpha*(arm colength + 1) + n - leg colength."""
    alpha = Fraction(alpha)
    n = len(eta)
    out = Fraction(1)
    for i, j in nodes(eta):
        out *= alpha * (arm_co(eta, i, j) + 1) + n - leg_co(eta, i, j)
    return out


def f_const(eta, alpha):
    return d_const(eta, alpha) * d_prime_const(eta, alpha)


def gen_fact(c, eta, alpha):
    """Generalized factorial [c]_eta = prod over nodes of c + a'(s) - l'(s)/alpha."""
    c = Fraction(c)
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i, j in nodes(eta):
        out *= c + arm_co(eta, i, j) - Fraction(leg_co(eta, i, j)) / alpha
    return out


def hook_norm_j(kappa, alpha):
    """Hook normalization for the symmetric basis:

    j_kappa = prod over partition nodes of
              (alpha*arm + leg + 1)(alpha*arm + leg + alpha).
    """
    alpha = Fraction(alpha)
    kappa = tuple(p for p in kappa if p > 0)
    conj = [sum(1 for p in kappa if p >= j) for j in range(1, (kappa[0] if kappa else 0) + 1)]
    out = Fraction(1)
    for i, part in enumerate(kappa):
        for j in range(1, part + 1):
            a = part - j
            l = conj[j - 1] - (i + 1)
            out *= (alpha * a + l + 1) * (alpha * a + l + alpha)
    return out
