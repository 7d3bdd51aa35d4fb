"""Exact non-symmetric Jack, Hermite and Laguerre polynomials.

The package constructs the polynomials by operator recursions over exact
rational arithmetic and mechanically verifies their norm formulas, kernel
identities, binomial expansions and constant-term evaluations, plus a
small quadrature layer for the integral statements that are genuinely
analytic.
"""

from fractions import Fraction

from .poly import SparsePoly, symmetrize, series_binomial, rising
from .combinat import (
    compositions,
    compositions_up_to,
    eta_plus,
    precedes,
    eta_bar,
    eta_bar_vec,
    d_const,
    d_prime_const,
    e_const,
    f_const,
    gen_fact,
    rf_partition,
    hook_norm_j,
    phi_map,
    phi_hat_map,
    si_map,
)
from .operators import Operators, divided_difference, divide_by_difference
from .jack import JackBasis
from .hermite_laguerre import DeformedBasis, HermiteBasis, LaguerreBasis

__all__ = [
    "Fraction",
    "SparsePoly",
    "symmetrize",
    "series_binomial",
    "rising",
    "compositions",
    "compositions_up_to",
    "eta_plus",
    "precedes",
    "eta_bar",
    "eta_bar_vec",
    "d_const",
    "d_prime_const",
    "e_const",
    "f_const",
    "gen_fact",
    "rf_partition",
    "hook_norm_j",
    "phi_map",
    "phi_hat_map",
    "si_map",
    "Operators",
    "divided_difference",
    "divide_by_difference",
    "JackBasis",
    "DeformedBasis",
    "HermiteBasis",
    "LaguerreBasis",
]
