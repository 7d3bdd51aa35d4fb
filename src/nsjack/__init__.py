"""Exact non-symmetric Jack, Hermite and Laguerre polynomials.

The package constructs the polynomials by operator recursions over exact
rational arithmetic and mechanically verifies their norm formulas, kernel
identities, binomial expansions and constant-term evaluations, plus a
small quadrature layer for the integral statements that are genuinely
analytic.

The names below are resolved on first access (PEP 562), so importing one
submodule, as each CLI command does, loads only the layers it runs.
"""

from fractions import Fraction
from importlib import import_module as _import_module

# (submodule, the names it provides)
_EXPORTS = (
    ("poly", ("SparsePoly", "symmetrize", "series_binomial", "rising")),
    ("combinat", ("compositions", "compositions_up_to", "eta_plus",
                  "precedes", "eta_bar", "eta_bar_vec", "phi_map",
                  "phi_hat_map", "si_map")),
    ("operators", ("Operators", "divided_difference",
                   "divide_by_difference")),
    ("jack", ("JackBasis",)),
    ("hermite_laguerre", ("DeformedBasis", "HermiteBasis", "LaguerreBasis")),
)

__all__ = ["Fraction", *(name for _, names in _EXPORTS for name in names)]


def __getattr__(name):
    for module, names in _EXPORTS:
        if name == module:
            # importing a submodule binds it as a package attribute
            return _import_module(f".{name}", __name__)
        if name in names:
            value = getattr(_import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
