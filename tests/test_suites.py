"""Report shapes of the verification suites and the witness of a failure."""

from fractions import Fraction as F

import pytest

from nsjack import suites
from nsjack.hermite_laguerre import HermiteBasis, LaguerreBasis

ALPHA = (F(7, 5),)
A_SET = ("0", "1/2", "1")

TYPE_A = [
    "dunkl-position-commutator-diagonal", "dunkl-position-commutator-offdiagonal",
    "dunkl-commutativity", "cherednik-commutativity", "cherednik-forms-agree",
    "hecke-relations", "h-hecke-relations", "cherednik-dunkl-commutators",
    "cherednik-dunkl-commutator-diagonal", "lowering-intertwining",
    "laplacian-commutators", "adjoint-raising-representation",
    "gaussian-ladder-intertwining", "euler-commutator-identity",
]
TYPE_B = [
    "b-commutativity", "l-commutativity", "l-hecke-relations",
    "cherednik-b-commutators", "cherednik-b-commutator-diagonal",
    "b-laplacian-commutator", "b-lowering-intertwining",
    "laguerre-ladder-intertwining",
]
JACK = [
    "jack-eigen-triangular-positive", "jack-oracle-equivalence",
    "jack-evaluation-all-ones", "jack-label-shift", "jack-inversion",
    "jack-transposition-action", "jack-ladder-constants",
    "jack-constant-recursions", "jack-symmetric-basis",
]
HERMITE = [
    "hermite-eigen", "hermite-transposition-action", "hermite-ladder",
    "hermite-pairing-values", "hermite-harmonic-decomposition",
]
LAGUERRE = [
    "laguerre-eigen", "laguerre-transposition-action", "laguerre-ladder",
    "laguerre-value-at-origin", "laguerre-pairing-values",
    "laguerre-harmonic-decomposition",
]


def _shape(reports):
    return [(r["check"], r["n"], r.get("a")) for r in reports]


def test_report_shapes_are_pinned():
    operators = suites.suite_operators(alphas=ALPHA, max_weight=1, max_n=3)
    want = []
    for n in (2, 3):
        want += [(c, n, None) for c in TYPE_A]
        want += [(c, n, a) for a in A_SET for c in TYPE_B]
    assert _shape(operators) == want
    assert len(operators) == 76

    jack = suites.suite_jack(alphas=ALPHA, max_weight=1, max_n=3)
    assert _shape(jack) == [(c, n, None) for n in (1, 2, 3) for c in JACK]
    assert len(jack) == 27

    hermite = suites.suite_hermite(alphas=ALPHA, max_weight=1, max_n=3)
    assert _shape(hermite) == [(c, n, None) for n in (1, 2, 3) for c in HERMITE]
    assert len(hermite) == 15

    laguerre = suites.suite_laguerre(alphas=ALPHA, max_weight=1, max_n=3)
    assert _shape(laguerre) == [(c, n, a) for n in (1, 2, 3) for a in A_SET
                                for c in LAGUERRE]
    assert len(laguerre) == 54

    for rep in operators + jack + hermite + laguerre:
        assert rep["status"] == "pass" and "witness" not in rep


@pytest.mark.parametrize("cls, suite, kwargs", [
    (HermiteBasis, suites.suite_hermite, {}),
    (LaguerreBasis, suites.suite_laguerre, {"a_set": (F(1, 2),)}),
])
def test_failing_family_report_names_the_label(monkeypatch, cls, suite, kwargs):
    right = cls.E

    def wrong(self, eta):
        p = right(self, eta)
        return p + 1 if tuple(eta) == (1, 0) else p

    monkeypatch.setattr(cls, "E", wrong)
    reports = suite(alphas=ALPHA, max_weight=1, max_n=2, **kwargs)
    failed = [r for r in reports if r["status"] == "fail"]
    assert failed, "a wrong E((1, 0)) must fail a check"
    assert all(r["n"] == 2 and r["witness"] == repr((1, 0)) for r in failed)
    assert all("witness" not in r for r in reports if r["status"] == "pass")
