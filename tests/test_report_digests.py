"""Pinned digests of the exact suite reports at small sizes.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces)
of one suite's report list, so a refactor that claims to keep every report
byte-identical is checked here rather than by hand.  Changing a digest is
a change to the reports: it must be deliberate and listed in CHANGES.md
with its reason.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from nsjack import jack, kernels, suites
from nsjack.jack import JackBasis
from nsjack.poly import SparsePoly

ALPHAS = (F(1), F(7, 5))


def _mutation_probe_reports():
    """The 30 reports of the kernel mutation probe in test_kernels: a
    wrong E((2, 0)) and a wrong d_(2,0), each under every kernel check at
    n = 2, D = 4."""
    def wrong_E(jb):
        jb._cache[(2, 0)] = (jb.E((2, 0))
                             + SparsePoly.monomial(2, (1, 1), F(1, 97)))

    def wrong_d(jb):
        jb.d_const((2, 0))
        jb._consts["d", (2, 0)] *= F(98, 97)

    reports = []
    for mutation in (wrong_E, wrong_d):
        for name in kernels.IDENTITY_CHECKS:
            jb = JackBasis(2, F(7, 5))
            mutation(jb)
            reports.append(kernels.verify_kernel_identity(name, jb, 4,
                                                          a=F(1, 2)))
    return reports


RUNS = {
    "operators": lambda: suites.suite_operators(
        alphas=(F(7, 5),), max_weight=2, max_n=2, a_set=(F(1, 2),)),
    "jack": lambda: suites.suite_jack(alphas=ALPHAS),
    "hermite": lambda: suites.suite_hermite(alphas=ALPHAS),
    "laguerre": lambda: suites.suite_laguerre(alphas=ALPHAS),
    "kernels": lambda: suites.suite_kernels(alphas=ALPHAS,
                                            sizes=((2, 4), (3, 3))),
    "binomials": lambda: suites.suite_binomials(alphas=ALPHAS),
    "ct": suites.suite_ct,
    "sahi": suites.suite_sahi,
    "kernel-mutation-probe": _mutation_probe_reports,
}

# name: (sha256, number of reports, number failing)
DIGESTS = {
    "operators": (
        "a606c5b2edae1e70752b2d0afcd8c1ccc6b39bbb6f69b13638bb8c3b86f73ad0",
        22, 0),
    "jack": (
        "b155187d52d457f2b67f70ecb8ad335e896188a83505898ba5f8f1f66c0bb2bf",
        54, 0),
    "hermite": (
        "f33aa6b2139693cbba6838b23b4cb6a4b32ade142a373697b44a56e0b36ef5e0",
        30, 0),
    "laguerre": (
        "f07b56d7e30bacd58592d3f21dac40ccf0591009cfaf7f1c487136a2056bcfaf",
        108, 0),
    "kernels": (
        "2eb792ec00316c2b211d2241ab09677b63648ef48f94d8bd2231566ae36fdbf4",
        56, 0),
    "binomials": (
        "e036534a6c04ece16281f75138b0207dd72e4786e299e6b87f2bc330792b2da3",
        12, 0),
    "ct": (
        "856c2e1b638ed9800a262f56f9975f5a8d81cb020e52ac54212c1203cb0c6baa",
        608, 0),
    "sahi": (
        "18ff869db672e33165d045223ac113586ecb886382d0a17e9a043db724b1367d",
        12, 0),
    "kernel-mutation-probe": (
        "2b63f7fef202a6195619553fd73006bb752126709b51ced1bd14dde979708c65",
        30, 29),
}


def report_digest(reports):
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_match_their_pinned_digest(monkeypatch, name):
    # fresh shared bases, so no earlier test's state reaches the reports
    monkeypatch.setattr(jack, "_shared", {})
    reports = RUNS[name]()
    failing = sum(r["status"] != "pass" for r in reports)
    assert (report_digest(reports), len(reports), failing) == DIGESTS[name]
