"""Pinned digests of the exact suite reports at small sizes.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces)
of one suite's report list, so a refactor that claims to keep every report
byte-identical is checked here rather than by hand.  Changing a digest is
a change to the reports: it must be deliberate and listed in CHANGES.md
with its reason.  The same runs check that every report has the key set
of ``nsjack.reports``.
"""

import hashlib
import json
from fractions import Fraction as F
from itertools import chain

import pytest

from nsjack import jack, kernels, suites
from nsjack.jack import JackBasis
from nsjack.operators import Operators, _linear
from nsjack.poly import SparsePoly, linear_combination

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


@_linear
def _dunkl_without_last_exchange(self, p, i):
    """T_i with the exchange term of its last k != i dropped."""
    last = max(k for k in range(self.n) if k != i)
    return linear_combination(p.n, chain(
        ((1, p.diff(self.vars[i])),),
        ((1 / self.alpha, self.dd(p, i, k))
         for k in range(self.n) if k not in (i, last))))


@_linear
def _cherednik_with_last_swap_negated(self, p, i):
    """xi_i with the sign of s_ik flipped for its last k > i."""
    return linear_combination(p.n, chain(
        ((self.alpha, self._x(self.dunkl(p, i), i)), (1 - self.n, p)),
        ((-1 if k == self.n - 1 else 1, self.swap(p, i, k))
         for k in range(i + 1, self.n))))


@_linear
def _b_op_with_a_plus_two(self, p, i):
    """B_i with (a+2) T_i where (a+1) T_i belongs."""
    ti = self.dunkl(p, i)
    return linear_combination(p.n, chain(
        ((1, self._x(self.dunkl(ti, i), i)), (self.a + 2, ti)),
        ((1 / self.alpha, self.swap(ti, i, k))
         for k in range(self.n) if k != i)))


OPERATOR_MUTATIONS = {"dunkl": _dunkl_without_last_exchange,
                      "cherednik": _cherednik_with_last_swap_negated,
                      "b_op": _b_op_with_a_plus_two}


def _operator_mutation_runs():
    """The operator suite under each wrong operator in turn, restoring the
    right one after each: one report list per mutation."""
    runs = []
    for name, wrong in OPERATOR_MUTATIONS.items():
        right = getattr(Operators, name)
        setattr(Operators, name, wrong)
        try:
            runs.append(suites.suite_operators(
                alphas=(F(7, 5),), max_weight=2, max_n=3, a_set=(F(1, 2),)))
        finally:
            setattr(Operators, name, right)
    return runs


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
    "operator-mutation-probe": lambda: [
        rep for run in _operator_mutation_runs() for rep in run],
}

# name: (sha256, number of reports, number failing)
DIGESTS = {
    "operators": (
        "7deefe98b1b561d21ce13235b6f745191f766918c84d809573791a14618526c3",
        22, 0),
    "jack": (
        "f1f38b49b7fef6f786a136b7a448b0be017b02b09a020cbcb190ec1e39418802",
        54, 0),
    "hermite": (
        "990e6d332dd2e59a8877aae63f96cdea7cc61eee62fd91cff522efbe1e9cf66a",
        30, 0),
    "laguerre": (
        "87db4b8a81deed3f1106094e0470f8d65b87714e6886d6313258085a573d53bf",
        108, 0),
    "kernels": (
        "2ec3cb4d2b52c826dcf34a93fe51bc3e55b5d74ac77b9652992784bcda4f1986",
        56, 0),
    "binomials": (
        "414f09866ecdd0acbb545d58acdd95da00c724303a8746ceb0dcf69b158ee052",
        12, 0),
    "ct": (
        "81c338d245e6af90fe459e5132d108384b39505d9577376ef2116b4d4047c603",
        608, 0),
    "sahi": (
        "3a8442ec2c06bc39e5a65601b48f1b025fc9c94aa90f3310324f4276dfec3d0c",
        12, 0),
    "kernel-mutation-probe": (
        "91d7fa8e0ca6ee2f747c455003d19182adbc54ab9c7dc29727bafcbe3fa7752a",
        30, 29),
    "operator-mutation-probe": (
        "857d12917c9509fca67c8464f77df87ce1f672258404e48880d14ce9e2026ff9",
        132, 66),
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


BASE_KEYS = {"check", "status", "n", "alpha", "params"}
# the checks of RUNS that compare two scalars; every numeric check does
SCALAR_CHECKS = {"kadell-ratio", "ct-norm-relation"}


def _schema_keys(rep, scalar):
    """The keys a report must have: the base set, ``witness`` exactly when
    it fails, ``values`` exactly when it compares two scalars."""
    return (BASE_KEYS | ({"witness"} if rep["status"] == "fail" else set())
            | ({"values"} if scalar else set()))


def _assert_schema(reports, scalar):
    for rep in reports:
        assert set(rep) == _schema_keys(rep, scalar(rep)), rep
        assert rep["status"] in ("pass", "fail")
        assert isinstance(rep["alpha"], str)
        assert all(isinstance(rep[k], dict) for k in
                   ("params", "witness", "values") if k in rep)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_report_has_the_schema_keys(monkeypatch, name):
    monkeypatch.setattr(jack, "_shared", {})
    reports = RUNS[name]()
    _assert_schema(reports, lambda rep: rep["check"] in SCALAR_CHECKS)
    failing = [rep for rep in reports if rep["status"] == "fail"]
    assert len(failing) == DIGESTS[name][2]
    assert all(rep["witness"] for rep in failing)


def test_each_operator_mutation_is_seen_where_it_can_be(monkeypatch):
    """The wrong T_i, xi_i and B_i each fail some report.  B_i with
    (a+2) T_i is the right B_i at a + 1, so only a check that reads a
    sees it: in the operator suite the p_1 conjunct of
    ``b-laplacian-commutator``, whose right side carries the Laguerre
    constant gamma = n (a + q), fails it at n = 2 and n = 3; the Laguerre
    label suite, which reads a through the eigenvalues, fails it too."""
    failing = [sum(rep["status"] != "pass" for rep in run)
               for run in _operator_mutation_runs()]
    assert dict(zip(OPERATOR_MUTATIONS, failing)) == {
        "dunkl": 36, "cherednik": 28, "b_op": 2}
    monkeypatch.setattr(jack, "_shared", {})
    monkeypatch.setattr(Operators, "b_op", _b_op_with_a_plus_two)
    reports = suites.suite_laguerre(alphas=(F(7, 5),), max_weight=2,
                                    max_n=2, a_set=(F(1, 2),))
    assert any(rep["status"] != "pass" for rep in reports)


def test_numeric_reports_carry_values():
    reports = suites.suite_numeric(alphas=(1,), a_set=(F(1, 2),),
                                   max_weight=0, D=3)
    assert reports
    _assert_schema(reports, lambda rep: True)
