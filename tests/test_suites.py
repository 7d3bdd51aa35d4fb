"""Report shapes of the verification suites and the witness of a failure."""

from fractions import Fraction as F

import pytest

from nsjack import kernels, suites
from nsjack.hermite_laguerre import HermiteBasis, LaguerreBasis
from nsjack.jack import JackBasis
from nsjack.operators import Operators

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
KERNELS = [
    "kernel-symmetry-multiplication", "kernel-exp-shift",
    "hermite-generating-function", "kernel-symmetrization",
    "exp-binomial-expansion", "p1-raising-action", "euler-actions", "2k1-pde",
    "laguerre-generating-function", "1k1-generating-function",
    "ka-laguerre-generating-function", "laguerre-jack-expansion",
    "binomial-sum-rules", "hermite-summation", "laguerre-summation",
]
KERNEL_PARAMS = {
    "2k1-pde": {"a": "1/2", "b": "4/3"},
    "laguerre-generating-function": {"a": "1/2"},
    "1k1-generating-function": {"a": "1/2", "c": "3/2"},
    "ka-laguerre-generating-function": {"a": "1/2"},
    "laguerre-jack-expansion": {"a": "1/2"},
    "laguerre-summation": {"a": "1/2"},
}


def _shape(reports):
    return [(r["check"], r["n"], r["params"].get("a")) for r in reports]


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


@pytest.mark.parametrize("name, failing", [
    ("psi_hat", {"b-lowering-intertwining", "laguerre-ladder-intertwining"}),
    ("psi_hat_star", {"laguerre-ladder-intertwining"}),
    ("phi_hat", {"lowering-intertwining", "gaussian-ladder-intertwining"}),
    ("phi_hat_star", {"adjoint-raising-representation",
                      "gaussian-ladder-intertwining"}),
    ("b_op", set(TYPE_B) - {"l-hecke-relations"}),
])
def test_each_operator_fails_exactly_the_checks_that_read_it(
        monkeypatch, name, failing):
    """A type-B twin built with its type-A operator would still pass, and
    check nothing; a wrong operator must fail each check that reads it."""
    right = getattr(Operators, name)

    def wrong(self, p, *args):
        q = right(self, p, *args)
        return q + self.swap(q, 0, 1) / 97

    monkeypatch.setattr(Operators, name, wrong)
    reports = suites.suite_operators(alphas=ALPHA, max_weight=2, max_n=2,
                                     a_set=(F(1, 2),))
    assert {r["check"] for r in reports if r["status"] == "fail"} == failing


def test_passing_operator_identities_evaluate_once(monkeypatch):
    """Each passing identity runs its predicate once, on the tagged basis
    sum, and not once per monomial."""
    calls = []
    holds_on_basis = suites._holds_on_basis

    def counted(check, basis, tagged, holds, **info):
        calls.append(0)
        mine = len(calls) - 1

        def holds_counted(p):
            calls[mine] += 1
            return holds(p)
        return holds_on_basis(check, basis, tagged, holds_counted, **info)

    monkeypatch.setattr(suites, "_holds_on_basis", counted)
    reports = suites.suite_operators(alphas=ALPHA, max_weight=2, max_n=3)
    assert all(r["status"] == "pass" for r in reports)
    assert calls == [1] * len(reports) == [1] * 76


def test_a_predicate_that_is_not_linear_cannot_pass():
    """A predicate false on the tagged sum but true on every monomial is
    not linear; it raises rather than filing a pass."""
    basis = suites._monomials(2, 2)
    with pytest.raises(ArithmeticError, match="not linear"):
        suites._holds_on_basis("one-term", basis, suites._tagged(basis, 2),
                               lambda p: len(p.num) < 2, n=2, alpha=ALPHA[0])


def test_numeric_reports_print_plain_numbers():
    """lhs/rhs read as bare Python numbers, not as numpy reprs such as
    np.float64(...); the n = 2 Laguerre Gram values are numpy scalars."""
    reports = suites.suite_numeric(alphas=(1,), a_set=(F(1, 2),),
                                   max_weight=1, D=3)
    assert any(r["check"].startswith("laguerre-gram") and r["n"] == 2
               for r in reports)
    leaked = [(r["check"], r["values"]) for r in reports
              if "np." in r["values"]["lhs"] + r["values"]["rhs"]]
    assert leaked == []


def test_numeric_report_order_is_pinned():
    reports = suites.suite_numeric(alphas=(1,), a_set=(F(1, 2),),
                                   max_weight=1, D=4)
    want = [("classical-gaussian-total-mass", 1, "1.0", None),
            ("classical-laguerre-total-mass", 1, "1.0", "0.5")]
    want += [("classical-laplace-monomial", 1, "1.0", "0.5")] * 4
    want += [("classical-gaussian-kernel-transform", 1, "1.0", None)] * 4
    for n in (1, 2):
        want += [("ground-state-gaussian", n, "1", None),
                 ("ground-state-laguerre", n, "1", "1/2")]
    # the Gram pairs of the labels (0,0), (1,0), (0,1), upper triangle
    gram = ["diagonal", "offdiagonal", "offdiagonal", "diagonal",
            "offdiagonal", "diagonal"]
    want += [(f"gaussian-gram-{g}", 2, "1", None) for g in gram]
    want += [(f"laguerre-gram-{g}", 2, "1", "1/2") for g in gram]
    for n in (1, 2):
        want += [row for _ in range(3) for row in (
            ("gaussian-kernel-transform", n, "1", None),
            ("gaussian-kernel-transform-imaginary", n, "1", None),
            ("laguerre-kernel-transform", n, "1", "1/2"),
            ("laplace-transform-laguerre", n, "1", "1/2"),
            ("laplace-transform-jack", n, "1", "1/2"))]
        want += [("selberg-integral-ratio", n, "1", None)] * 6
    assert [(r["check"], r["n"], r["alpha"], r["params"].get("a"))
            for r in reports] == want
    assert len(reports) == 68
    assert all(r["status"] == "pass" for r in reports)


def _kernel_params(name, n, D):
    params = {"D": D, **KERNEL_PARAMS.get(name, {})}
    if name == "2k1-pde":
        params["c"] = str(n + 2)
    return params


def test_kernel_and_binomial_report_shapes_are_pinned():
    reports = suites.suite_kernels(alphas=ALPHA, sizes=((2, 3), (3, 2)))
    # the summation checks run at n = 2 only, always through t-degree 4
    want = [(name, 2, _kernel_params(
        name, 2, 4 if name.endswith("summation") else 3)) for name in KERNELS]
    want += [(name, 3, _kernel_params(name, 3, 2)) for name in KERNELS
             if not name.endswith("summation")]
    assert [(r["check"], r["n"], r["params"]) for r in reports] == want
    assert len(reports) == 28
    assert all(r["alpha"] == "7/5" and r["status"] == "pass" for r in reports)

    binomials = suites.suite_binomials(alphas=ALPHA, max_weight=2)
    assert binomials == [
        {"check": check, "status": "pass", "n": n, "alpha": "7/5",
         "params": params}
        for n in (2, 3) for check, params in (
            ("binomial-defining-expansion", {}),
            ("binomial-n-independence", {"n_pair": [n, n + 1]}),
            ("binomial-sum-rules", {"D": 2}))]


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
    assert all(r["n"] == 2 and r["witness"] == {"at": repr((1, 0))}
               for r in failed)
    assert all("witness" not in r for r in reports if r["status"] == "pass")


@pytest.mark.parametrize("cls, name, failing", [
    (HermiteBasis, "gamma", {"hermite-harmonic-decomposition",
                             "hermite-summation"}),
    (LaguerreBasis, "gamma", {"laguerre-harmonic-decomposition",
                              "laguerre-summation"}),
    (HermiteBasis, "lower_constant", {"hermite-ladder"}),
    (LaguerreBasis, "lower_constant", {"laguerre-ladder"}),
    (HermiteBasis, "raise_op", {"hermite-ladder"}),
    (LaguerreBasis, "raise_op", {"laguerre-ladder"}),
    (LaguerreBasis, "_lower_factor", {"laguerre-ladder"}),
    (LaguerreBasis, "at_zero", {"laguerre-value-at-origin"}),
    (HermiteBasis, "norm_ratio", {"hermite-summation"}),
    (LaguerreBasis, "norm_ratio", {"laguerre-summation"}),
])
def test_each_family_value_fails_exactly_the_checks_that_read_it(
        monkeypatch, cls, name, failing):
    """A family value off by the factor 98/97 fails these reports of
    ``suite_hermite``, ``suite_laguerre`` and the two summation checks.

    The documented survivor: a wrong ``norm_ratio`` passes both family
    suites.  The Hermite norm step compares ratios of norms, so a uniform
    factor cancels, and the Laguerre suite never reads the norm; only the
    summation check of the family (kernel checks at n = 2, D = 4) fails.
    """
    from nsjack import jack

    if name == "gamma":
        init = cls.__init__

        def wrong_init(self, *args):
            init(self, *args)
            self.gamma *= F(98, 97)

        monkeypatch.setattr(cls, "__init__", wrong_init)
    else:
        right = getattr(cls, name)

        def wrong(self, *args):
            return right(self, *args) * F(98, 97)

        monkeypatch.setattr(cls, name, wrong)
    monkeypatch.setattr(jack, "_shared", {})
    reports = (suites.suite_hermite(alphas=ALPHA, max_weight=3, max_n=2)
               + suites.suite_laguerre(alphas=ALPHA, max_weight=3, max_n=2,
                                       a_set=(F(1, 2),)))
    jb = JackBasis(2, ALPHA[0])
    reports += [kernels.verify_kernel_identity(identity, jb, 4)
                for identity in ("hermite-summation", "laguerre-summation")]
    assert {r["check"] for r in reports if r["status"] == "fail"} == failing


def _wrong_E(monkeypatch, jb):
    right = JackBasis.E

    def wrong(self, eta):
        p = right(self, eta)
        return p + 1 if self is jb and tuple(eta) == (1, 0) else p

    monkeypatch.setattr(JackBasis, "E", wrong)


def _wrong_const(*key):
    """The basis memo's entry ``key`` off by the factor 98/97; the label
    constants at the mutated labels are filled in first."""
    def mutate(monkeypatch, jb):
        jb.d_const((1, 0))
        jb.hook_norm_j((1,))
        jb.gen_fact(LAGUERRE_SHIFT, (1, 0))
        jb._consts[key] *= F(98, 97)
    return mutate


def _wrong_cache_entry(monkeypatch, jb):
    jb._cache[1, 0] = jb.E((1, 0)) + 1


# [a + q] at a = 1/2, n = 2, alpha = 7/5: the shifted Laguerre parameter
LAGUERRE_SHIFT = F(1, 2) + 1 + 1 / ALPHA[0]
NOT_RECURSIONS = set(JACK) - {"jack-constant-recursions"}
READ_D_OR_E = {"jack-constant-recursions", "jack-evaluation-all-ones",
               "jack-symmetric-basis"}
READ_D_PRIME = {"jack-constant-recursions", "jack-ladder-constants",
                "jack-symmetric-basis"}


@pytest.mark.parametrize("mutate, failing, at", [
    (_wrong_E, NOT_RECURSIONS, dict.fromkeys(NOT_RECURSIONS, (1, 0))),
    (_wrong_cache_entry, NOT_RECURSIONS, {"jack-label-shift": (1, 0)}),
    (_wrong_const("d", (1, 0)), READ_D_OR_E, dict.fromkeys(READ_D_OR_E, (1, 0))),
    (_wrong_const("d'", (1, 0)), READ_D_PRIME,
     {**dict.fromkeys(READ_D_PRIME, (1, 0)), "jack-ladder-constants": (0, 2)}),
    (_wrong_const("e", (1, 0)), READ_D_OR_E, dict.fromkeys(READ_D_OR_E, (1, 0))),
    (_wrong_const("j", (1,)), {"jack-symmetric-basis"},
     {"jack-symmetric-basis": (1, 0)}),
], ids=["E", "cache", "d", "d'", "e", "j"])
def test_each_jack_value_fails_exactly_the_checks_that_read_it(
        monkeypatch, mutate, failing, at):
    """A wrong E((1, 0)) as its readers see it (the recursion keeps the
    right one), the same wrong value written into the basis's ``_cache``
    (labels the recursion builds from it, such as (2, 0), inherit the
    error), or the basis memo's d, d' or e of (1, 0) or j of (1,) off by
    98/97, fails these reports of ``suite_jack``; those in ``at`` name the
    label given there.  A wrong d' fails ``jack-ladder-constants`` at
    (0, 2), the first label lowered onto (1, 0).

    There are no survivors: every check reads the constants of the basis
    memo, and ``jack-symmetric-basis`` checks J, which is built from j and
    d', against Stanley's normalization, which reads neither.
    """
    from nsjack import jack

    monkeypatch.setattr(jack, "_shared", {})
    mutate(monkeypatch, JackBasis.shared(2, ALPHA[0]))
    reports = suites.suite_jack(alphas=ALPHA, max_weight=2, max_n=2)
    failed = [r for r in reports if r["status"] == "fail"]
    assert {r["check"] for r in failed} == failing
    assert all(r["witness"] == {"at": repr(at[r["check"]])}
               for r in failed if r["check"] in at)


@pytest.mark.parametrize("key, failing", [
    (("d", (1, 0)), {"hermite-ladder", "hermite-pairing-values",
                     "laguerre-pairing-values", "laguerre-value-at-origin",
                     "sahi-inner-basis-values"}),
    (("d'", (1, 0)), {"hermite-ladder", "hermite-pairing-values",
                      "laguerre-ladder", "laguerre-pairing-values",
                      "sahi-inner-basis-values"}),
    (("e", (1, 0)), {"hermite-ladder", "hermite-pairing-values",
                     "laguerre-pairing-values", "laguerre-value-at-origin"}),
    (("gen_fact", LAGUERRE_SHIFT, (1, 0)),
     {"laguerre-ladder", "laguerre-pairing-values",
      "laguerre-value-at-origin"}),
], ids=["d", "d'", "e", "[a+q]"])
def test_each_label_constant_fails_exactly_the_family_checks_that_read_it(
        monkeypatch, key, failing):
    """The basis memo's d, d' or e of (1, 0), or [a + q]_(1, 0) at a = 1/2,
    off by 98/97 fails these reports of ``suite_hermite``,
    ``suite_laguerre`` and ``suite_sahi``: the family values and the
    closed forms they are checked against read the same memo, so each
    pairing-values check compares the pairing, which reads no constant,
    with a wrong diagonal."""
    from nsjack import jack

    monkeypatch.setattr(jack, "_shared", {})
    _wrong_const(*key)(monkeypatch, JackBasis.shared(2, ALPHA[0]))
    reports = (suites.suite_hermite(alphas=ALPHA, max_weight=2, max_n=2)
               + suites.suite_laguerre(alphas=ALPHA, max_weight=2, max_n=2,
                                       a_set=(F(1, 2),))
               + suites.suite_sahi(alphas=ALPHA, max_weight=2, max_n=2))
    assert {r["check"] for r in reports if r["status"] == "fail"} == failing


@pytest.mark.parametrize("cls, identity", [
    (HermiteBasis, "hermite-summation"),
    (LaguerreBasis, "laguerre-summation"),
])
def test_failing_summation_names_the_first_failure(monkeypatch, cls, identity):
    right = cls.E

    def wrong(self, eta):
        p = right(self, eta)
        return p + 1 if tuple(eta) == (1, 0) else p

    monkeypatch.setattr(cls, "E", wrong)
    rep = kernels.verify_kernel_identity(identity, JackBasis(2, ALPHA[0]), 4)
    assert rep["status"] == "fail"
    fail = rep["witness"]
    assert set(fail) == {"bidegree", "exponents", "coefficient"}
    # the wrong label has weight 1, so the first wrong term carries t^1
    assert fail["exponents"][-1] == 1 and fail["coefficient"] != "0"


@pytest.mark.parametrize("identity", ["hermite-summation",
                                      "laguerre-summation"])
def test_summation_runs_through_the_degree_it_is_given(identity):
    rep = kernels.verify_kernel_identity(identity, JackBasis(2, ALPHA[0]), 3)
    assert rep["params"]["D"] == 3 and rep["status"] == "pass"


def test_kernel_suite_builds_each_family_label_once(monkeypatch):
    """Every check at one basis reads the same Hermite and Laguerre
    families, so each deformed E is built once per (family, label)."""
    from collections import Counter

    from nsjack import hermite_laguerre, jack

    built = Counter()
    right = hermite_laguerre.exp_series

    def counted(p, lap, c):
        built[lap.__name__, lap.__self__.a, tuple(p.sorted_terms())] += 1
        return right(p, lap, c)

    monkeypatch.setattr(hermite_laguerre, "exp_series", counted)
    monkeypatch.setattr(jack, "_shared", {})
    reports = suites.suite_kernels(alphas=ALPHA, sizes=((2, 3),))
    assert all(r["status"] == "pass" for r in reports)
    # both families at every label of weight <= 4 (the summation degree)
    assert len(built) == 2 * 15
    assert set(built.values()) == {1}


def test_failing_ct_report_names_the_label(monkeypatch):
    right = suites.ct_norm_formula

    def wrong(eta, k):
        value = right(eta, k)
        return value + 1 if tuple(eta) == (0, 1) else value

    monkeypatch.setattr(suites, "ct_norm_formula", wrong)
    reports = suites.suite_ct(k_set=(1,), max_weight=1, max_n=2)
    [failed] = [r for r in reports if r["status"] == "fail"]
    assert failed["check"] == "ct-orthogonality-and-norms"
    assert failed["witness"] == {"at": repr((0, 1))}


def test_failing_verify_prints_one_error_line(monkeypatch, capsys):
    """A failing ``verify`` prints its reports as a passing one does, and
    one ``error:`` line with the count and the first failing report."""
    import json

    from nsjack import cli

    right = suites.ct_norm_formula

    def wrong(eta, k):
        value = right(eta, k)
        return value + 1 if tuple(eta) == (0, 1) else value

    monkeypatch.setattr(suites, "ct_norm_formula", wrong)
    assert cli.main(["verify", "--suite", "ct", "--max-weight", "1",
                     "--max-n", "2"]) == 1
    out, err = capsys.readouterr()
    reports = suites.suite_ct(max_weight=1, max_n=2)
    assert out == json.dumps(reports, separators=(",", ":")) + "\n"
    assert err == ("error: 2 of 64 reports failed; first "
                   "ct-orthogonality-and-norms at n=2, alpha=1: "
                   'witness {"at": "(0, 1)"}\n')


@pytest.mark.parametrize("max_n", [0, 1])
def test_each_suite_must_check_something(max_n):
    """'all' is rejected where one suite files nothing, though others
    (kernels and numeric take no max_n) would file reports; operators
    runs first and starts at n = 2."""
    with pytest.raises(ValueError,
                       match="^suite 'operators' checks nothing at these sizes$"):
        suites.run_suite("all", max_n=max_n)


def test_non_positive_alpha_is_rejected_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(suites.SUITES, "operators",
                        lambda alphas: ran.append(alphas) or [])
    for alphas in ((F(0),), (F(1), F(-1, 2))):
        for name in ("numeric", "all"):
            with pytest.raises(ValueError, match="^alpha must be positive$"):
                suites.run_suite(name, alphas=alphas, max_weight=0)
    assert ran == []


def test_unknown_suite_lists_the_suites():
    with pytest.raises(ValueError) as exc:
        suites.run_suite("nonsense")
    assert str(exc.value) == ("unknown suite 'nonsense': choose all or one of "
                              + ", ".join(suites.SUITES))


def test_bases_are_the_only_process_wide_cache(monkeypatch):
    """Every value the suites keep for later lives in a shared basis: no
    other private module-level container of the package holds an entry."""
    import sys

    from nsjack import jack

    monkeypatch.setattr(jack, "_shared", {})
    suites.suite_ct(k_set=(1,), max_weight=1, max_n=2)
    suites.suite_kernels(alphas=ALPHA, sizes=((2, 2),))
    suites.suite_hermite(max_n=1, max_weight=1)
    assert jack._shared
    warm = [f"{name}.{attr}"
            for name, module in list(sys.modules.items())
            if name == "nsjack" or name.startswith("nsjack.")
            for attr, value in vars(module).items()
            if attr.startswith("_") and not attr.startswith("__")
            and isinstance(value, (dict, set, list)) and value
            and (name, attr) != ("nsjack.jack", "_shared")]
    assert warm == []
