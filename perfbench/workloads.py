"""The four workloads: inputs drawn from a seed, the fixed work, its checks.

``make_inputs`` runs in the parent (``run.py``), which never imports
nsjack: the program receives only the generated inputs.  ``RUN`` and
``CHECK`` run in a fresh child interpreter (``child.py``); the checks run
after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("construct", "verify-operators", "verify-kernels", "cli")

# Non-integer couplings of similar height whose per-workload cost agrees
# within a few percent, so that the seed changes the inputs but not the
# amount of work.
ALPHA_POOL = ("7/5", "5/7", "8/5", "5/3")
LAGUERRE_A = "1/2"

# construct
CONSTRUCT_N = 5
CONSTRUCT_WEIGHT = 7          # all 792 labels of weight <= 7 in 5 variables
HIGH_DEGREE = 60              # E((0,0,60)): 1,830 terms
DEFORMED_WEIGHT = 4           # Hermite/Laguerre work on 3-variable labels
ORACLE_COUNT = 4
# The weight-4 labels in 5 variables of shape (2,2) that start with 0:
# their oracle systems have 36 to 41 unknowns, so any seeded subset costs
# about the same.
ORACLE_CANDIDATES = ((0, 0, 0, 2, 2), (0, 0, 2, 0, 2), (0, 0, 2, 2, 0),
                     (0, 2, 0, 0, 2), (0, 2, 0, 2, 0), (0, 2, 2, 0, 0))

# verify-operators: suite_operators at weight <= 3, n in {2, 3}, three
# values of a.  Per n: 14 type-A reports + 3 x 8 type-B reports.
OPERATOR_WEIGHT = 3
A_SET = ("0", "1/2", "1")
OPERATOR_REPORTS = 2 * (14 + 3 * 8)

# verify-kernels: the 15 identity checks at (n, D) = (2, 5) and (3, 4),
# where the two summation checks need n = 2, plus suite_binomials, which
# files 3 reports for each n in {2, 3}.
KERNEL_SIZES = ((2, 5), (3, 4))
BINOMIAL_WEIGHT = 4
KERNEL_REPORTS = 15 + 13 + 3 * 2

# Modules each workload calls; the child imports them before the set-up
# stamp.  The cli workload imports nsjack.cli inside each invocation.
IMPORTS = {
    "construct": ("nsjack.combinat", "nsjack.jack", "nsjack.hermite_laguerre"),
    "verify-operators": ("nsjack.suites",),
    "verify-kernels": ("nsjack.suites",),
    "cli": ("nsjack.cli",),
}

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def compositions(n, weight):
    """n-tuples of non-negative integers with the given sum."""
    if n == 1:
        return [(weight,)]
    return [(first,) + rest for first in range(weight, -1, -1)
            for rest in compositions(n - 1, weight - first)]


def compositions_up_to(n, max_weight):
    return [eta for w in range(max_weight + 1) for eta in compositions(n, w)]


def _label(eta):
    return ",".join(map(str, eta))


def cli_commands(rng, alpha):
    """One exact command of each kind, with seeded 3-variable labels."""
    def pick(weight):
        return _label(rng.choice(compositions(3, weight)))

    eta = rng.choice(compositions(3, 3))
    nu = tuple(rng.randint(0, k) for k in eta)
    return [
        ["jack", "--eta", pick(5), "--alpha", alpha],
        ["hermite", "--eta", pick(4), "--alpha", alpha],
        ["laguerre", "--eta", pick(4), "--alpha", alpha, "--a", LAGUERRE_A],
        ["eval-ones", "--eta", pick(6), "--alpha", alpha],
        ["norm", "--family", "laguerre", "--eta", pick(4), "--alpha", alpha,
         "--a", LAGUERRE_A],
        ["binomial", "--eta", _label(eta), "--nu", _label(nu),
         "--alpha", alpha],
        ["kernel", "--family", "A", "--degree", "3", "--n", "2",
         "--alpha", alpha],
        ["verify", "--suite", "jack", "--alpha-set", alpha, "--max-n", "2",
         "--max-weight", "2"],
    ]


def make_inputs(workload, seed):
    """Inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    alpha = rng.choice(ALPHA_POOL)
    if workload == "construct":
        labels = compositions_up_to(CONSTRUCT_N, CONSTRUCT_WEIGHT)
        rng.shuffle(labels)
        deformed = compositions_up_to(3, DEFORMED_WEIGHT)
        rng.shuffle(deformed)
        return {"alpha": alpha, "a": LAGUERRE_A, "n": CONSTRUCT_N,
                "labels": labels, "high": (0, 0, HIGH_DEGREE),
                "deformed": deformed,
                "oracle": rng.sample(ORACLE_CANDIDATES, ORACLE_COUNT)}
    if workload == "verify-operators":
        return {"alpha": alpha, "max_weight": OPERATOR_WEIGHT, "max_n": 3,
                "a_set": A_SET, "expected_reports": OPERATOR_REPORTS}
    if workload == "verify-kernels":
        return {"alpha": alpha, "sizes": KERNEL_SIZES, "a": LAGUERRE_A,
                "max_weight": BINOMIAL_WEIGHT, "max_n": 3,
                "expected_reports": KERNEL_REPORTS}
    if workload == "cli":
        commands = cli_commands(rng, alpha)
        first, second = commands[:], commands[:]
        rng.shuffle(first)
        rng.shuffle(second)
        # every command twice: the first run writes the file cache, the
        # second reads it
        return {"alpha": alpha, "commands": commands,
                "sequence": first + second}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# child side: the fixed work


def _tuples(labels):
    return [tuple(eta) for eta in labels]


def run_construct(inp):
    from nsjack.hermite_laguerre import HermiteBasis, LaguerreBasis
    from nsjack.jack import JackBasis

    alpha = Fraction(inp["alpha"])
    jb = JackBasis(inp["n"], alpha)
    table = {eta: jb.E(eta) for eta in _tuples(inp["labels"])}
    jb3 = JackBasis(3, alpha)
    high = jb3.E(tuple(inp["high"]))
    hb, lb = HermiteBasis(jb3), LaguerreBasis(jb3, Fraction(inp["a"]))
    deformed = {}
    for eta in _tuples(inp["deformed"]):
        deformed[eta] = {
            "hermite": hb.E(eta), "laguerre": lb.E(eta),
            "hermite_raise": hb.raise_op(eta), "hermite_lower": hb.lower_op(eta),
            "laguerre_raise": lb.raise_op(eta), "laguerre_lower": lb.lower_op(eta),
            "hermite_harmonic": hb.from_harmonics(eta),
            "laguerre_harmonic": lb.from_harmonics(eta),
        }
    oracle = {eta: jb.E_oracle(eta) for eta in _tuples(inp["oracle"])}
    return {"bases": (jb, jb3), "table": table, "high": high,
            "deformed": deformed, "oracle": oracle}


def _run_suites(calls):
    reports = []
    for fn, kwargs in calls:
        reports.extend(fn(**kwargs))
    return reports


def run_verify_operators(inp):
    from nsjack import suites

    return _run_suites([(suites.suite_operators, {
        "alphas": (Fraction(inp["alpha"]),), "max_weight": inp["max_weight"],
        "max_n": inp["max_n"], "a_set": tuple(map(Fraction, inp["a_set"]))})])


def run_verify_kernels(inp):
    from nsjack import suites

    alphas = (Fraction(inp["alpha"]),)
    return _run_suites([
        (suites.suite_kernels, {"alphas": alphas,
                                "sizes": tuple(map(tuple, inp["sizes"])),
                                "a": Fraction(inp["a"])}),
        (suites.suite_binomials, {"alphas": alphas,
                                  "max_weight": inp["max_weight"],
                                  "max_n": inp["max_n"]}),
    ])


RUN = {
    "construct": run_construct,
    "verify-operators": run_verify_operators,
    "verify-kernels": run_verify_kernels,
}


# ---------------------------------------------------------------------------
# child side: checks, run after the timed region


def poly_digest(items):
    """sha256 of (key, polynomial) pairs in canonical order."""
    h = hashlib.sha256()
    for key, p in sorted(items, key=lambda kv: kv[0]):
        h.update(repr(key).encode())
        for e, c in p.sorted_terms():
            h.update(f"{e}:{c.numerator}/{c.denominator};".encode())
    return h.hexdigest()


def construct_digest(result):
    items = [(("E",) + eta, p) for eta, p in result["table"].items()]
    items.append((("high",), result["high"]))
    for eta, parts in result["deformed"].items():
        items.extend(((kind,) + eta, p) for kind, p in parts.items())
    return poly_digest(items)


def check_construct(inp, result):
    """Returns (attempted, failed, notes)."""
    checks = []
    for eta, p in result["table"].items():
        checks.append(("monic", eta, p.coeff(eta) == 1))
    high = tuple(inp["high"])
    checks.append(("monic", high, result["high"].coeff(high) == 1))
    for eta, parts in result["deformed"].items():
        for family in ("hermite", "laguerre"):
            checks.append((f"{family}-monic", eta,
                           parts[family].coeff(eta) == 1))
            checks.append((f"{family}-harmonic-rebuild", eta,
                           parts[f"{family}_harmonic"] == parts[family]))
    for eta, p in result["oracle"].items():
        checks.append(("oracle", eta, p == result["table"][eta]))
    recorded = json.loads(DIGESTS_FILE.read_text()).get(inp["alpha"])
    digest = construct_digest(result)
    checks.append(("digest", inp["alpha"], digest == recorded))
    failures = [f"{kind} {label}" for kind, label, ok in checks if not ok]
    return len(checks), len(failures), {"digest": digest,
                                        "failures": failures[:5]}


def check_reports(reports, expected):
    """Every report must pass and there must be exactly ``expected`` of
    them; a missing or extra report counts as a failure."""
    failed = sum(1 for r in reports if r.get("status") != "pass")
    failed += abs(len(reports) - expected)
    failures = [r.get("check") or r.get("identity")
                for r in reports if r.get("status") != "pass"]
    return max(expected, len(reports)), failed, {
        "reports": len(reports), "failures": failures[:5]}


CHECK = {
    "construct": check_construct,
    "verify-operators": lambda inp, reps: check_reports(
        reps, inp["expected_reports"]),
    "verify-kernels": lambda inp, reps: check_reports(
        reps, inp["expected_reports"]),
}


def computed_labels(workload, result):
    """Number of E_eta the recursion computed in this process (cache size)."""
    if workload == "construct":
        bases = result["bases"]
    else:
        from nsjack import jack

        bases = getattr(jack, "_shared", {}).values()
    sizes = [getattr(b, "_cache", None) for b in bases]
    if any(s is None for s in sizes):
        return None
    return sum(len(s) for s in sizes)


# Process-wide caches that a cold repetition must find empty.
PROCESS_CACHES = (
    ("nsjack.jack", "_shared"), ("nsjack.suites", "_hermites"),
    ("nsjack.suites", "_laguerres"), ("nsjack.cterm", "_weight_cache"),
    ("nsjack.cterm", "_beta_weight_cache"),
)


def warm_caches():
    """Names of process-wide caches that are not empty."""
    warm = []
    for module, attr in PROCESS_CACHES:
        cache = getattr(sys.modules.get(module), attr, None)
        if cache:
            warm.append(f"{module}.{attr}")
    return warm
