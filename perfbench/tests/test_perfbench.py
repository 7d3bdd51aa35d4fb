"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock)
    add = tr.wrap("poly.__add__", "poly", lambda: clock.advance(2))

    def dunkl_body():
        clock.advance(1)
        add()
        clock.advance(1)

    dunkl = tr.wrap("operators.dunkl", "operators", dunkl_body)

    def e_body():
        clock.advance(3)
        dunkl()
        dunkl()
        clock.advance(1)

    tr.wrap("jack.E", "jack", e_body)()
    # E lasts 3 + 2 * (1 + 2 + 1) + 1 = 12, of which its children cover 8
    assert tr.incl["jack.E"] == 12
    assert tr.self_s["jack.E"] == 4
    assert tr.self_s["operators.dunkl"] == 2 * (4 - 2)
    assert tr.incl["operators"] == 8
    assert tr.layer_self("poly") == 4
    assert tr.calls["poly.__add__"] == 2
    # poly keeps counters only; the other layers keep spans with parents
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("jack.E", -1), ("operators.dunkl", 0), ("operators.dunkl", 0)]
    assert [s[2] - s[1] for s in tr.spans] == [12, 4, 4]


def test_recursive_calls_count_inclusive_time_once():
    clock = FakeClock()
    tr = Tracer(clock)

    def body(k):
        clock.advance(1)
        if k:
            rec(k - 1)

    rec = tr.wrap("jack.E", "jack", body)
    rec(2)
    assert tr.calls["jack.E"] == 3
    assert tr.incl["jack.E"] == 3
    assert tr.self_s["jack.E"] == 3


def test_install_wraps_and_uninstall_restores():
    from nsjack import jack

    original = jack.JackBasis.E
    tr = Tracer().install()
    try:
        jack.JackBasis(3, 2).E((0, 1, 2))
    finally:
        tr.uninstall()
    assert jack.JackBasis.E is original
    m = tr.metrics()
    assert m["jack.E_computed"] > 0
    assert m["operators.calls"] > 0 and m["poly.add_calls"] > 0
    assert m["poly.max_terms"] > 0 and m["poly.max_coeff_bits"] > 0


def test_per_layer_metrics_match_benchmark_json():
    from nsjack.kernels import IDENTITY_CHECKS

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    assert set(Tracer().metrics()) <= names
    assert {f"kernels.check.{ident}_s" for ident in IDENTITY_CHECKS} <= names


def test_failing_report_raises_failed_share():
    good = {"check": "a", "status": "pass"}
    bad = {"check": "b", "status": "fail", "witness": "x0"}
    assert workloads.check_reports([good, good], 2)[:2] == (2, 0)
    attempted, failed, notes = workloads.check_reports([good, bad], 2)
    assert failed / attempted == 0.5
    assert notes["failures"] == ["b"]


def test_missing_or_empty_reports_count_as_failures():
    good = {"check": "a", "status": "pass"}
    assert workloads.check_reports([good], 3)[:2] == (3, 2)
    assert workloads.check_reports([], 4)[:2] == (4, 4)


def test_cli_check_flags_mismatch_and_vacuous_verdicts():
    argv = ["verify", "--suite", "jack"]
    reference = {json.dumps(argv): [0, "[]\n"]}
    child = run.Child(0, "[]\n", "", 0.0, 0.1, 50.0)
    assert "empty or failing verify report" in run.check_invocation(
        argv, child, reference, None)
    argv = ["eval-ones", "--eta", "1,0"]
    reference = {json.dumps(argv): [0, '"3/2"\n']}
    child = run.Child(0, '"3/2"\n', "", 0.0, 0.1, 50.0)
    assert run.check_invocation(argv, child, reference, '"3/2"\n') == []
    assert run.check_invocation(argv, child, reference, '"5/2"\n') == [
        "cache read differs from cache write"]
    child = run.Child(2, "", "error", 0.0, 0.1, 50.0)
    assert len(run.check_invocation(argv, child, reference, None)) == 2


def test_cold_repetitions_compute_the_same_labels():
    assert run.cold_check([993, 993, 993]) is None
    assert run.cold_check([993, 0]) is not None
    assert run.cold_check([None, None]) is None


def test_warm_process_cache_is_detected(monkeypatch):
    monkeypatch.setitem(sys.modules, "nsjack.jack",
                        types.SimpleNamespace(_shared={}))
    assert workloads.warm_caches() == []
    monkeypatch.setitem(sys.modules, "nsjack.jack",
                        types.SimpleNamespace(_shared={(2, 1): object()}))
    assert workloads.warm_caches() == ["nsjack.jack._shared"]


@pytest.mark.parametrize("n, value, pct", [(40, 29.0, 75.0),
                                           (64, 53.0, 84.375)])
def test_tail_leaves_ten_samples_beyond(n, value, pct):
    values = [float(v) for v in range(n)]
    assert run.tail(values) == (value, pct, n)


@pytest.mark.parametrize("n, value", [(1, 0.0), (5, 3.0), (10, 6.75),
                                      (39, 28.5)])
def test_tail_of_few_samples_is_p75(n, value):
    values = [float(v) for v in range(n)]
    assert run.tail(values) == (value, 75.0, n)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(
        workload, 3)
    drawn = {json.dumps(workloads.make_inputs(workload, seed))
             for seed in range(10)}
    assert len(drawn) > 1


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "construct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
