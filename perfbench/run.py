"""Cold-process benchmark of nsjack.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; nsjack is imported from ``src/``.  Each
repetition runs in a fresh interpreter, one child at a time, until
``--seconds`` have passed.  The run checks every output, prints each
metric by name and unit, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# the end-to-end metric each layer should move, and on which workload
MOVES = {
    "poly": "run_s on every in-process workload: call overhead most on "
            "verify-operators, coefficient arithmetic most on construct "
            "and verify-kernels",
    "combinat": "run_s on verify-kernels",
    "operators": "run_s most on verify-operators, partly on construct; "
                 "not on verify-kernels",
    "jack": "run_s and peak_rss_mb on construct; not on verify-operators",
    "linalg": "run_s and peak_rss_mb on construct; not on verify-operators",
    "hermite_laguerre": "run_s on construct; not on verify-operators",
    "kernels": "run_s on verify-kernels; not on the other workloads",
    "suites": "run_s and failed_share on verify-operators and verify-kernels",
    "cli": "setup_s, latency_p50_s and latency_tail_s on cli",
    "trace": "nothing: traced run_s over untraced run_s",
}


# ---------------------------------------------------------------------------
# children


class Child:
    """Outcome of one child process."""

    def __init__(self, code, stdout, stderr, started, wall_s, rss_mb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.started, self.wall_s, self.rss_mb = started, wall_s, rss_mb

    def record(self):
        """The JSON record on the last stdout line, or None."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def spawn(argv, env, scratch):
    """Run one child to completion and measure its wall time and peak RSS."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: the child must not outlive us
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_text(), err_path.read_text(),
                 started, wall, usage.ru_maxrss / 1024)


def child_env(root, **extra):
    env = dict(os.environ)
    env.pop("NSJACK_CACHE_DIR", None)
    env.pop("PERFBENCH_TRACE", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


def report_child_error(what, child):
    tail = "\n".join(child.stderr.strip().splitlines()[-5:])
    print(f"{what} failed with exit code {child.code}: {tail}",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Below 40 samples that
    percentile lies under p75 or does not exist, so p75 is reported,
    interpolated between samples: the maximum of a handful of cold
    repetitions reads the host's worst moment, not the program's tail.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 40:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    if n == 1:
        return xs[0], 75.0, 1
    return statistics.quantiles(xs, n=4, method="inclusive")[2], 75.0, n


def another(deadline, lengths):
    """Whether to start another repetition: always the first one, then
    while one of the median length so far would end less than half its
    length past the deadline, so that a run overshoots ``--seconds`` by
    half a repetition at most."""
    return (not lengths
            or time.monotonic() + median(lengths) / 2 < deadline)


def cold_check(computed):
    """E_eta computed per repetition must agree: equal counts show that no
    repetition found a cache filled by an earlier one.  Returns a problem
    description or None."""
    known = [c for c in computed if c is not None]
    if len(known) >= 2 and len(set(known)) != 1:
        return f"E_eta computed differs between repetitions: {known}"
    return None


# ---------------------------------------------------------------------------
# in-process workloads


class Run:
    """Samples and verdicts of one benchmark run."""

    def __init__(self):
        self.samples = {}
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def fail(self, problem, attempted=1):
        self.attempted += attempted
        self.failed += attempted
        self.problems.append(problem)


def run_inprocess(name, inp, seconds, trace, root, scratch):
    spec = {"workload": name, "inputs": inp, "trace": False,
            "imports": workloads.IMPORTS[name]}
    argv = [sys.executable, str(HERE / "child.py")]
    env = child_env(root)
    run = Run()
    # warm the file cache and the bytecode cache; not measured
    spawn(argv + [json.dumps(dict(spec, import_only=True))], env, scratch)
    untraced_s = seconds / 2 if trace else seconds
    for traced, budget in ((False, untraced_s), (True, seconds - untraced_s)):
        if budget <= 0:
            continue
        spec["trace"] = traced
        spec["spans"] = str(scratch / f"spans-{name}.json") if traced else None
        deadline = time.monotonic() + budget
        lengths = []
        while another(deadline, lengths):
            child = spawn(argv + [json.dumps(spec)], env, scratch)
            lengths.append(child.wall_s)
            rec = child.record()
            if rec is None:
                report_child_error(f"{name} repetition", child)
                run.fail(f"repetition exited with code {child.code}")
                continue
            run.attempted += rec["attempted"]
            run.failed += rec["failed"]
            if rec["failed"]:
                run.problems.append(f"failed checks: {rec['notes']}")
            if rec["warm"]:
                run.problems.append(f"caches not cold: {rec['warm']}")
            run.add("computed_labels", rec["computed_labels"])
            if traced:
                run.layers.append(rec["layers"])
                run.add("traced_run_s", rec["run_s"])
                continue
            run.add("setup_s", rec["setup_done"] - child.started)
            run.add("run_s", rec["run_s"])
            run.add("peak_rss_mb", child.rss_mb)
            run.add("latency_s", child.wall_s)
    problem = cold_check(run.samples.get("computed_labels", []))
    if problem:
        run.problems.append(problem)
    return run


# ---------------------------------------------------------------------------
# cli workload


def launcher_stats(child):
    for line in child.stderr.splitlines():
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    return None


def cli_reference(inp, root, scratch):
    spec = {"imports": [], "cli_reference": inp["commands"]}
    child = spawn([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                  child_env(root), scratch)
    rec = child.record()
    if rec is None:
        report_child_error("cli reference", child)
        return None
    return {json.dumps(argv): out
            for argv, out in zip(inp["commands"], rec["reference"])}


def check_invocation(argv, child, reference, first_output):
    """Problems with one CLI invocation (empty when it is correct)."""
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    want_code, want = reference[json.dumps(argv)]
    if want_code != 0 or child.stdout != want:
        problems.append("output differs from the in-process value")
    if first_output is not None and child.stdout != first_output:
        problems.append("cache read differs from cache write")
    if argv[0] == "verify":
        try:
            reports = json.loads(child.stdout)
        except json.JSONDecodeError:
            reports = []
        if not reports or any(r.get("status") != "pass" for r in reports):
            problems.append("empty or failing verify report")
    return problems


def run_cli(inp, seconds, trace, root, scratch):
    run = Run()
    reference = cli_reference(inp, root, scratch)
    if reference is None:
        run.fail("cli reference failed", len(inp["sequence"]))
        return run
    argv0 = [sys.executable, str(HERE / "cli_launch.py")]
    cache = scratch / "cli-cache"
    spawn(argv0 + ["--help"], child_env(root), scratch)  # warm-up
    untraced_s = seconds / 2 if trace else seconds
    for traced, budget in ((False, untraced_s), (True, seconds - untraced_s)):
        if budget <= 0:
            continue
        env = child_env(root, NSJACK_CACHE_DIR=str(cache),
                        PERFBENCH_TRACE="1" if traced else "0")
        deadline = time.monotonic() + budget
        lengths = []
        while another(deadline, lengths):
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir(parents=True)
            outputs, rss, totals = {}, [], {}
            t0 = time.monotonic()
            for argv in inp["sequence"]:
                child = spawn(argv0 + argv, env, scratch)
                key = json.dumps(argv)
                problems = check_invocation(argv, child, reference,
                                            outputs.get(key))
                outputs.setdefault(key, child.stdout)
                stats = launcher_stats(child) or {}
                run.attempted += 1
                if problems:
                    run.failed += 1
                    run.problems.append(f"{' '.join(argv)}: {problems}")
                    report_child_error(" ".join(argv), child)
                rss.append(child.rss_mb)
                if traced:
                    for k in ("import_s", "dispatch_s"):
                        if k in stats:
                            run.add(f"cli.{k}", stats[k])
                    for k in ("cache_hits", "cache_misses",
                              "cache_bytes_written"):
                        totals[k] = totals.get(k, 0) + stats.get(k, 0)
                elif "setup_done" in stats:
                    run.add("setup_s", stats["setup_done"] - child.started)
                    run.add("latency_s", child.wall_s)
            lengths.append(time.monotonic() - t0)
            if traced:
                run.add("traced_run_s", lengths[-1])
                run.layers.append({f"cli.{k}": v for k, v in totals.items()})
            else:
                run.add("run_s", lengths[-1])
                run.add("peak_rss_mb", max(rss))
    if trace:
        startup(run, root, scratch)
    return run


def startup(run, root, scratch, probes=5):
    """Interpreter start and the import time of nsjack.quadrature."""
    env = child_env(root)
    for _ in range(probes):
        run.add("cli.interp_start_s",
                spawn([sys.executable, "-c", "pass"], env, scratch).wall_s)
        child = spawn([sys.executable, "-X", "importtime", "-c",
                       "import nsjack.cli"], env, scratch)
        for line in child.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "nsjack.quadrature":
                run.add("cli.import_quadrature_s", int(parts[1]) / 1e6)


# ---------------------------------------------------------------------------
# output


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "seed": seed}


def end_to_end(run):
    s = run.samples
    lat, pct, count = tail(s["latency_s"])
    return {
        "setup_s": median(s["setup_s"]),
        "run_s": median(s["run_s"]),
        "peak_rss_mb": median(s["peak_rss_mb"]),
        "latency_p50_s": median(s["latency_s"]),
        "latency_tail_s": lat,
    }, f"p{pct:.1f} of {count} samples"


def per_layer(run, names):
    values = {}
    for name in names:
        got = [layer[name] for layer in run.layers if name in layer]
        got += run.samples.get(name, [])
        values[name] = median(got) if got else 0
    untraced = median(run.samples.get("run_s", []))
    traced = median(run.samples.get("traced_run_s", []))
    values["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "nsjack" / "__init__.py").is_file():
        print("error: run from the root of an nsjack checkout (no "
              "src/nsjack here)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)

    inp = workloads.make_inputs(args.workload, args.seed)
    trace = bool(args.trace)
    if args.workload == "cli":
        run = run_cli(inp, args.seconds, trace, root, scratch)
    else:
        run = run_inprocess(args.workload, inp, args.seconds, trace, root,
                            scratch)
    if not run.samples.get("run_s"):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    prov = provenance(args.seed)
    print(f"perfbench workload={args.workload} alpha={inp['alpha']} "
          f"seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_share = {share} share ({run.failed} of {run.attempted})")
    for problem in run.problems[:10]:
        print(f"problem: {problem}")
    if trace:
        values = per_layer(run, units)
        for name, unit in units.items():
            print(f"{name} = {values[name]} {unit}  "
                  f"[moves {MOVES[name.split('.')[0]]}]")
    else:
        values, tail_note = end_to_end(run)
        for name, unit in units.items():
            got = run.samples["latency_s" if name.startswith("latency")
                              else name]
            lo, hi = quartiles(got)
            note = f"; {tail_note}" if name == "latency_tail_s" else ""
            print(f"{name} = {values[name]:.6g} {unit}  (median of {len(got)};"
                  f" quartiles {lo:.6g}-{hi:.6g}{note})")
    correct = run.failed == 0 and not run.problems
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    (scratch / f"result-{args.workload}.json").write_text(json.dumps(
        dict(result, provenance=prov, samples=run.samples,
             problems=run.problems), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
