"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads cli,construct]

Run from the root of a checkout.  Each (workload, seed) pair is one run of
``run.py`` with the ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric the script prints the median, the quartiles and the
spread, (q3 - q1) / median, next to the metric's bound, and writes
everything to ``--out`` (default ``.perfbench/steadiness.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=".perfbench/steadiness.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if "provenance" not in out:
                out["provenance"] = json.loads(next(
                    line for line in lines if line.startswith("provenance "))
                    .split(" ", 1)[1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect result",
                      file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads(
                Path(f".perfbench/result-{workload}.json").read_text())
            runs.append({"seed": seed,
                         "alpha": workloads.make_inputs(workload, seed)["alpha"],
                         "samples": record["samples"]})
        rows = out["workloads"][workload] = {"runs": runs}
        for name, bound in bounds.items():
            row = rows[name] = summarize(values[name])
            row["bound"] = bound
            print(f"{workload:17s} {name:15s} median {row['median']:9.4f} "
                  f"q1 {row['q1']:9.4f} q3 {row['q3']:9.4f} "
                  f"spread {row['spread']:.4f} (bound {bound}, "
                  f"a third {bound / 3:.4f})")
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
