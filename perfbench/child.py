"""One cold repetition, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the workload, its inputs, the modules to import and
whether to trace; a spec with ``cli_reference`` instead computes the
expected output of each CLI command in-process.  The child imports the modules, stamps the set-up time,
runs the fixed work, checks the outputs after the timed region and prints
one JSON record as the last line of stdout.
"""

import importlib
import json
import sys
import time


def main():
    spec = json.loads(sys.argv[1])
    for module in spec["imports"]:
        importlib.import_module(module)
    setup_done = time.monotonic()
    if spec.get("import_only"):
        print(json.dumps({"setup_done": setup_done}))
        return 0
    if "cli_reference" in spec:
        return cli_reference(spec["cli_reference"])

    import workloads
    from tracing import Tracer

    name, inp = spec["workload"], spec["inputs"]
    warm = workloads.warm_caches()
    tracer = Tracer().install() if spec["trace"] else None
    t0 = time.perf_counter()
    result = workloads.RUN[name](inp)
    run_s = time.perf_counter() - t0
    record = {"setup_done": setup_done, "run_s": run_s}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    attempted, failed, notes = workloads.CHECK[name](inp, result)
    record.update(attempted=attempted, failed=failed, notes=notes, warm=warm,
                  computed_labels=workloads.computed_labels(name, result))
    print(json.dumps(record))
    return 0


def cli_reference(commands):
    """Output of each CLI command computed in this process, no file cache."""
    import contextlib
    import io
    import os

    from nsjack.cli import main as cli_main

    os.environ.pop("NSJACK_CACHE_DIR", None)
    outputs = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        outputs.append([code, buf.getvalue()])
    print(json.dumps({"reference": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
