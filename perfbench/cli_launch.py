"""Runs the nsjack command line the way its console script does.

    python3 perfbench/cli_launch.py <nsjack arguments>

The ``nsjack`` console script is ``from nsjack.cli import main;
sys.exit(main())``.  This launcher does the same, then writes one line
``PERFBENCH <json>`` to stderr: the monotonic time at which the import
finished, and the import and dispatch durations.  With PERFBENCH_TRACE=1
it also counts file-cache hits, misses and bytes written.
"""

import json
import os
import sys
import time


def traced_cache(cli, stats):
    original = cli._with_cache

    def with_cache(path, key, compute):
        if path is None:
            return original(path, key, compute)
        computed = []

        def counted():
            computed.append(True)
            return compute()

        out = original(path, key, counted)
        if computed:
            stats["cache_misses"] += 1
            stats["cache_bytes_written"] += os.path.getsize(path)
        else:
            stats["cache_hits"] += 1
        return out

    cli._with_cache = with_cache


def main():
    t0 = time.perf_counter()
    import nsjack.cli as cli

    stats = {"setup_done": time.monotonic(),
             "import_s": time.perf_counter() - t0}
    if os.environ.get("PERFBENCH_TRACE") == "1":
        stats.update(cache_hits=0, cache_misses=0, cache_bytes_written=0)
        traced_cache(cli, stats)
    t1 = time.perf_counter()
    try:
        return cli.main(sys.argv[1:])
    finally:
        stats["dispatch_s"] = time.perf_counter() - t1
        sys.stdout.flush()
        print("PERFBENCH " + json.dumps(stats), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
