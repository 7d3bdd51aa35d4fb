"""Record the construct workload's output digest for every pooled coupling.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are trusted; the digests
are written to ``perfbench/digests.json`` and every later construct run
is checked against them.
"""

import json

import workloads


def main():
    digests = {}
    for alpha in workloads.ALPHA_POOL:
        inp = dict(workloads.make_inputs("construct", 0), alpha=alpha)
        digests[alpha] = workloads.construct_digest(
            workloads.run_construct(inp))
        print(alpha, digests[alpha])
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
