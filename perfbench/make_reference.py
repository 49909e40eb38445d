"""Regenerate reference.json: the certified optimum of each op input.

    python3 perfbench/make_reference.py --workload sweep-L16 --seeds 0-22 --ops 24

For the first --ops ops of each seed, runs the op, checks it as a benchmark
run does, and records input digest -> optimum under the workload's key,
with the seeds and op range it covers.  The optima are unique, so any
correct program returns the same ones; a run whose op input is listed here
must reproduce the listed optimum, and an op inside the covered range whose
input is not listed fails.  The duality inputs do not depend on the seed:

    python3 perfbench/make_reference.py --workload duality-dD3 --seeds 0-0 --ops 1
"""

from __future__ import annotations

import argparse
import json

from worker import REFERENCE, WORKLOADS, load_coiso


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--ops", type=int, required=True, help="ops per seed")
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))

    workload = WORKLOADS[args.workload][0](load_coiso())
    ref = {}
    for seed in range(first, last + 1):
        for i in range(args.ops):
            inp, opt = workload.check(workload.op(seed, i))
            ref[inp] = opt
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[args.workload] = {"seeds": [first, last], "ops": args.ops,
                            "optima": dict(sorted(ref.items()))}
    REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(ref)} inputs recorded")


if __name__ == "__main__":
    main()
