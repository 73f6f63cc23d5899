"""Record the library workload's point counts for the default and held-out seeds.

    python3 bench/record_reference.py

rewrites bench/reference.json.  The stored values are what later rounds
of those two seeds are checked against, so rerun it only on a commit
whose counts are known to be right.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    api = worker.load_api()
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    reference = {
        "counts": {
            str(seed): {
                f"{op[1]} {op[2]}": str(api.sp(*op[1:]))
                for op in workloads.make_ops("library", seed, api)
                if op[0] == "sp"
            }
            for seed in seeds
        }
    }
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
