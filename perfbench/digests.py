"""Record the sha256 of every report the benchmark can compare against.

Usage: python3 perfbench/digests.py

Checks each problem of the corpus, and of `dense` and `multiparam` for
seeds 1 to 10, once, and writes perfbench/digests.json.  Problems stopped
at the time limit get no digest.  Run it only when a change of the
reports is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(1, 11)


def main():
    digests = {}
    for workload, seeds in (("corpus", [0]), ("dense", SEEDS), ("multiparam", SEEDS)):
        make, limit_s = run.WORKLOADS[workload]
        for seed in seeds:
            for member in make(seed):
                result = run.run_problem(member, limit_s)
                if result["status"] == "ok" and not run.check_report(member, result["report"]):
                    digests[run.digest_key(member)] = result["sha256"]
                else:
                    print(f"no digest for {member.name}: {result['status']}", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
