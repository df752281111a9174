"""Count-repeat check for the traced benchmark.

    python3 bench/counts.py

For each workload, runs the traced benchmark twice at
``SEED`` and once at ``OTHER_SEED``, each in a fresh interpreter.  A
count that differs between the two same-seed runs is not exact, and the
check exits 1.  Counts that differ between the two seeds are listed but
not gated: relabelling may change how much work an algorithm does.
A later claim may rest on a count only if this check shows it exact.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 1          # a relabelled input
OTHER_SEED = 0    # the graphs as defined

COUNTS = ["orientations.tc_tests", "orientations.poset_elements",
          "semigroup.hs_member_tests", "semigroup.hull_planes",
          "semigroup.volume_calls", "fan.build_calls",
          "circuits.compatible_calls", "cli.stdout_bytes"]


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run not correct")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main():
    exact = True
    for workload in WORKLOADS:
        first = traced_counts(workload, SEED)
        again = traced_counts(workload, SEED)
        other = traced_counts(workload, OTHER_SEED)
        for name in COUNTS:
            repeat = "exact" if first[name] == again[name] else "NOT EXACT"
            exact &= first[name] == again[name]
            seeds = ("same across seeds" if first[name] == other[name] else
                     f"seed {OTHER_SEED}: {other[name]}")
            print(f"{workload:16s} {name:28s} {first[name]:>10} "
                  f"{repeat:9s} {seeds}")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
