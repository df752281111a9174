"""Record ``expected.json``: the correctness table the benchmark checks.

    python3 bench/record_expected.py

Runs every operation of every workload once at seed 0 and stores its
label-independent values and, for CLI operations, the sha256 of its
stdout.  Record only from a commit whose outputs are known to be right;
the benchmark then holds every later commit to them.
"""

import hashlib
import json
import shutil
import sys

from run import BENCH, EXPECTED, import_package, run_op


def main():
    if import_package() is None:
        print("cannot import cographic from src/ of this checkout",
              file=sys.stderr)
        return 2
    from inputs import write_inputs
    from workloads import all_ops, summarize

    ops = all_ops()
    workdir = BENCH / ".work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = write_inputs(sorted({g for op in ops for g in op.graphs}),
                             0, workdir)
        table = {}
        for op in ops:
            result = run_op(op, paths)
            record = {"values": summarize(op, result)}
            if op.is_cli:
                record["sha256"] = hashlib.sha256(result[1].encode()).hexdigest()
            table[op.id] = record
            print(op.id, record["values"], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
