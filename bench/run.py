"""The cographic benchmark: one workload, one fresh interpreter, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  One closed-loop client issues the
workload's operations one after another and checks every output against
``expected.json``.

``--trace 0`` measures the end-to-end metrics.  It makes
``--seconds / PASS_SECONDS`` whole passes over the workload (rounded, at
least one) and reports each operation at its fastest latency over the
passes.  The pass count depends only on ``--seconds``, never on how fast
the code runs, so a slower and a faster commit get the same number of
samples.  ``setup_s`` is the median over several fresh interpreters of the
time from process start until the first operation could run.

``--trace 1`` runs one untraced pass and then one pass with spans and
counters around the package's public functions, and reports the per-layer
metrics; the traced outputs pass the same correctness checks.  The spans
are written to ``bench/out/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation fails when it
raises, returns an unexpected exit code, or its output does not match the
recorded values (and, at seed 0, the recorded stdout hash).  The run still
completes; ``correct`` is false when any operation or gate failed.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
SETUP_PROBES = 7
# Nominal seconds of one untraced pass; every workload takes 10-13 s on a
# 2-vCPU VM.  Fixes the pass count for a given --seconds.
PASS_SECONDS = 12

# Structural zeros, checked on every traced run: spans or counters under
# these prefixes must do no work on the workload.
STRUCTURAL_ZEROS = {
    "fan-ladder": ["semigroup."],
    "ring-mixed": ["semigroup.hs"],
}


def import_package():
    """Import ``cographic`` from this checkout's ``src/``, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cographic
    except ImportError:
        return None
    if Path(cographic.__file__).resolve().parent != src / "cographic":
        return None
    return cographic


def setup(workload, seed, workdir):
    """Generate and write the inputs and load the expected values."""
    from inputs import write_inputs
    from workloads import WORKLOADS

    ops = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    names = sorted({g for op in ops for g in op.graphs})
    paths = write_inputs(names, seed, workdir)
    expected = json.loads(EXPECTED.read_text())
    return ops, paths, expected


def run_op(op, paths):
    """Run one operation: (exit code, stdout) for the CLI, else the result.

    Names are looked up on the modules at call time, so a traced run sees
    the wrapped functions.
    """
    from cographic import cli, fan
    from cographic.graph import parse_graph_text
    from workloads import LIB_BUILD

    if not op.is_cli:
        g = parse_graph_text(Path(paths[op.graphs[0]]).read_text())
        built = fan.build_fan(g)
        return built if op.command == LIB_BUILD else (built, built.chambers())
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(op.argv(paths))
    return code, out.getvalue()


def check(op, result, record, seed):
    """Why the result is wrong, or None when it matches the record."""
    from workloads import summarize

    if op.is_cli:
        code, stdout = result
        if code != op.exit:
            return f"exit code {code}, expected {op.exit}"
        if seed == 0 and hashlib.sha256(stdout.encode()).hexdigest() != record["sha256"]:
            return "stdout differs from the recorded seed-0 output"
    values = summarize(op, result)
    if values != record["values"]:
        diff = {k: (values.get(k), v) for k, v in record["values"].items()
                if values.get(k) != v}
        return f"values differ (got, expected): {diff}"
    return None


def run_pass(ops, paths, expected, seed, tracer=None):
    """One pass over the ops: (latency of each op in seconds, failures)."""
    latencies, failures, stdout_bytes = [], [], 0
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        start = time.perf_counter()
        try:
            result = run_op(op, paths)
        except Exception as exc:  # a failing op is counted, the run goes on
            latencies.append(time.perf_counter() - start)
            failures.append((op.id, f"raised {type(exc).__name__}: {exc}"))
            continue
        latencies.append(time.perf_counter() - start)
        if op.is_cli:
            stdout_bytes += len(result[1].encode())
        try:
            reason = check(op, result, expected[op.id], seed)
        except (KeyError, ValueError, TypeError) as exc:
            reason = f"output unreadable: {type(exc).__name__}: {exc}"
        if reason:
            failures.append((op.id, reason))
        del result
    if tracer is not None:
        tracer.op = None
        tracer.count("cli.stdout_bytes", stdout_bytes)
    return latencies, failures


def probe_setup(args):
    """Median seconds from spawning a fresh interpreter to its first op."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait()
        if not ready or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return median(times)


def print_result(correct, attempted, failed, metrics):
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def measure(args, workdir):
    """End-to-end metrics over repeated untraced passes."""
    setup_s = probe_setup(args)
    ops, paths, expected = setup(args.workload, args.seed, workdir)
    passes, failures = [], []
    for _ in range(max(1, round(args.seconds / PASS_SECONDS))):
        latencies, failed = run_pass(ops, paths, expected, args.seed)
        passes.append(latencies)
        failures += failed
    # Noise on a shared host only ever adds time, so each op's fastest
    # pass is the steadiest estimate of its cost.
    per_op = [min(p[i] for p in passes) for i in range(len(ops))]
    attempted = len(ops) * len(passes)
    for op, latency in zip(ops, per_op):
        print(f"op {op.id:37s} {latency:.6g} s")
    for op_id, reason in failures:
        print(f"FAILED {op_id}: {reason}")
    print(f"{'op_fail_ratio':40s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} ops, {len(passes)} passes)")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "slowest_op_s": {"value": max(per_op), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }
    print_result(not failures, attempted, len(failures), metrics)


def measure_traced(args, workdir):
    """Per-layer metrics from one traced pass, after one untraced pass."""
    from tracing import Tracer, layer_metrics, layer_shares, nonzero_under

    ops, paths, expected = setup(args.workload, args.seed, workdir)
    untraced, failures = run_pass(ops, paths, expected, args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced, failed = run_pass(ops, paths, expected, args.seed, tracer)
    finally:
        tracer.uninstall()
    failures += failed
    for prefix in STRUCTURAL_ZEROS.get(args.workload, []):
        for name in nonzero_under(tracer, prefix):
            failures.append(("structural zero", f"{name} did work"))
    for op_id, reason in failures:
        print(f"FAILED {op_id}: {reason}")
    chambers = {op.id: expected[op.id]["values"].get("num_chambers") for op in ops}
    metrics = layer_metrics(tracer, chambers, sum(traced), sum(untraced))
    for layer, share in layer_shares(tracer, sum(traced)):
        print(f"share of traced wall  {layer:18s} {share:.3f}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print_result(not failures, 2 * len(ops), len(failures), metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if import_package() is None:
        print("cannot import cographic from src/ of this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workdir = BENCH / ".work" / str(os.getpid())
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
        elif args.trace:
            measure_traced(args, workdir)
        else:
            measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
