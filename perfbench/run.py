"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (the program is
imported from ``src/``), checks every output against an oracle, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run, which also
writes the layer report and a Chrome trace under ``perfbench/out/``.
See ``perfbench/README.md`` for what each workload and metric means.

This process generates the seed's inputs and the oracle's answers under
``perfbench/out/``, then measures in a child process (``--measure``) that
only loads them and runs the program: the child's ``getrusage`` peak RSS
is then the program's own, not the generator's or the oracle's.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dblp-sweep", "orku25-vj", "serve-mixed")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


#: Switches the program reads from the environment.  The benchmark pins
#: what they control (tracing, broadcast plane, dataset size) in code and
#: removes them, so e.g. a CI job's ``REPRO_TRACE=1`` cannot silently turn
#: end-to-end numbers into traced ones.
PROGRAM_SWITCHES = ("REPRO_TRACE", "REPRO_NO_SHM", "REPRO_BENCH_SCALE")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    for name in PROGRAM_SWITCHES:
        if os.environ.pop(name, None) is not None:
            print(f"# ignoring {name} from the environment", file=sys.stderr)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}")
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true",
                        help="measure prepared inputs (run in a child)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)

    from perfbench import batch, serve

    if not args.measure:
        if args.workload in batch.WORKLOADS:
            batch.prepare(batch.WORKLOADS[args.workload], args.seed, OUT)
        else:
            serve.prepare(args.seed, OUT)
        return run_child(
            list(sys.argv[1:] if argv is None else argv) + ["--measure"])

    if args.workload in batch.WORKLOADS:
        module = batch
        bench = batch.Batch(batch.WORKLOADS[args.workload], args.seed, OUT)
    else:
        module = serve
        bench = serve.Serve(args.seed, OUT)
    if args.trace:
        stem = os.path.join(OUT, f"{args.workload}-{args.seed}")
        report = bench.traced(stem + ".trace.json")
        values = report["metrics"]
        wanted = spec["per_layer"]
        for metric in wanted:
            # Layers this workload does not run report 0.
            if metric["name"].split(".")[0] not in module.LAYERS:
                values.setdefault(metric["name"], 0)
        failed_checks = [
            name for name, check in report["checks"].items()
            if not (check["ok"] if isinstance(check, dict) else check)
        ]
        with open(stem + ".layers.json", "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True, default=str)
    else:
        values = bench.timed(args.seconds)
        wanted = spec["end_to_end"]
        failed_checks = []
    for line in bench.failures:
        print(f"# FAIL {line}", file=sys.stderr)
    for name in failed_checks:
        print(f"# FAIL layer check {name}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}",
              file=sys.stderr)
    failed = len(bench.failures)
    result = {
        "correct": failed == 0 and not failed_checks,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_child(args: list) -> int:
    """Run this script with ``args`` in a child process and wait for it;
    its standard output (the result line) passes straight through."""
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__)]
                             + args)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
