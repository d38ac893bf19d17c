#!/usr/bin/env python3
"""Solve benchmark of hhonl: one workload, in this process, timed or traced.

    python3 perfbench/run.py --workload cartesian-k3 --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the one holding ``src/hhonl``).  The
process imports hhonl from that tree, builds the workload's inputs a few
times (set-up), then repeats rounds of the workload's program calls until
``--seconds`` have passed, checking every round's outputs.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer ones read from the
traced rounds' spans plus the tracing overhead.  Every time reported is
CPU seconds of the process that does the work (``time.process_time``),
with BLAS pinned to one thread, so a busy shared host stretches the wall
clock but not the figures.  Details, wall times included, go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("cartesian-k3", "kershaw-k1", "ladder")

# One BLAS/OpenMP thread, set before numpy is first imported here or in an
# import probe: the solves are then single-threaded, their CPU time equals
# their wall time on an idle machine, and a second BLAS thread cannot stall
# on a core another tenant holds.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# Set-up is timed (CPU seconds) several times and reported as a median:
# the import of hhonl in this process plus IMPORT_PROBES fresh
# interpreters, and the workload's input build SETUP_REPEATS times.
IMPORT_PROBES = 4
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.process_time(); import hhonl; print(time.process_time() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every input is fixed (see README)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="keep starting rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_probes():
    """CPU seconds of ``import hhonl`` in fresh interpreters."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def measure(workload, tracer, args):
    """Set-up repeats, then rounds until ``args.seconds``; returns the raw record."""
    traced = bool(args.trace)
    setup_s = []
    state = None
    for i in range(SETUP_REPEATS):
        state = None
        gc.collect()
        tracer.unit, tracer.enabled = f"setup-{i}", traced
        start = time.process_time()
        state = workload.setup()
        setup_s.append(time.process_time() - start)
        tracer.enabled = False
    reference = workload.prepare(state)

    rounds, why, faults = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        i = len(rounds)
        traced_round = traced and i % 2 == 1
        gc.collect()
        tracer.unit, tracer.enabled = f"round-{i}", traced_round
        (cpu_s, wall_s), outputs = workload.run(state)
        tracer.enabled = False
        lost, lost_why, found = workload.check(reference, outputs)
        outputs = None
        attempted += workload.attempts
        failed += lost
        why += [f"round {i}: {w}" for w in lost_why]
        faults += [f"round {i}: {f}" for f in found]
        rounds.append({"round": i, "traced": traced_round, "cpu_s": cpu_s, "wall_s": wall_s})
        if time.perf_counter() - start >= args.seconds and (not traced or i >= 1):
            break
    return {"setup_s": setup_s, "rounds": rounds, "attempted": attempted,
            "failed": failed, "failed_why": why, "faults": faults}


def end_to_end(record, imports):
    solve = [r["cpu_s"] for r in record["rounds"]]
    return {
        "setup_s": {"value": statistics.median(imports) + statistics.median(record["setup_s"]),
                    "unit": "s"},
        "solve_cpu_s": {"value": statistics.median(solve), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def per_layer(record, tracer, metric_table):
    traced = [r for r in record["rounds"] if r["traced"]]
    plain = [r for r in record["rounds"] if not r["traced"]]
    values, missing = tracer.layer_values([f"round-{r['round']}" for r in traced])
    metrics = {}
    for name, (unit, _, _) in metric_table.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            metrics[name] = {"value": None, "unit": unit, "missing": missing[name]}
    overhead = (statistics.median(r["cpu_s"] for r in traced)
                / statistics.median(r["cpu_s"] for r in plain) - 1.0)
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hhonl" / "__init__.py").is_file():
        print(f"perfbench: no hhonl sources at {SRC}; run from the root of a "
              "source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import hhonl
    imports = [time.process_time() - start]
    if Path(hhonl.__file__).resolve().parent != SRC / "hhonl":
        print(f"perfbench: imported hhonl from {hhonl.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    imports += import_probes()

    import numpy
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}: {workload.describe()}")
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, {len(os.sched_getaffinity(0))} CPUs, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
          f"seed {args.seed} (unused), trace {args.trace}")
    tracer = spans.Tracer()
    restore = spans.instrument(tracer) if args.trace else None
    try:
        record = measure(workload, tracer, args)
    finally:
        if restore is not None:
            restore()

    if args.trace:
        metrics = per_layer(record, tracer, spans.METRICS)
    else:
        metrics = end_to_end(record, imports)
    result = {"correct": not record["faults"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = args.workload + ("-trace" if args.trace else "")
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   import_s=imports, **record)
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print("set-up  " + " ".join(f"{s:.3f}" for s in record["setup_s"])
          + "  import " + " ".join(f"{s:.3f}" for s in imports))
    print("rounds  " + " ".join(f"{r['cpu_s']:.3f}{'T' if r['traced'] else ''}"
                                for r in record["rounds"]) + "  (CPU s)")
    print("wall    " + " ".join(f"{r['wall_s']:.3f}" for r in record["rounds"]))
    for line in record["failed_why"]:
        print("FAILED  " + line)
    for line in record["faults"]:
        print("CHECK   " + line)
    for name, m in metrics.items():
        value = m.get("missing") if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<24} {value} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
