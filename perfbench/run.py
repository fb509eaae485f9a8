#!/usr/bin/env python3
"""The evos benchmark: one workload per run, whole-pass metrics, checked outputs.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 15 --trace 0

Runs from the root of a source tree and imports evos from its ``src/``.  With
``--trace 0`` it sets the workload up SETUPS times and repeats whole timed
passes until ``--seconds`` have gone by (and at least the workload's minimum),
checks every output against the oracles and prints the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` it traces one set-up, runs the workload's
minimum of passes untraced and one more traced (see ``tracer``), requires the
traced pass to give the same outputs and prints the per-layer metrics of the
traced set-up and pass.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
program's own console output goes to ``perfbench/out/<run>/program.log``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# One BLAS thread: the matrices are at most (rows, 32), where more threads
# add scheduling noise, not speed, on a small shared machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["reference", "screen", "compare"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Import evos from this tree's src/; returns the seconds it took."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import evos.cli

    seconds = time.perf_counter() - t0
    if Path(evos.__file__).resolve().parent != (src / "evos").resolve():
        raise ImportError(f"evos was imported from {evos.__file__}, not from {src}")
    return seconds


def timed_run(wl, seconds: float) -> tuple[list, list, list]:
    """SETUPS set-ups and whole passes until ``seconds`` have gone by (at least
    the workload's minimum).  The k-th later set-up runs after the first pass
    that ends past k/SETUPS of the run, so the set-ups (and their trainings)
    are timed across the run, not in one stretch of it.

    Returns (set-up seconds, training measurements, passes).
    """
    setups, trainings, passes = [], [], []

    def setup():
        t0 = time.perf_counter()
        trainings.extend(wl.setup())
        setups.append(time.perf_counter() - t0)

    setup()
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass())
        if len(setups) < SETUPS and time.perf_counter() - start >= seconds * len(setups) / SETUPS:
            setup()
    while len(setups) < SETUPS:
        setup()
    return setups, trainings, passes


def traced_run(wl, out: Path) -> tuple[list, dict]:
    """Set up and run one pass traced, after the workload's minimum of
    untraced passes; the traced pass must give their outputs.  The tracing
    overhead is its run_s minus the last untraced one's (the first pass of a
    process also pays for warming up).  Returns (passes, per-layer figures)."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        wl.setup()
    passes = [wl.run_pass() for _ in range(wl.min_passes)]
    with tracer:
        traced = wl.run_pass()
    workloads.check(traced.digest == passes[-1].digest, "the traced pass changed the outputs")
    tracer.write(out / "spans.csv")
    summary = {
        "untraced_run_s": passes[-1].run_s,
        "traced_run_s": traced.run_s,
        "overhead_s": traced.run_s - passes[-1].run_s,
        "spans": len(tracer.spans),
    }
    (out / "trace.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"trace: {json.dumps(summary)}", file=sys.stderr)
    return [*passes, traced], tracer.stats()


def end_to_end(import_s, setups, trainings, passes) -> dict[str, float]:
    """The end-to-end figures of a run: medians over set-ups and passes;
    training as its rate over every training of the run, whose set-up
    trainings are each too short to time steadily."""
    med = statistics.median
    trainings = trainings + [t for p in passes for t in p.train]
    return {
        "setup_s": import_s + med(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": med(p.run_s for p in passes),
        "train_rows_per_s": sum(r for r, _ in trainings) / sum(s for _, s in trainings),
        "screen_rows_per_s": med(r / s for p in passes for r, s in p.screen),
        "calibrate_s": med(c for p in passes for c in p.calibrate_s),
        **passes[-1].quality,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_s = import_program()
    except ImportError as e:
        print(f"run.py: cannot import evos from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import workloads

    out = HERE / "out" / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    work = out / "work"
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    passes, setups, trainings, stats = [], [], [], {}
    correct, failed = False, 0
    with open(out / "program.log", "w") as log, contextlib.redirect_stdout(log):
        try:
            if args.trace:
                passes, stats = traced_run(wl, out)
            else:
                setups, trainings, passes = timed_run(wl, args.seconds)
            wl.check(passes)
            correct = True
        except workloads.OperationFailed as e:
            failed = 1
            print(f"run.py: {e}; see {out / 'program.log'}", file=sys.stderr)
        except workloads.CheckFailed as e:
            print(f"run.py: check failed: {e}", file=sys.stderr)
    if args.workload == "reference" and correct:
        print(f"weights sha256 {wl.weights_sha256()} (seed {args.seed})", file=sys.stderr)
    shutil.rmtree(work)
    attempted = sum(p.ops for p in passes) + failed
    if correct and args.trace:
        values = {m["name"]: stats.get(m["name"], 0) for m in spec["per_layer"]}
        names = spec["per_layer"]
    elif correct:
        values = end_to_end(import_s, setups, trainings, passes)
        names = spec["end_to_end"]
    else:
        names, values = [], {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
