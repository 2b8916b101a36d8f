"""Benchmark of noisyrec: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload train_ome_500 --seed 1 --seconds 28 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run sets up its inputs from ``--seed``, then repeats
whole rounds of the workload until ``--seconds`` have passed, checks the
outputs of the first round, and prints one JSON object as the last line of
standard output. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced rounds and reports the per-layer metrics.
End-to-end times are scaled to the reference machine's speed by a fixed
calibration timed between rounds, so that a shared host's slower spells
cancel out; the raw times are kept in the ``# {...}`` line.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Fixed before numpy loads; one thread keeps runs on a shared two-core
# machine comparable and never exceeds the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("train_ome_500", "estimate_2000", "cli_roundtrip")
SETUP_REPEATS = 3
# The import happens once per process, so set-up also times it in this many
# fresh interpreters, one after another, and reports the median.
IMPORT_REPEATS = 3
# The calibration: fixed work that uses neither noisyrec nor the workload's
# data, timed after every round. CALIBRATION_REF_S is its median time on the
# reference machine when idle (see README.md).
CALIBRATION_LOOP = 1_500_000
CALIBRATION_PASSES = 60
CALIBRATION_REF_S = 0.25
IMPORT_PROBE = """
import argparse, json, os, resource, statistics, subprocess, sys, time
import traceback, pathlib
t = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import noisyrec, tracer, workloads
from noisyrec import _kernels
print(time.perf_counter() - t)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import noisyrec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import noisyrec
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import noisyrec from {src}: {exc}")
    if not Path(noisyrec.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: noisyrec came from {noisyrec.__file__}, "
                 f"not from {src}")


def fresh_import_seconds() -> float:
    """The set-up imports, timed in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def calibrate() -> float:
    """Seconds the calibration takes now: a Python loop, then numpy passes
    over an 8 MB array, the two kinds of work the workloads do."""
    import numpy as np
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i % 7
    a = np.arange(1_000_000, dtype=np.float64)
    for _ in range(CALIBRATION_PASSES):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cals) -> float:
    """A time measured while the calibration took median(cals) seconds,
    scaled to the speed at which it takes CALIBRATION_REF_S, so that a
    shared host's slower spells cancel out. The median ignores a
    calibration that a short burst on the host slowed."""
    return seconds * CALIBRATION_REF_S / statistics.median(cals)


def make_workload(workloads, name, seed):
    if name == "train_ome_500":
        return workloads.TrainOme(seed)
    if name == "estimate_2000":
        return workloads.Estimate(seed)
    return workloads.CliRoundtrip(seed, OUT_DIR)


def run(args) -> dict:
    # set-up runs from just before the package import to the first round
    t_import = time.perf_counter()
    import_package()
    import tracer as tracing
    import workloads
    from noisyrec import _kernels
    import_s = [time.perf_counter() - t_import]
    calibrate()  # the first call after the imports runs cold
    setup_cal = [calibrate() for _ in range(SETUP_REPEATS)]
    import_s += [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]

    wl = make_workload(workloads, args.workload, args.seed)
    prep_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.prepare()
        prep_s.append(time.perf_counter() - t0)
    setup_cal += [calibrate() for _ in range(SETUP_REPEATS)]
    setup_raw_s = statistics.median(import_s) + statistics.median(prep_s)
    setup_s = at_reference_speed(setup_raw_s, setup_cal)

    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    # Round 0 warms caches and runs the checks; it is timed but left out of
    # the medians. Traced runs then alternate traced and untraced rounds.
    walls = {"warmup": [], "traced": [], "untraced": []}
    cals = []
    traced_rounds = []
    first = None  # outputs of round 0
    problems = []
    t_start = time.perf_counter()
    rnd = 0
    while True:
        traced = bool(args.trace) and rnd % 2 == 1
        ctx = workloads.RoundContext(checking=rnd == 0,
                                     tracer=tracer if traced else None)
        if traced:
            tracer.round = rnd
            tracer.install()
        attempted += wl.ops_per_round
        try:
            ctx.start()
            summary = wl.round(inputs, ctx)
            wall = ctx.stop()
        except workloads.OperationFailed:
            traceback.print_exc()
            failed += wl.ops_per_round - ctx.ops + 1
            summary = None
        finally:
            if traced:
                tracer.uninstall()
        if rnd == 0:
            calibrate()  # round 0's checks leave the allocator cold
        cals.append(calibrate())
        problems.extend(f"round {rnd}: {p}" for p in ctx.problems)
        if summary is not None:
            if rnd == 0:
                first = summary
            elif summary != first:
                problems.append(f"round {rnd} outputs differ from round 0")
            kind = "warmup" if rnd == 0 else (
                "traced" if traced else "untraced")
            walls[kind].append(wall)
            if traced:
                traced_rounds.append(rnd)
        rnd += 1
        measured = walls["untraced"] and (walls["traced"] or not args.trace)
        elapsed = time.perf_counter() - t_start
        # a run whose rounds keep failing gives up at twice its length
        if elapsed >= args.seconds and (
                measured or (summary is None and elapsed >= 2 * args.seconds)):
            break
    if hasattr(wl, "cleanup"):
        wl.cleanup()
    if not walls["untraced"]:
        sys.exit("perfbench: no round completed")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall_s = statistics.median(walls["untraced"])
    wall_s = at_reference_speed(raw_wall_s, cals)
    info = {"workload": args.workload, "seed": args.seed,
            "backend": _kernels.ACTIVE_BACKEND, "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "rounds": rnd, "wall_s": walls,
            "calibration_s": cals, "calibration_ref_s": CALIBRATION_REF_S,
            "raw_wall_s": raw_wall_s,
            "import_s": import_s, "prep_s": prep_s,
            "setup_calibration_s": setup_cal, "raw_setup_s": setup_raw_s,
            "problems": problems}
    if args.trace:
        metrics, count_problems = tracer.layer_metrics(traced_rounds)
        problems.extend(count_problems)
        metrics[tracing.OVERHEAD_METRIC] = {
            "value": statistics.median(walls["traced"]) - raw_wall_s,
            "unit": "s"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        work = wl.work(inputs)
        info["work"] = work
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "work_per_s": {"value": work / wall_s, "unit": "work/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for message in problems:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-"
                        f"trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print("# " + json.dumps(info))
    return result


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
