"""Desk-scale train-and-score benchmark for lookupvnet.

    python3 deskbench/run.py --workload u4-b64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy. One process trains and scores the
acceptance suite's desk model through the public API:

1. set-up: imports, seeded input generation, model and table build, and
   a warm-up round;
2. timed rounds, each one training epoch and one scoring block of whole
   trainer.evaluate passes, until --seconds have passed;
3. untimed output checks (see verify.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced rounds, and reports the
per-layer metrics and the tracing overhead on train images/s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "deskbench", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# the keys of workloads.WORKLOADS, which cannot be imported before the threads are pinned
WORKLOAD_NAMES = ("u4-b64", "baseline-aug-b64", "c16-cross-b8")


def process_age():
    """Seconds since this process started, from /proc (0 where unreadable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def import_library():
    """Pin BLAS/OpenMP pools to one thread, then import lookupvnet from ./src."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    try:
        import lookupvnet
    except ImportError as exc:
        sys.exit(f"deskbench: cannot import lookupvnet from {src}: {exc}")
    if not os.path.abspath(lookupvnet.__file__).startswith(src + os.sep):
        sys.exit(f"deskbench: lookupvnet came from {lookupvnet.__file__}, not {src}")


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def timed_rounds(run, budget, set_mode=lambda mode: None):
    """Whole rounds of one training epoch and one scoring block, at least one
    and then until budget seconds have passed; interleaving lets both rates
    sample the same window.

    Returns (attempted, failed, train rates, eval rates): operations are
    training steps and eval batches, and each rate is one block's images
    over that block's time.
    """
    attempted = failed = 0
    train_rates, eval_rates = [], []
    start = time.perf_counter()
    while not train_rates or time.perf_counter() - start < budget:
        set_mode("train")
        t0 = time.perf_counter()
        ops, bad = run.train_epoch()
        t1 = time.perf_counter()
        set_mode("eval")
        batches, images = run.eval_block()
        t2 = time.perf_counter()
        attempted += ops + batches
        failed += bad
        train_rates.append(run.images_per_epoch / (t1 - t0))
        eval_rates.append(images / (t2 - t1))
    return attempted, failed, train_rates, eval_rates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    age, age_clock = process_age(), time.perf_counter()
    import_library()
    import numpy as np

    import verify
    from lookupvnet import gradcore
    from workloads import WORKLOADS, DeskRun

    run = DeskRun(WORKLOADS[args.workload], args.seed)

    attempted, failed, _, _ = timed_rounds(run, 0.0)  # warm-up; its epoch starts the learning check
    setup_s = age + time.perf_counter() - age_clock

    if args.trace:
        from optrace import OpTracer

        # untraced and traced rounds alternate, so the overhead compares
        # rounds from the same window of machine load
        tracer, plain, traced, flops_counted = OpTracer(), [], [], 0
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            ops, bad, rates, _ = timed_rounds(run, 0.0)
            plain += rates
            with tracer, gradcore.count_flops() as counter:
                more_ops, more_bad, rates, _ = timed_rounds(run, 0.0, tracer.set_mode)
            traced += rates
            flops_counted += counter.flops
            attempted, failed = attempted + ops + more_ops, failed + bad + more_bad
        per_layer = tracer.medians()
        per_layer["trace.overhead_pct"] = 100.0 * (1.0 - median(traced) / median(plain))
        units = {"share": "share", "mflop": "MFLOP/img", "pct": "%"}
        metrics = {
            name: {"value": value, "unit": next((u for key, u in units.items() if key in name), "ms")}
            for name, value in per_layer.items()
        }
    else:
        ops, bad, train_rates, eval_rates = timed_rounds(run, args.seconds)
        attempted, failed = attempted + ops, failed + bad
        metrics = {
            "train_img_per_s": {"value": median(train_rates), "unit": "img/s"},
            "eval_img_per_s": {"value": median(eval_rates), "unit": "img/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    checks = verify.run_checks(run, OUT_DIR)
    if args.trace:
        from refcheck import check_flops

        checks.append(("flop_cross_check", *check_flops(tracer.flops, flops_counted)))
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.csv")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans, {len(tracer.steps)} steps -> {os.path.relpath(path, ROOT)}")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}

    print(f"workload {args.workload} seed {args.seed}: numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, BLAS threads pinned to 1")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
