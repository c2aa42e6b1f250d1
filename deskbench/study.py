"""Reference figures for the README: one desk-scale training run, epoch by epoch.

    OPENBLAS_NUM_THREADS=1 python3 deskbench/study.py --batch 64 --seed 1

Unlike run.py this script leaves the BLAS thread count to the caller's
environment, so the same run can be timed with one thread and with the
default pool. It trains u=1 full tables for 6 epochs on the acceptance
suite's desk set size, 200 images per class, and prints one line per
epoch plus a summary of images/s after the first epoch and process CPU
seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

U = 1
EPOCHS = 6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    from lookupvnet import TrainPlan, build_model, init_tables, train_single
    from workloads import desk_config, desk_optim, palette_set

    train = palette_set(200, [args.seed, 0])
    stage = init_tables("full", U, seed=args.seed + 1000)
    model = build_model(desk_config(stage.output_channels, args.seed))
    plan = TrainPlan(epochs=EPOCHS, batch_size=args.batch, seed=args.seed)
    cpu, wall = time.process_time(), time.perf_counter()
    metrics = train_single(model, stage, train, plan, desk_optim())
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    rates = [len(train) / row.seconds for row in metrics.rows]
    for row, rate in zip(metrics.rows, rates):
        print(f"epoch {row.epoch}: {rate:.0f} img/s, loss {row.train_loss:.4f}")
    later = len(train) * (len(rates) - 1) / sum(r.seconds for r in metrics.rows[1:])
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"u={U} batch={args.batch} threads={threads}: first epoch {rates[0]:.0f} img/s, "
          f"later epochs {later:.0f} img/s, {cpu:.1f} CPU-s over {wall:.1f} s wall")


if __name__ == "__main__":
    main()
