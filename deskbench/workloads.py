"""The desk-scale model, its seeded inputs and the three benchmark workloads.

The model is the acceptance suite's desk configuration: 32x32 inputs,
conv blocks 8/16/16 with 2x2 pooling, a 64-wide head, SGD with
momentum 0.9 at learning rate 0.005 and weight decay 5e-4. Every array
the library sees is generated here from the run's seed; the library
only ever receives byte images and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lookupvnet import (
    AugmentSpec,
    ChannelStats,
    ConvSpec,
    LabeledImageSet,
    ModelConfig,
    OptimState,
    StandardizeStage,
    TrainingDiverged,
    TrainPlan,
    build_model,
    evaluate,
    init_tables,
    train_cross_network,
    train_single,
)

DESK_LR = 0.005
EVAL_BATCH = 256  # trainer.evaluate's default batch
CLASSES = 10
SIDE = 32
BAND = 12  # colors per class band and channel
TEST_PER_CLASS = 50  # 500 held-out images: two eval batches of 256 and 244


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str  # "full", "compressed" or "baseline"
    value: int | None  # u for full tables, c for compressed ones
    batch: int
    augment: bool
    cross: bool  # two networks alternating on shared tables
    train_per_class: int  # one epoch is one timed training block
    eval_passes: int  # passes over the test set in one timed scoring block


# Block sizes keep one training block near one second on a 2-core desk
# machine, so a run's median covers many rounds. u4-b64's scoring is the
# slowest per image and its noisiest figure, so its block makes 4 passes
# (about 2 s) against the others' 2 (about 0.5 s).
WORKLOADS = {
    w.name: w
    for w in (
        # the table stage does the most work: the u=4 gather, the add.at
        # scatter and conv0 widened to 12 input planes
        Workload("u4-b64", "full", 4, 64, False, False, 32, 4),
        # no tables, so lookup changes must leave it unchanged; conv0's input
        # gradient is computed and thrown away; the only augmented workload
        Workload("baseline-aug-b64", "baseline", None, 64, True, False, 64, 2),
        # the collective strategy on the compressed path; at batch 8 the
        # per-step fixed costs (tape, sgd loop, op dispatch) dominate
        Workload("c16-cross-b8", "compressed", 16, 8, False, True, 24, 2),
    )
}


def palette_set(per_class, seed):
    """Balanced 10-class 32x32 byte images whose class lives in the colors.

    Class k draws each channel from its own 12-wide color band, with the
    band index rotated across channels, and a two-level texture inside
    the band so the convolutions see spatial structure.
    """
    rng = np.random.default_rng(seed)
    starts = [int(round(k * (256 - BAND) / (CLASSES - 1))) for k in range(CLASSES)]
    half = BAND // 2
    images = np.empty((per_class * CLASSES, 3, SIDE, SIDE), dtype=np.uint8)
    labels = np.repeat(np.arange(CLASSES), per_class)
    for k in range(CLASSES):
        block = slice(k * per_class, (k + 1) * per_class)
        mask = rng.random((per_class, SIDE, SIDE)) < 0.5
        for ch, rot in enumerate((0, 3, 7)):
            lo = starts[(k + rot) % CLASSES]
            low = rng.integers(lo, lo + half, size=(per_class, SIDE, SIDE))
            high = rng.integers(lo + half, lo + BAND, size=(per_class, SIDE, SIDE))
            images[block, ch] = np.where(mask, high, low)
    return LabeledImageSet(images, labels, CLASSES, name="palette-10")


def desk_config(input_channels, seed):
    return ModelConfig(
        input_channels=input_channels,
        conv_blocks=(
            ConvSpec(kernel=3, filters=8, pool=True),
            ConvSpec(kernel=3, filters=16, pool=True),
            ConvSpec(kernel=3, filters=16, pool=True),
        ),
        head_width=64,
        class_count=CLASSES,
        input_size=(SIDE, SIDE),
        seed=seed,
    )


def desk_optim():
    return OptimState(lr=DESK_LR, momentum=0.9, weight_decay=5e-4)


def _seed_of(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class DeskRun:
    """One workload's data, stage, models and optimizers for one seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.train_set = palette_set(workload.train_per_class, [seed, 0])
        self.test_set = palette_set(TEST_PER_CLASS, [seed, 1])
        if workload.stage == "baseline":
            stats = ChannelStats.from_images(self.train_set.images, eps=1e-8)
            self.stage = StandardizeStage(stats=stats, eps=1e-8)
        else:
            self.stage = init_tables(workload.stage, workload.value, seed=_seed_of(seed, 2))
        count = 2 if workload.cross else 1
        self.models = [
            build_model(desk_config(self.stage.output_channels, _seed_of(seed, 3, i))) for i in range(count)
        ]
        self.optims = [desk_optim() for _ in range(count)]
        self.epochs = 0
        self.losses = []  # per epoch: one mean train loss per network
        self.diverged = False

    @property
    def steps_per_epoch(self):
        batches = -(-len(self.train_set) // self.workload.batch)
        return batches * len(self.models)

    @property
    def images_per_epoch(self):
        return len(self.train_set) * len(self.models)

    def plan(self):
        augment = AugmentSpec(pad=4, hflip_prob=0.5) if self.workload.augment else None
        return TrainPlan(
            epochs=1, batch_size=self.workload.batch, seed=_seed_of(self.seed, 4, self.epochs), augment=augment
        )

    def train_epoch(self, step_hook=None, train_set=None):
        """One epoch through the public training API; returns (attempted, failed) steps.

        A diverged epoch counts every one of its steps as failed and ends
        training for the run, since the parameters are no longer finite.
        """
        attempted = self.steps_per_epoch
        if self.diverged:
            return attempted, attempted
        train_set = self.train_set if train_set is None else train_set
        plan = self.plan()
        self.epochs += 1
        try:
            if self.workload.cross:
                rows = train_cross_network(
                    self.models[0], self.models[1], self.stage, train_set, plan,
                    self.optims[0], self.optims[1], step_hook=step_hook,
                )
                self.losses.append([r.rows[0].train_loss for r in rows])
            else:
                metrics = train_single(self.models[0], self.stage, train_set, plan, self.optims[0])
                self.losses.append([metrics.rows[0].train_loss])
        except TrainingDiverged:
            self.diverged = True
            return attempted, attempted
        return attempted, 0

    @property
    def eval_batches(self):
        return -(-len(self.test_set) // EVAL_BATCH) * self.workload.eval_passes

    def eval_block(self):
        """eval_passes scoring passes of the first network over the test set."""
        for _ in range(self.workload.eval_passes):
            evaluate(self.models[0], self.stage, self.test_set)
        return self.eval_batches, len(self.test_set) * self.workload.eval_passes
