"""Untimed output checks on a trained DeskRun.

Each function gathers values through the library's public API and
judges them with a predicate from refcheck; each returns a list of
(name, ok, detail).
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

import refcheck
from lookupvnet import (
    LabeledImageSet,
    backward,
    evaluate,
    forward,
    read_checkpoint,
    restore_model,
    restore_stage,
    save_checkpoint,
    softmax_cross_entropy,
    standardizing_tables,
)

# `from .lookup import lookup` in the package rebinds lookupvnet.lookup to
# the function, so the module is only reachable through sys.modules.
LOOKUP = sys.modules["lookupvnet.lookup"]

FD_STEP = 1e-5
FD_ENTRIES = 4  # sampled entries per weight or table group
FD_DRAWS = 8  # candidates per wanted entry, for replacing entries at kinks
FD_IMAGES = 4


def stage_description(stage):
    """The stage as refcheck.code_images reads it, sharing the live arrays."""
    if stage.kind == "standardize":
        return ("standardize", stage.stats.mean, stage.stats.effective_std())
    if stage.kind == "compressed":
        return ("compressed", [t.data for t in stage.tables], stage.c)
    return ("full", [t.data for t in stage.tables])


def held_out_sample(run):
    """Every fifth test image: 100 images, all classes."""
    test = run.test_set
    return LabeledImageSet(test.images[::5], test.labels[::5], test.class_count)


def reference_checks(run, sample):
    out = []
    for i, model in enumerate(run.models):
        params = {name: t.data for name, t in model.params.items()}
        library = forward(model, run.stage.apply(sample.images)).data
        reference = refcheck.logits(params, sample.images, stage_description(run.stage))
        out.append((f"reference_logits.net{i}", *refcheck.check_reference_logits(library, reference)))
        reported = evaluate(model, run.stage, sample)
        out.append((f"reference_accuracy.net{i}", *refcheck.check_accuracy(reported, reference, sample.labels)))
    return out


def _table_rows(stage, images, ch):
    colors = images[:, ch].astype(np.int64)
    return np.unique(colors // stage.c if stage.kind == "compressed" else colors)


def _candidates(name, data, stage, images, rng):
    """Entries of one group in the order they are tried: weights at random;
    tables one untouched row (when one exists), then touched rows at random."""
    if not name.startswith("tables/"):
        flat = rng.permutation(data.size)[: FD_ENTRIES * FD_DRAWS]
        return [tuple(int(v) for v in np.unravel_index(i, data.shape)) for i in flat]
    touched = _table_rows(stage, images, "rgb".index(name[-1]))
    untouched = np.setdiff1d(np.arange(data.shape[0]), touched)
    rows = list(untouched[:1]) + list(rng.permutation(touched)[: FD_ENTRIES * FD_DRAWS])
    return [(int(r),) + ((int(rng.integers(data.shape[1])),) if data.ndim == 2 else ()) for r in rows]


def sampled_gradients(model, stage, images, labels, rng):
    """Reverse-mode gradients against central differences of the reference loss.

    FD_ENTRIES entries are sampled from every weight and table group. An
    entry whose +-h perturbation changes the activation pattern straddles
    a relu or pool kink, where a central difference is no derivative; it is
    replaced by the next draw. Returns (analytic, numeric, wanted, kinks),
    wanted being the number of entries that should have been compared.
    """
    grads = backward(softmax_cross_entropy(forward(model, stage.apply(images)), labels))
    params = {name: t.data for name, t in model.params.items()}
    description = stage_description(stage)
    _, pattern = refcheck.reference_pass(params, images, description)

    def smooth_loss(data, idx, value):
        data[idx] = value
        z, moved = refcheck.reference_pass(params, images, description)
        return refcheck.cross_entropy(z, labels), refcheck.same_pattern(moved, pattern)

    groups = {f"model/{n}": t for n, t in model.params.items()}
    groups.update(stage.parameters())
    analytic, numeric, wanted, kinks = [], [], 0, 0
    for name, tensor in groups.items():
        data, grad = tensor.data, grads.get(tensor)
        candidates = _candidates(name, data, stage, images, rng)
        wanted += min(FD_ENTRIES, len(candidates))
        taken = 0
        for idx in candidates:
            if taken == FD_ENTRIES:
                break
            saved = data[idx]
            hi, hi_smooth = smooth_loss(data, idx, saved + FD_STEP)
            lo, lo_smooth = smooth_loss(data, idx, saved - FD_STEP)
            data[idx] = saved
            if not (hi_smooth and lo_smooth):
                kinks += 1
                continue
            numeric.append((hi - lo) / (2 * FD_STEP))
            analytic.append(0.0 if grad is None else float(grad[idx]))
            taken += 1
    return analytic, numeric, wanted, kinks


def gradient_checks(run, sample):
    rng = np.random.default_rng([run.seed, 5])
    images, labels = sample.images[::25][:FD_IMAGES], sample.labels[::25][:FD_IMAGES]
    out = []
    for i, model in enumerate(run.models):
        analytic, numeric, wanted, kinks = sampled_gradients(model, run.stage, images, labels, rng)
        out.append((f"finite_differences.net{i}", *refcheck.check_gradients(analytic, numeric, wanted, kinks)))
    return out


def scatter_check(run, sample):
    """lookup_backward conserves a random upstream gradient; baseline runs use
    the frozen standardizing tables, the only tables they have."""
    tables = standardizing_tables(run.stage.stats) if run.stage.kind == "standardize" else run.stage
    result = LOOKUP.lookup(sample.images, tables)
    upstream = np.random.default_rng([run.seed, 6]).standard_normal(result.values.shape)
    grads = LOOKUP.lookup_backward(upstream, result.indices, tables)
    return [("scatter_conservation", *refcheck.check_scatter(grads, upstream, result.indices))]


def roundtrip_check(run, sample, workdir):
    """save_checkpoint -> read_checkpoint -> restore_* gives bit-identical logits."""
    before, after = [], []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for i, (model, optim) in enumerate(zip(run.models, run.optims)):
            path = os.path.join(tmp, f"net{i}.lvnc")
            save_checkpoint(path, model, run.stage, optim, np.random.default_rng(run.seed))
            sections = read_checkpoint(path)
            restored, stage = restore_model(sections), restore_stage(sections)
            before.append(forward(model, run.stage.apply(sample.images)).data)
            after.append(forward(restored, stage.apply(sample.images)).data)
    return [("checkpoint_round_trip", *refcheck.check_identical(before, after, "restored logits"))]


def learning_check(run):
    accuracies = [evaluate(model, run.stage, run.test_set) for model in run.models]
    ok, detail = refcheck.check_learning(run.losses[0], run.losses[-1], accuracies, 1 / run.test_set.class_count)
    return [("learning", ok, detail)]


def baseline_equivalence_check(run, sample):
    model, stage = run.models[0], run.stage
    base = forward(model, stage.apply(sample.images)).data
    tabled = forward(model, LOOKUP.lookup(sample.images, standardizing_tables(stage.stats)).values).data
    return [("baseline_equivalence", *refcheck.check_baseline_equivalence(base, tabled))]


def isolation_check(run):
    """One short cross epoch: an f-step leaves g's weights bit-identical and
    the reverse; the shared tables move under both. This trains the models."""
    subset = LabeledImageSet(run.train_set.images[::8], run.train_set.labels[::8], run.train_set.class_count)
    model_f, model_g = run.models
    tables = run.stage.tables
    snapshot, state = {}, {"violations": 0, "moved": {"f": False, "g": False}}

    def hook(phase, step):
        when, net = phase.split("_")
        other = model_g if net == "f" else model_f
        if when == "before":
            snapshot["other"] = {n: t.data.copy() for n, t in other.params.items()}
            snapshot["tables"] = [t.data.copy() for t in tables]
            return
        if any(not np.array_equal(snapshot["other"][n], t.data) for n, t in other.params.items()):
            state["violations"] += 1
        if any(not np.array_equal(s, t.data) for s, t in zip(snapshot["tables"], tables)):
            state["moved"][net] = True

    run.train_epoch(step_hook=hook, train_set=subset)
    return [("alternation_isolation", *refcheck.check_isolation(state["violations"], state["moved"]))]


def run_checks(run, workdir):
    sample = held_out_sample(run)
    results = learning_check(run)
    results += reference_checks(run, sample)
    results += gradient_checks(run, sample)
    results += scatter_check(run, sample)
    results += roundtrip_check(run, sample, workdir)
    if run.stage.kind == "standardize":
        results += baseline_equivalence_check(run, sample)
    if run.workload.cross:
        results += isolation_check(run)
    return results
