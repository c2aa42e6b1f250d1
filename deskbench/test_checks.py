"""The benchmark's own checks: each passes on the library's real outputs
and fails on a deliberately corrupted value.

    PYTHONPATH=src python -m pytest -q deskbench/test_checks.py
"""

import numpy as np
import pytest

import refcheck
import verify
from lookupvnet import (
    ChannelStats,
    StandardizeStage,
    build_model,
    count_flops,
    forward,
    gradcore,
    init_tables,
    standardizing_tables,
    trainer,
)
from optrace import OpTracer, useful_grad_share
from workloads import Workload, DeskRun, desk_config, palette_set

LOOKUP = verify.LOOKUP


def tiny(stage, value, cross=False, augment=False):
    workload = Workload(f"tiny-{stage}", stage, value, 8, augment, cross, 4, 1)
    return DeskRun(workload, seed=3)


def stage_for(kind, images):
    if kind == "baseline":
        return StandardizeStage(stats=ChannelStats.from_images(images, eps=1e-8), eps=1e-8)
    return init_tables(*kind, seed=5)


STAGES = ["baseline", ("full", 2), ("compressed", 16)]


@pytest.mark.parametrize("stage", ["baseline", "full", "compressed"])
def test_every_check_passes_on_a_short_run(stage, tmp_path):
    run = tiny(stage, {"baseline": None, "full": 2, "compressed": 16}[stage],
               cross=stage == "compressed", augment=stage == "baseline")
    for _ in range(6):
        run.train_epoch()
    results = verify.run_checks(run, str(tmp_path))
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert not failed
    names = {name for name, _, _ in results}
    assert ("baseline_equivalence" in names) == (stage == "baseline")
    assert ("alternation_isolation" in names) == (stage == "compressed")


@pytest.mark.parametrize("kind", STAGES)
def test_reference_forward_catches_a_perturbed_logit(kind):
    data = palette_set(1, 0)
    stage = stage_for(kind, data.images)
    model = build_model(desk_config(stage.output_channels, seed=1))
    library = forward(model, stage.apply(data.images)).data
    params = {name: t.data for name, t in model.params.items()}
    reference = refcheck.logits(params, data.images, verify.stage_description(stage))
    assert refcheck.check_reference_logits(library, reference)[0]
    corrupted = library.copy()
    corrupted[3, 4] *= 1 + 1e-6
    assert not refcheck.check_reference_logits(corrupted, reference)[0]

    accuracy = float(np.mean(library.argmax(axis=1) == data.labels))
    assert refcheck.check_accuracy(accuracy, reference, data.labels)[0]
    assert not refcheck.check_accuracy(accuracy + 0.1, reference, data.labels)[0]


@pytest.mark.parametrize("kind", STAGES)
def test_gradient_check_catches_a_flipped_sign(kind):
    data = palette_set(1, 0)
    stage = stage_for(kind, data.images)
    model = build_model(desk_config(stage.output_channels, seed=1))
    rng = np.random.default_rng(0)
    analytic, numeric, wanted, kinks = verify.sampled_gradients(
        model, stage, data.images[:4], data.labels[:4], rng
    )
    assert refcheck.check_gradients(analytic, numeric, wanted, kinks)[0]
    biggest = int(np.argmax(np.abs(analytic)))
    flipped = list(analytic)
    flipped[biggest] = -flipped[biggest]
    assert not refcheck.check_gradients(flipped, numeric, wanted, kinks)[0]
    assert not refcheck.check_gradients(analytic[1:], numeric[1:], wanted, kinks)[0]


@pytest.mark.parametrize("kind", [("full", 3), ("compressed", 16)])
def test_scatter_check_catches_a_stray_row_and_lost_mass(kind):
    images = palette_set(1, 0).images[:1]  # one class: most rows absent
    tables = init_tables(*kind, seed=2)
    result = LOOKUP.lookup(images, tables)
    upstream = np.random.default_rng(1).standard_normal(result.values.shape)
    grads = LOOKUP.lookup_backward(upstream, result.indices, tables)
    assert refcheck.check_scatter(grads, upstream, result.indices)[0]

    absent = np.setdiff1d(np.arange(grads[1].shape[0]), result.indices[:, 1])
    stray = [g.copy() for g in grads]
    stray[1][absent[0]] = 1e-3
    assert not refcheck.check_scatter(stray, upstream, result.indices)[0]
    present = result.indices[0, 2, 0, 0]
    lost = [g.copy() for g in grads]
    lost[2][present] = -lost[2][present]
    assert not refcheck.check_scatter(lost, upstream, result.indices)[0]


def test_bit_identity_catches_one_ulp():
    logits = np.random.default_rng(0).standard_normal((5, 10))
    assert refcheck.check_identical([logits], [logits.copy()], "logits")[0]
    nudged = logits.copy()
    nudged[2, 7] = np.nextafter(nudged[2, 7], np.inf)
    assert not refcheck.check_identical([logits], [nudged], "logits")[0]


def test_learning_check_needs_a_lower_loss_and_accuracy_above_chance():
    assert refcheck.check_learning([2.3], [0.4], [0.9], 0.1)[0]
    assert not refcheck.check_learning([2.3], [2.4], [0.9], 0.1)[0]
    assert not refcheck.check_learning([2.3, 2.3], [0.4, 0.5], [0.9, 0.15], 0.1)[0]


def test_isolation_check_needs_no_leak_and_moving_tables():
    assert refcheck.check_isolation(0, {"f": True, "g": True})[0]
    assert not refcheck.check_isolation(1, {"f": True, "g": True})[0]
    assert not refcheck.check_isolation(0, {"f": True, "g": False})[0]


def test_baseline_equivalence_catches_a_small_gap():
    images = palette_set(1, 0).images
    stats = ChannelStats.from_images(images, eps=1e-8)
    model = build_model(desk_config(3, seed=2))
    base = forward(model, StandardizeStage(stats=stats, eps=1e-8).apply(images)).data
    tabled = forward(model, LOOKUP.lookup(images, standardizing_tables(stats)).values).data
    assert refcheck.check_baseline_equivalence(base, tabled)[0]
    assert not refcheck.check_baseline_equivalence(base, tabled + 1e-8)[0]


@pytest.mark.parametrize("stage,share_is_one", [("full", True), ("baseline", False)])
def test_tracer_flops_match_count_flops_and_it_unpatches(stage, share_is_one):
    run = tiny(stage, 1 if stage == "full" else None)
    originals = (gradcore.conv2d, trainer.backward, trainer.batch_iter, LOOKUP.lookup)
    with OpTracer() as tracer, count_flops() as counter:
        run.train_epoch()
    assert (gradcore.conv2d, trainer.backward, trainer.batch_iter, LOOKUP.lookup) == originals
    assert refcheck.check_flops(tracer.flops, counter.flops)[0]
    assert not refcheck.check_flops(tracer.flops + 1, counter.flops)[0]
    assert len(tracer.steps) == run.steps_per_epoch
    medians = tracer.medians()
    assert (medians["gradcore.useful_grad_share"] == 1.0) == share_is_one
    assert medians["gradcore.conv0.bwd_ms"] > 0 and medians["trainer.sgd_ms"] > 0


def test_useful_share_counts_the_wasted_input_gradient():
    x = gradcore.Tensor(np.ones((1, 1, 4, 4)))
    w = gradcore.Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
    loss = gradcore.sum_all(gradcore.conv2d(x, w))
    # conv2d returns 16 entries for x (wasted) and 9 for w; sum_all's 4 reach w
    assert useful_grad_share(loss) == (9 + 4) / (16 + 9 + 4)
