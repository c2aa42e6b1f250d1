"""Optimizer rule, the three training strategies, evaluation, the
checkpoint format, and the metrics log."""

import hashlib
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lookupvnet import trainer
from lookupvnet.data import LabeledImageSet, batch_iter, make_synthetic
from lookupvnet.gradcore import Tensor, softmax_cross_entropy
from lookupvnet.lookup import init_tables
from lookupvnet.network import ChannelStats, ConvSpec, ModelConfig, StandardizeStage, build_model, forward
from lookupvnet.trainer import (
    OptimState,
    TrainingDiverged,
    TrainPlan,
    _eval_loss_acc,
    _pack_rng,
    _unpack_rng,
    checkpoint_sections,
    evaluate,
    read_checkpoint,
    restore_model,
    restore_stage,
    save_checkpoint,
    sgd_step,
    train_cross_network,
    train_cross_task,
    train_single,
    write_checkpoint,
)

FIXED_CLOCK = lambda: 0.0  # noqa: E731 - keeps CSV byte-comparable


def tiny_config(input_channels, class_count=2, size=(8, 8), seed=0, filters=(8,)):
    return ModelConfig(
        input_channels=input_channels,
        conv_blocks=tuple(ConvSpec(kernel=3, filters=j, pool=True) for j in filters),
        head_width=32,
        class_count=class_count,
        input_size=size,
        seed=seed,
    )


def tiny_setup(seed=0, u=1, class_count=2):
    tables = init_tables("full", u, seed=seed + 100)
    model = build_model(tiny_config(3 * u, class_count=class_count, seed=seed))
    return model, tables


def poisoned_row_sets(tables, seed):
    """A 2-class train set, and a copy whose first image reads green row 100,
    which lies between the two color bands; that row is set to inf."""
    data = make_synthetic("separable", 8, 2, 8, 8, seed=seed)
    assert not np.any(data.images[:, 1] == 100)
    test = make_synthetic("separable", 8, 2, 8, 8, seed=seed)
    test.images[0, 1, 0, 0] = 100
    tables.tables[1].data[100] = np.inf
    return data, test


class TestSgdStep:
    def test_momentum_zero_is_plain_descent(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step({"model/p": p}, {"model/p": np.array([1.0, -1.0])}, state)
        assert np.allclose(p.data, [0.9, 2.1])

    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        state = OptimState(lr=0.5, momentum=0.9, weight_decay=0.0)
        for _ in range(3):
            sgd_step({"model/p": p}, {"model/p": np.zeros(1)}, state)
        assert p.data[0] == 3.0

    def test_two_momentum_steps_unrolled_by_hand(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g; total change = lr * g * (1 + 1.9)
        p = Tensor(np.array([0.0]), requires_grad=True)
        g = np.array([2.0])
        state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step({"model/p": p}, {"model/p": g}, state)
        sgd_step({"model/p": p}, {"model/p": g}, state)
        assert abs(p.data[0] - (-0.1 * 2.0 * (1 + 1.9))) < 1e-15

    def test_weight_decay_applies_to_weights_not_tables(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        t = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step({"model/w": w, "tables/r": t},
                 {"model/w": np.zeros(1), "tables/r": np.zeros(1)}, state)
        assert abs(w.data[0] - 0.95) < 1e-15
        assert t.data[0] == 1.0

    def test_decay_tables_flag_enables_table_decay(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.5, decay_tables=True)
        sgd_step({"tables/r": t}, {"tables/r": np.zeros(1)}, state)
        assert abs(t.data[0] - 0.95) < 1e-15

    def test_missing_gradient_means_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimState(lr=0.1, momentum=0.0)
        sgd_step({"model/p": p}, {}, state)
        assert p.data[0] == 1.0

    def test_lr_milestones_divide(self):
        state = OptimState(lr=0.4, lr_milestones=(2, 4), lr_divisor=2.0)
        assert state.lr_at(0) == 0.4
        assert state.lr_at(2) == 0.2
        assert state.lr_at(3) == 0.2
        assert state.lr_at(4) == 0.1


class TestTrainSingle:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model, tables = tiny_setup()
        before = {n: t.data.copy() for n, t in {**model.parameters(), **tables.parameters()}.items()}
        data = make_synthetic("separable", 8, 2, 8, 8, seed=0)
        plan = TrainPlan(epochs=1, batch_size=4, seed=0)
        train_single(model, tables, data, plan, OptimState(lr=0.0), timer=FIXED_CLOCK)
        after = {**model.parameters(), **tables.parameters()}
        for name, values in before.items():
            assert np.array_equal(after[name].data, values)

    def test_linearly_separable_set_reaches_95_percent(self):
        model, tables = tiny_setup(seed=1)
        assert model.param_count() < 4000
        data = make_synthetic("separable", 32, 2, 8, 8, seed=1)
        plan = TrainPlan(epochs=50, batch_size=16, seed=1)
        optim = OptimState(lr=0.05, momentum=0.9, weight_decay=5e-4)
        metrics = train_single(model, tables, data, plan, optim, timer=FIXED_CLOCK)
        assert metrics.rows[-1].train_acc >= 0.95

    def test_frozen_tables_stay_bit_identical(self):
        model, tables = tiny_setup(seed=2)
        before = [t.data.copy() for t in tables.tables]
        data = make_synthetic("separable", 8, 2, 8, 8, seed=2)
        plan = TrainPlan(epochs=2, batch_size=4, seed=2, freeze_tables=True)
        train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)
        for saved, tensor in zip(before, tables.tables):
            assert np.array_equal(saved, tensor.data)

    @pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "learned"])
    def test_table_scatter_runs_only_for_learned_tables(self, freeze, monkeypatch):
        # the package's `lookup` attribute is the function, so reach the module
        lookup_module = sys.modules["lookupvnet.lookup"]
        scatter, calls = lookup_module.lookup_backward, []

        def counted(*args):
            calls.append(args)
            return scatter(*args)

        monkeypatch.setattr(lookup_module, "lookup_backward", counted)
        model, tables = tiny_setup(seed=2)
        data = make_synthetic("separable", 8, 2, 8, 8, seed=2)
        plan = TrainPlan(epochs=1, batch_size=4, seed=2, freeze_tables=freeze)
        train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)
        assert len(calls) == (0 if freeze else 4)

    def test_joint_update_touches_exactly_batch_colors(self):
        model, tables = tiny_setup(seed=3)
        # one batch whose pixels only use colors 10 and 200
        images = np.full((4, 3, 8, 8), 10, dtype=np.uint8)
        images[2:] = 200
        data_set = make_synthetic("separable", 2, 2, 8, 8, seed=3)
        data_set.images, data_set.labels = images, np.array([0, 0, 1, 1])
        before = [t.data.copy() for t in tables.tables]
        plan = TrainPlan(epochs=1, batch_size=4, seed=3)
        train_single(model, tables, data_set, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)
        for saved, tensor in zip(before, tables.tables):
            changed = np.nonzero(np.any(saved != tensor.data, axis=1))[0]
            assert set(changed.tolist()) == {10, 200}

    def test_nan_watchdog_aborts_with_diagnostic(self):
        model, tables = tiny_setup(seed=4)
        model.params["out.b"].data = np.array([np.nan, 0.0])
        data = make_synthetic("separable", 8, 2, 8, 8, seed=4)
        plan = TrainPlan(epochs=10, batch_size=8, seed=4)
        with pytest.raises(TrainingDiverged, match="epoch 0 step 0"):
            train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)

    def test_non_finite_test_loss_stops_training(self):
        # a frozen table row that only the test set reads: every train loss
        # and every trainable parameter stays finite
        model, tables = tiny_setup(seed=4)
        data, test = poisoned_row_sets(tables, seed=4)
        plan = TrainPlan(epochs=3, batch_size=8, seed=4, freeze_tables=True)
        with pytest.raises(TrainingDiverged, match="test loss nan after epoch 0;"):
            train_single(model, tables, data, plan, OptimState(lr=0.05), test_set=test,
                         timer=FIXED_CLOCK)

    def test_non_finite_parameter_is_named(self):
        # a learnable table row that no train pixel reads: the loss stays finite
        model, tables = tiny_setup(seed=4)
        data, _ = poisoned_row_sets(tables, seed=4)
        plan = TrainPlan(epochs=3, batch_size=8, seed=4)
        with pytest.raises(TrainingDiverged, match="parameter tables/g after epoch 0"):
            train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)

    def test_frozen_table_is_not_a_trainable_parameter(self):
        model, tables = tiny_setup(seed=4)
        data, _ = poisoned_row_sets(tables, seed=4)
        plan = TrainPlan(epochs=2, batch_size=8, seed=4, freeze_tables=True)
        train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)

    def test_run_without_test_set_keeps_nan_placeholder(self):
        model, tables = tiny_setup(seed=5)
        data = make_synthetic("separable", 8, 2, 8, 8, seed=5)
        plan = TrainPlan(epochs=2, batch_size=4, seed=5)
        metrics = train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)
        assert all(np.isnan(r.test_loss) and np.isnan(r.test_acc) for r in metrics.rows)

    def test_seeded_runs_produce_identical_metrics(self):
        results = []
        for _ in range(2):
            model, tables = tiny_setup(seed=5)
            data = make_synthetic("separable", 8, 2, 8, 8, seed=5)
            plan = TrainPlan(epochs=3, batch_size=4, seed=5)
            metrics = train_single(model, tables, data, plan, OptimState(lr=0.05),
                                   test_set=data, timer=FIXED_CLOCK)
            results.append(metrics.csv_lines())
        assert results[0] == results[1]


class TestEvaluate:
    def test_constant_predictor_scores_class_frequency(self):
        model, tables = tiny_setup(seed=6, class_count=10)
        model = build_model(tiny_config(3, class_count=10, seed=6))
        for tensor in model.params.values():
            tensor.data = np.zeros_like(tensor.data)
        model.params["out.b"].data = np.arange(10, dtype=np.float64)  # always argmax 9
        data = make_synthetic("separable", 10, 10, 8, 8, seed=6)
        assert evaluate(model, tables, data) == 0.10

    def test_memorizer_scores_one_on_its_train_set(self):
        model, tables = tiny_setup(seed=7)
        data = make_synthetic("separable", 8, 2, 8, 8, seed=7)
        plan = TrainPlan(epochs=40, batch_size=8, seed=7)
        train_single(model, tables, data, plan, OptimState(lr=0.05, momentum=0.9),
                     timer=FIXED_CLOCK)
        assert evaluate(model, tables, data) == 1.0

    def test_rate_256_accuracy_is_single_class_frequency(self):
        tables = init_tables("compressed", 256, seed=8)
        model = build_model(tiny_config(3, class_count=10, seed=8))
        data = make_synthetic("separable", 6, 10, 8, 8, seed=8)
        plan = TrainPlan(epochs=2, batch_size=10, seed=8)
        train_single(model, tables, data, plan, OptimState(lr=0.05), timer=FIXED_CLOCK)
        acc = evaluate(model, tables, data)
        logits = None
        from lookupvnet.network import forward

        logits = forward(model, tables.apply(data.images)).data
        predicted = np.unique(logits.argmax(axis=1))
        assert len(predicted) == 1
        frequency = np.mean(data.labels == predicted[0])
        assert acc == frequency


def taped_loss_acc(model, stage, dataset, batch_size=256):
    """The scoring loop with a full tape, as it ran before tape-free scoring."""
    total_loss, hits = 0.0, 0
    for images, labels in batch_iter(dataset, batch_size):
        logits = forward(model, stage.apply(images))
        assert logits.parents  # the reference really records a graph
        total_loss += float(softmax_cross_entropy(logits, labels).data) * len(labels)
        hits += int((logits.data.argmax(axis=1) == labels).sum())
    return total_loss / len(dataset), hits / len(dataset)


def scoring_stage(kind, data):
    if kind == "baseline":
        return StandardizeStage(stats=ChannelStats.from_images(data.images, eps=1e-8), eps=1e-8)
    return init_tables(kind, 4 if kind == "full" else 16, seed=52)


class TestTapeFreeScoring:
    @pytest.mark.parametrize("kind", ["full", "compressed", "baseline"])
    def test_loss_and_accuracy_match_the_taped_loop_bit_for_bit(self, kind):
        # 300 images: one batch of 256 and a ragged one of 44
        data = make_synthetic("striped", 100, 3, 16, 16, seed=51)
        stage = scoring_stage(kind, data)
        model = build_model(tiny_config(stage.output_channels, class_count=3, size=(16, 16),
                                        seed=53, filters=(8, 16)))
        train_single(model, stage, data, TrainPlan(epochs=1, batch_size=32, seed=54),
                     OptimState(lr=0.01, momentum=0.9), timer=FIXED_CLOCK)
        want = taped_loss_acc(model, stage, data)
        got = _eval_loss_acc(model, stage, data)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert evaluate(model, stage, data) == want[1]

    def test_scoring_records_no_graph(self, monkeypatch):
        model, tables = tiny_setup(seed=55)
        seen = []

        def spy(logits, labels):
            seen.append(logits)
            return softmax_cross_entropy(logits, labels)

        monkeypatch.setattr(trainer, "softmax_cross_entropy", spy)
        evaluate(model, tables, make_synthetic("separable", 4, 2, 8, 8, seed=55))
        assert seen and all(z.parents == () and z.vjp is None for z in seen)
        # training still records its tape
        train_single(model, tables, make_synthetic("separable", 2, 2, 8, 8, seed=55),
                     TrainPlan(epochs=1, batch_size=4, seed=55), OptimState(lr=0.01), timer=FIXED_CLOCK)
        assert seen[-1].parents

    def test_desk_scoring_peak_memory(self):
        # The acceptance desk model at u=4 over 500 test images. With a tape,
        # every activation of a 256-image batch stays alive until the next
        # batch's tape replaces it, and the peak was about 121 MiB.
        rng = np.random.default_rng(56)
        data = LabeledImageSet(rng.integers(0, 256, (500, 3, 32, 32)), rng.integers(0, 10, 500), 10)
        tables = init_tables("full", 4, seed=57)
        config = ModelConfig(
            input_channels=12,
            conv_blocks=tuple(ConvSpec(kernel=3, filters=j, pool=True) for j in (8, 16, 16)),
            head_width=64,
            class_count=10,
            input_size=(32, 32),
            seed=58,
        )
        model = build_model(config)
        tracemalloc.start()
        try:
            evaluate(model, tables, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"evaluate peaked at {peak / 2**20:.1f} MiB"


class TestCrossStrategies:
    def test_zero_lr_alternation_is_a_no_op(self):
        model_f, tables = tiny_setup(seed=9)
        model_g = build_model(tiny_config(3, seed=10))
        data = make_synthetic("separable", 8, 2, 8, 8, seed=9)
        plan = TrainPlan(epochs=1, batch_size=4, seed=9)
        snapshot = {
            name: t.data.copy()
            for name, t in {**model_f.parameters(), **model_g.parameters(), **tables.parameters()}.items()
        }
        train_cross_network(model_f, model_g, tables, data, plan,
                            OptimState(lr=0.0), OptimState(lr=0.0), timer=FIXED_CLOCK)
        current = {**model_f.parameters(), **model_g.parameters(), **tables.parameters()}
        for name, values in snapshot.items():
            assert np.array_equal(current[name].data, values)

    def test_zero_lr_g_freezes_g_while_f_learns(self):
        model_f, tables = tiny_setup(seed=11)
        model_g = build_model(tiny_config(3, seed=12))
        data = make_synthetic("separable", 8, 2, 8, 8, seed=11)
        plan = TrainPlan(epochs=2, batch_size=4, seed=11)
        g_before = {n: t.data.copy() for n, t in model_g.parameters().items()}
        f_before = {n: t.data.copy() for n, t in model_f.parameters().items()}
        train_cross_network(model_f, model_g, tables, data, plan,
                            OptimState(lr=0.05), OptimState(lr=0.0), timer=FIXED_CLOCK)
        assert all(np.array_equal(model_g.params[n].data, v) for n, v in g_before.items())
        assert any(not np.array_equal(model_f.params[n].data, v) for n, v in f_before.items())

    def test_diverging_net_is_named(self):
        model_f, tables = tiny_setup(seed=9)
        model_g = build_model(tiny_config(3, seed=10))
        data, test_q = poisoned_row_sets(tables, seed=9)
        plan = TrainPlan(epochs=2, batch_size=4, seed=9, freeze_tables=True)
        with pytest.raises(TrainingDiverged, match="test loss nan after epoch 0 net g;"):
            train_cross_task(model_f, model_g, tables, data, data, plan, OptimState(lr=0.05),
                             OptimState(lr=0.05), test_p=data, test_q=test_q, timer=FIXED_CLOCK)

    def test_alternation_isolation_per_step(self):
        model_f, tables = tiny_setup(seed=13)
        model_g = build_model(tiny_config(3, seed=14))
        data = make_synthetic("separable", 8, 2, 8, 8, seed=13)
        plan = TrainPlan(epochs=1, batch_size=4, seed=13)

        snapshots = {}
        violations = []
        table_moved = {"f": False, "g": False}

        def hook(phase, step):
            which, name = phase.split("_")
            other = "g" if name == "f" else "f"
            other_model = model_g if other == "g" else model_f
            if which == "before":
                snapshots["other"] = {n: t.data.copy() for n, t in other_model.parameters().items()}
                snapshots["tables"] = [t.data.copy() for t in tables.tables]
            else:
                for n, t in other_model.parameters().items():
                    if not np.array_equal(snapshots["other"][n], t.data):
                        violations.append((phase, step, n))
                if any(not np.array_equal(s, t.data)
                       for s, t in zip(snapshots["tables"], tables.tables)):
                    table_moved[name] = True

        train_cross_network(model_f, model_g, tables, data, plan,
                            OptimState(lr=0.05), OptimState(lr=0.05),
                            timer=FIXED_CLOCK, step_hook=hook)
        assert violations == []
        assert table_moved["f"] and table_moved["g"]

    def test_shared_tables_differ_from_single_network_tables(self):
        data = make_synthetic("separable", 8, 2, 8, 8, seed=15)
        plan = TrainPlan(epochs=2, batch_size=4, seed=15)

        model_single, tables_single = tiny_setup(seed=15)
        train_single(model_single, tables_single, data, plan, OptimState(lr=0.05),
                     timer=FIXED_CLOCK)

        model_f, tables_cross = tiny_setup(seed=15)
        model_g = build_model(tiny_config(3, seed=16))
        train_cross_network(model_f, model_g, tables_cross, data, plan,
                            OptimState(lr=0.05), OptimState(lr=0.05), timer=FIXED_CLOCK)
        assert any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(tables_single.tables, tables_cross.tables)
        )

    def test_cross_task_accepts_different_class_counts(self):
        tables = init_tables("full", 1, seed=17)
        model_f = build_model(tiny_config(3, class_count=2, seed=17))
        model_g = build_model(tiny_config(3, class_count=3, seed=18))
        task_p = make_synthetic("separable", 6, 2, 8, 8, seed=17)
        task_q = make_synthetic("separable", 6, 3, 8, 8, seed=18)
        plan = TrainPlan(epochs=1, batch_size=4, seed=17)
        metrics_f, metrics_g = train_cross_task(
            model_f, model_g, tables, task_p, task_q, plan,
            OptimState(lr=0.05), OptimState(lr=0.05), timer=FIXED_CLOCK,
        )
        assert len(metrics_f.rows) == 1 and len(metrics_g.rows) == 1

    def test_two_disjoint_tasks_both_learn_with_shared_tables(self):
        tables = init_tables("full", 1, seed=19)
        model_f = build_model(tiny_config(3, class_count=2, seed=19))
        model_g = build_model(tiny_config(3, class_count=2, seed=20))
        task_p = make_synthetic("separable", 24, 2, 8, 8, seed=19)
        task_q = make_synthetic("striped", 24, 2, 8, 8, seed=20)
        plan = TrainPlan(epochs=40, batch_size=12, seed=19)
        metrics_f, metrics_g = train_cross_task(
            model_f, model_g, tables, task_p, task_q, plan,
            OptimState(lr=0.05, momentum=0.9), OptimState(lr=0.05, momentum=0.9),
            timer=FIXED_CLOCK,
        )
        assert metrics_f.rows[-1].train_acc >= 0.9
        assert metrics_g.rows[-1].train_acc >= 0.9

    def test_alternation_granularity(self):
        tables = init_tables("full", 1, seed=30)
        model_f = build_model(tiny_config(3, seed=30))
        model_g = build_model(tiny_config(3, seed=31))
        data = make_synthetic("separable", 8, 2, 8, 8, seed=30)  # 16 images
        plan = TrainPlan(epochs=1, batch_size=4, seed=30, alternation_steps=2)
        order = []
        train_cross_network(model_f, model_g, tables, data, plan,
                            OptimState(lr=0.0), OptimState(lr=0.0), timer=FIXED_CLOCK,
                            step_hook=lambda phase, step: order.append(phase)
                            if phase.startswith("after") else None)
        assert order == ["after_f", "after_f", "after_g", "after_g"] * 2

    def test_cross_task_on_identical_tasks_equals_cross_network(self):
        data = make_synthetic("separable", 8, 2, 8, 8, seed=32)

        def run(loop):
            tables = init_tables("full", 1, seed=33)
            model_f = build_model(tiny_config(3, seed=33))
            model_g = build_model(tiny_config(3, seed=34))
            plan = TrainPlan(epochs=2, batch_size=4, seed=33)
            if loop == "network":
                train_cross_network(model_f, model_g, tables, data, plan,
                                    OptimState(lr=0.05), OptimState(lr=0.05), timer=FIXED_CLOCK)
            else:
                train_cross_task(model_f, model_g, tables, data, data, plan,
                                 OptimState(lr=0.05), OptimState(lr=0.05), timer=FIXED_CLOCK)
            return {**{f"f/{n}": t for n, t in model_f.parameters().items()},
                    **{f"g/{n}": t for n, t in model_g.parameters().items()},
                    **tables.parameters()}

        net, task = run("network"), run("task")
        for name in net:
            assert np.array_equal(net[name].data, task[name].data)

    def test_table_channel_mismatch_rejected(self):
        tables = init_tables("full", 2, seed=21)  # 6 channels
        model_f = build_model(tiny_config(3, seed=21))
        model_g = build_model(tiny_config(3, seed=22))
        data = make_synthetic("separable", 4, 2, 8, 8, seed=21)
        plan = TrainPlan(epochs=1, batch_size=4, seed=21)
        with pytest.raises(Exception, match="channels"):
            train_cross_network(model_f, model_g, tables, data, plan,
                                OptimState(lr=0.0), OptimState(lr=0.0), timer=FIXED_CLOCK)


class TestMetricsCsv:
    def test_header_and_rows(self, tmp_path):
        model, tables = tiny_setup(seed=23)
        data = make_synthetic("separable", 4, 2, 8, 8, seed=23)
        plan = TrainPlan(epochs=2, batch_size=4, seed=23)
        metrics = train_single(model, tables, data, plan, OptimState(lr=0.01),
                               test_set=data, timer=FIXED_CLOCK)
        path = tmp_path / "metrics.csv"
        metrics.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,split,loss,accuracy,seconds"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("0,train,")
        assert lines[2].startswith("0,test,")


class TestCheckpoint:
    @pytest.mark.parametrize("missing", ["meta/model", "model/hidden.w", "meta/stage", "tables/g"])
    def test_missing_section_is_named(self, missing):
        model, tables = tiny_setup(seed=15)
        sections = checkpoint_sections(model, tables)
        del sections[missing]
        restore = restore_stage if missing in ("meta/stage", "tables/g") else restore_model
        with pytest.raises(ValueError, match=f"no section '{missing}'"):
            restore(sections)

    def test_missing_baseline_stats_section_is_named(self):
        stage = StandardizeStage(stats=ChannelStats([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))
        model = build_model(tiny_config(3, seed=15))
        sections = checkpoint_sections(model, stage)
        del sections["stage/std"]
        with pytest.raises(ValueError, match="no section 'stage/std'"):
            restore_stage(sections)

    def test_round_trip_sections(self, tmp_path):
        path = tmp_path / "ck.lvnc"
        sections = {
            "alpha": np.arange(6, dtype=np.float64).reshape(2, 3),
            "beta/gamma": np.array([1.5]),
            "scalar": np.array(2.0),
        }
        write_checkpoint(path, sections)
        loaded = read_checkpoint(path)
        assert list(loaded) == list(sections)
        for name in sections:
            assert np.array_equal(loaded[name], sections[name])

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=12),
            arrays(
                np.float64,
                array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                elements=st.floats(width=64) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            ),
            max_size=4,
        )
    )
    def test_round_trip_is_bit_identical(self, sections):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.lvnc"
            write_checkpoint(path, sections)
            loaded = read_checkpoint(path)
        assert list(loaded) == list(sections)
        for name, array in sections.items():
            assert loaded[name].shape == array.shape
            assert loaded[name].tobytes() == array.tobytes()

    @pytest.mark.parametrize("section", ["meta/model", "meta/stage"])
    def test_overlong_meta_section_is_rejected(self, section):
        model, tables = tiny_setup(seed=15)
        sections = checkpoint_sections(model, tables)
        want = len(sections[section])
        sections[section] = np.append(sections[section], 0.0)
        restore = restore_model if section == "meta/model" else restore_stage
        with pytest.raises(ValueError, match=f"'{section}' holds {want + 1} values but needs {want}"):
            restore(sections)

    @pytest.mark.parametrize(
        "section,index,value,baseline",
        [("meta/model", 0, np.inf, False), ("meta/model", 7, np.nan, False), ("meta/model", 3, 2.5, False),
         ("meta/stage", 1, -np.inf, False), ("meta/stage", 1, 1.5, False), ("meta/stage", 1, np.nan, True),
         ("meta/stage", 2, np.inf, True)],
        ids=["model-inf", "model-nan-blocks", "model-fraction", "tables-inf", "tables-fraction",
             "baseline-flag-nan", "baseline-eps-inf"],
    )
    def test_bad_meta_value_is_named(self, section, index, value, baseline):
        if baseline:
            model = build_model(tiny_config(3, seed=15))
            sections = checkpoint_sections(model, StandardizeStage(per_image=True, eps=1e-8))
        else:
            sections = checkpoint_sections(*tiny_setup(seed=15))
        sections[section] = sections[section].copy()
        sections[section][index] = value
        restore = restore_model if section == "meta/model" else restore_stage
        with pytest.raises(ValueError, match=f"'{section}' value {index} is {value}"):
            restore(sections)

    def test_magic_and_version_checked(self, tmp_path):
        path = tmp_path / "bad.lvnc"
        path.write_bytes(b"NOPE\x01")
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)
        path.write_bytes(b"LVNC\x09")
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def test_truncated_file_names_path_section_and_offset(self, tmp_path):
        path = tmp_path / "ck.lvnc"
        write_checkpoint(path, {"alpha": np.arange(6, dtype=np.float64).reshape(2, 3), "beta": np.ones(4)})
        blob = path.read_bytes()
        # alpha's payload starts at 5 (magic, version) + 2 + 5 (name) + 1 (rank) + 8 (shape)
        # = 21 and takes 48 bytes; beta's starts at 69 + 2 + 4 + 1 + 4 = 80
        for cut, section, offset in [(len(blob) - 1, "beta", 80), (30, "alpha", 21), (4, None, 4)]:
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError) as err:
                read_checkpoint(path)
            message = str(err.value)
            assert str(path) in message and f"offset {offset}" in message
            assert section is None or repr(section) in message

    def test_oversized_shape_is_reported_not_wrapped(self, tmp_path):
        # four dims of 2**32 - 1 wrap to a negative int64 element count
        path = tmp_path / "ck.lvnc"
        header = struct.pack("<H", 1) + b"w" + struct.pack("<B4I", 4, *(4 * [2**32 - 1]))
        path.write_bytes(b"LVNC\x01" + header + bytes(16))
        with pytest.raises(ValueError, match=r"payload of section 'w'.*offset 25"):
            read_checkpoint(path)

    def test_every_truncation_fails_with_a_value_error(self, tmp_path):
        path = tmp_path / "ck.lvnc"
        write_checkpoint(path, {"a/b": np.ones((2, 2)), "s": np.array(3.0)})
        blob = path.read_bytes()
        # a cut after the header or after "a/b" (5 + 2 + 3 + 1 + 8 + 32 bytes)
        # leaves a whole, shorter checkpoint
        for cut in sorted(set(range(5, len(blob))) - {5, 51}):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated"):
                read_checkpoint(path)

    def test_model_and_stage_restore_reproduce_accuracy(self, tmp_path):
        model, tables = tiny_setup(seed=24)
        data = make_synthetic("separable", 8, 2, 8, 8, seed=24)
        plan = TrainPlan(epochs=3, batch_size=8, seed=24)
        optim = OptimState(lr=0.05, momentum=0.9)
        train_single(model, tables, data, plan, optim, timer=FIXED_CLOCK)
        want = evaluate(model, tables, data)

        path = tmp_path / "ck.lvnc"
        save_checkpoint(path, model, tables, optim, np.random.default_rng(24))
        sections = read_checkpoint(path)
        got = evaluate(restore_model(sections), restore_stage(sections), data)
        assert got == want

    def test_baseline_checkpoint_has_no_table_sections(self, tmp_path):
        from lookupvnet.network import ChannelStats, StandardizeStage

        model = build_model(tiny_config(3, seed=25))
        data = make_synthetic("separable", 4, 2, 8, 8, seed=25)
        stats = ChannelStats.from_images(data.images, eps=1e-8)
        stage = StandardizeStage(stats=stats, eps=1e-8)
        path = tmp_path / "baseline.lvnc"
        save_checkpoint(path, model, stage)
        sections = read_checkpoint(path)
        assert not any(name.startswith("tables/") for name in sections)
        restored = restore_stage(sections)
        assert restored.kind == "standardize"

    def test_per_image_baseline_stage_round_trip(self, tmp_path):
        from lookupvnet.network import StandardizeStage

        model = build_model(tiny_config(3, seed=29))
        stage = StandardizeStage(per_image=True, eps=1e-8)
        data = make_synthetic("separable", 4, 2, 8, 8, seed=29)
        path = tmp_path / "perimage.lvnc"
        save_checkpoint(path, model, stage)
        sections = read_checkpoint(path)
        restored_stage = restore_stage(sections)
        assert restored_stage.per_image and restored_stage.eps == 1e-8
        want = evaluate(model, stage, data)
        assert evaluate(restore_model(sections), restored_stage, data) == want

    def test_compressed_stage_round_trip(self, tmp_path):
        tables = init_tables("compressed", 16, seed=26)
        model = build_model(tiny_config(3, seed=26))
        path = tmp_path / "cmp.lvnc"
        save_checkpoint(path, model, tables)
        restored = restore_stage(read_checkpoint(path))
        assert restored.kind == "compressed" and restored.c == 16
        for a, b in zip(tables.tables, restored.tables):
            assert np.array_equal(a.data, b.data)

    def test_rng_state_pack_round_trip(self):
        rng = np.random.default_rng(27)
        rng.integers(0, 100, size=13)  # advance the stream
        limbs = _pack_rng(rng)
        clone = _unpack_rng(limbs)
        assert np.array_equal(rng.integers(0, 1 << 31, size=8), clone.integers(0, 1 << 31, size=8))

    def test_identical_runs_write_identical_checkpoints(self, tmp_path):
        blobs = []
        for run in range(2):
            model, tables = tiny_setup(seed=28)
            data = make_synthetic("separable", 8, 2, 8, 8, seed=28)
            plan = TrainPlan(epochs=2, batch_size=4, seed=28)
            optim = OptimState(lr=0.05, momentum=0.9)
            train_single(model, tables, data, plan, optim, timer=FIXED_CLOCK)
            path = tmp_path / f"run{run}.lvnc"
            save_checkpoint(path, model, tables, optim, np.random.default_rng(28))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


# sha256 of save_checkpoint output after golden_checkpoint's 2-epoch run.
# A change here means the LVNC bytes moved: table draws, section names or
# order, stage codes, or a payload.
GOLDEN_CHECKPOINTS = {
    ("full", 1): "8977184f7260b424bbb54059863862eb39dfc11b00e504ceb5401443cc182a77",
    ("full", 3): "9d7395016032e1ed1f811eb944095bcd5adbb9685b1fbbc6af9b225c5ac70371",
    ("compressed", 16): "aa41a8ffee269708e2f270f5e3a2e84eef73f7dc6d86fc60aa8c59ac0fdd8b26",
    ("compressed", 1): "3aff2164493922ebde9d6a27faf7befed934bae0149d6f4358d2589d743f6a5b",
    ("standardize", "stats"): "08c4246519f6cf62ad65f519f3677ecf44e69d12231a2a6d4a39ab9f5aca227d",
    ("standardize", "per-image"): "38ecbe98ec32b2d3304b91006f93fffc8191e9b3ecc2f38df84f6768eabfb4c2",
}


def golden_checkpoint(spec, path):
    """Train a seeded 3-class model 2 epochs on spec's stage and save it."""
    data = make_synthetic("striped", 6, 3, 8, 8, seed=41)
    kind, value = spec
    if kind != "standardize":
        stage = init_tables(kind, value, seed=42)
    elif value == "per-image":
        stage = StandardizeStage(per_image=True, eps=1e-8)
    else:
        stage = StandardizeStage(stats=ChannelStats.from_images(data.images, eps=1e-8), eps=1e-8)
    model = build_model(tiny_config(stage.output_channels, class_count=3, seed=43))
    optim = OptimState(lr=0.05, momentum=0.9)
    train_single(model, stage, data, TrainPlan(epochs=2, batch_size=5, seed=44), optim, timer=FIXED_CLOCK)
    save_checkpoint(path, model, stage, optim, np.random.default_rng(45))
    return path.read_bytes()


@pytest.mark.parametrize("spec", list(GOLDEN_CHECKPOINTS), ids=lambda s: f"{s[0]}-{s[1]}")
def test_checkpoint_bytes_match_golden_digest(spec, tmp_path):
    blob = golden_checkpoint(spec, tmp_path / "golden.lvnc")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_CHECKPOINTS[spec]
