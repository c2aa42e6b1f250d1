"""Model construction, forward contracts, standardization, and the
equivalence of frozen standardizing tables with the plain baseline."""

import numpy as np
import pytest

from lookupvnet import gradcore
from lookupvnet.data import make_synthetic
from lookupvnet.gradcore import ShapeMismatchError, Tensor, backward, softmax_cross_entropy
from lookupvnet.lookup import init_tables, lookup, lookup_backward
from lookupvnet.network import (
    ChannelStats,
    ConvSpec,
    ModelConfig,
    StandardizeStage,
    build_model,
    forward,
    standardize,
    standardizing_tables,
)


def small_config(input_channels=3, seed=0, filters=(4, 8), size=(12, 12)):
    blocks = tuple(ConvSpec(kernel=3, filters=j, pool=True) for j in filters)
    return ModelConfig(
        input_channels=input_channels,
        conv_blocks=blocks,
        head_width=16,
        class_count=5,
        input_size=size,
        seed=seed,
    )


class TestBuildModel:
    def test_first_kernel_shape_tracks_input_channels(self):
        model = build_model(small_config(input_channels=6))
        assert model.params["conv0.w"].data.shape == (4, 6, 3, 3)

    def test_same_seed_bit_identical(self):
        a = build_model(small_config(seed=3))
        b = build_model(small_config(seed=3))
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a = build_model(small_config(seed=3))
        b = build_model(small_config(seed=4))
        assert not np.array_equal(a.params["conv0.w"].data, b.params["conv0.w"].data)

    def test_param_count_delta_for_wider_input(self):
        # first layer k=3, j=16: u=2 vs u=1 adds k*k*3*(u-1)*j = 432 weights
        def count(channels):
            cfg = ModelConfig(
                input_channels=channels,
                conv_blocks=(ConvSpec(kernel=3, filters=16, pool=True),),
                head_width=8,
                class_count=10,
                input_size=(12, 12),
                seed=0,
            )
            return build_model(cfg).param_count()

        assert count(6) - count(3) == 3 * 3 * 3 * 16

    def test_pooling_below_1x1_rejected(self):
        cfg = small_config(filters=(4, 4, 4, 4), size=(8, 8))
        with pytest.raises(ValueError, match="below 1x1"):
            build_model(cfg)

    def test_biases_start_at_zero(self):
        model = build_model(small_config())
        assert np.all(model.params["hidden.b"].data == 0.0)
        assert np.all(model.params["out.b"].data == 0.0)


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = build_model(small_config())
        for tensor in model.params.values():
            tensor.data = np.zeros_like(tensor.data)
        logits = forward(model, Tensor(np.random.default_rng(0).normal(size=(2, 3, 12, 12))))
        assert np.all(logits.data == 0.0)

    def test_duplicated_image_gives_identical_rows(self):
        model = build_model(small_config())
        image = np.random.default_rng(1).normal(size=(3, 12, 12))
        logits = forward(model, Tensor(np.stack([image, image])))
        assert np.array_equal(logits.data[0], logits.data[1])

    def test_channel_mismatch_rejected(self):
        model = build_model(small_config(input_channels=3))
        with pytest.raises(ShapeMismatchError, match="input"):
            forward(model, Tensor(np.zeros((1, 6, 12, 12))))

    def test_logit_shape(self):
        model = build_model(small_config())
        logits = forward(model, Tensor(np.zeros((7, 3, 12, 12))))
        assert logits.data.shape == (7, 5)


class TestReluAfterPool:
    """forward pools before its relu; that must give the bits of relu then pool."""

    @staticmethod
    def relu_then_pool(model, x):
        cfg = model.config
        h = x
        for i, block in enumerate(cfg.conv_blocks):
            h = gradcore.relu(gradcore.conv2d(h, model.params[f"conv{i}.w"], stride=block.stride))
            if block.pool:
                h = gradcore.max_pool2d(h, window=cfg.pool_window)
        h = gradcore.reshape(h, (h.data.shape[0], -1))
        h = gradcore.relu(gradcore.dense(h, model.params["hidden.w"], model.params["hidden.b"]))
        return gradcore.dense(h, model.params["out.w"], model.params["out.b"])

    @pytest.mark.parametrize("input_channels", [3, 12], ids=["baseline-or-u1", "u4"])
    def test_desk_shapes_match_relu_then_pool(self, input_channels):
        # the desk model: 32x32 input, conv blocks 8/16/16 each pooled
        cfg = ModelConfig(
            input_channels=input_channels,
            conv_blocks=tuple(ConvSpec(kernel=3, filters=j, pool=True) for j in (8, 16, 16)),
            head_width=64,
            class_count=10,
            input_size=(32, 32),
            seed=5,
        )
        model = build_model(cfg)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(8, input_channels, 32, 32)), requires_grad=True)
        labels = rng.integers(0, 10, size=8)

        logits = forward(model, x)
        reference = self.relu_then_pool(model, x)
        assert logits.data.tobytes() == reference.data.tobytes()

        grads = backward(softmax_cross_entropy(logits, labels))
        want = backward(softmax_cross_entropy(reference, labels))
        for leaf in (x, *model.params.values()):
            assert np.array_equal(grads[leaf], want[leaf])


class TestPlaneMajorInput:
    """lookup returns an [N, 3u, H, W] view of a plane-major array; conv0
    must read it as it reads a contiguous copy."""

    @pytest.mark.parametrize("kind,value", [("full", 4), ("compressed", 16)])
    def test_lookup_view_matches_contiguous_copy(self, kind, value):
        # the desk model: at u=4 conv0 unrolls 2 images per block, so 5 images make 3 blocks
        tables = init_tables(kind, value, seed=3)
        cfg = ModelConfig(
            input_channels=tables.output_channels,
            conv_blocks=tuple(ConvSpec(kernel=3, filters=j, pool=True) for j in (8, 16, 16)),
            head_width=64,
            class_count=10,
            input_size=(32, 32),
            seed=5,
        )
        model = build_model(cfg)
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, size=(5, 3, 32, 32)).astype(np.uint8)
        labels = rng.integers(0, 10, size=5)
        result = lookup(images, tables)
        assert not result.values.data.flags.c_contiguous
        copy = Tensor(np.ascontiguousarray(result.values.data), requires_grad=True)

        logits = forward(model, result.values)
        want_logits = forward(model, copy)
        assert logits.data.tobytes() == want_logits.data.tobytes()
        grads = backward(softmax_cross_entropy(logits, labels))
        want = backward(softmax_cross_entropy(want_logits, labels))
        for param in model.params.values():
            assert grads[param].tobytes() == want[param].tobytes()
        for table, grad in zip(tables.tables, lookup_backward(want[copy], result.indices, tables)):
            assert grads[table].tobytes() == grad.tobytes()


class TestStandardize:
    def test_constant_image_with_dataset_stats(self):
        stats = ChannelStats(mean=[10.0, 10.0, 10.0], std=[5.0, 5.0, 5.0])
        image = np.full((3, 2, 2), 20, dtype=np.uint8)
        out = standardize(image, stats).data
        assert np.all(out == 2.0)

    def test_image_equal_to_mean_with_guard_gives_zeros(self):
        image = np.full((3, 4, 4), 7, dtype=np.uint8)
        stats = ChannelStats.of_image(image, eps=1e-8)
        assert np.all(standardize(image, stats).data == 0.0)

    def test_zero_std_without_guard_rejected(self):
        image = np.full((3, 4, 4), 7, dtype=np.uint8)
        stats = ChannelStats.of_image(image, eps=0.0)
        with pytest.raises(ValueError, match="zero standard deviation"):
            standardize(image, stats)

    def test_per_image_mode_recenters_and_rescales(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint8)
        out = standardize(image, ChannelStats.of_image(image)).data
        for ch in range(3):
            assert abs(out[ch].mean()) < 1e-9
            assert abs(out[ch].std() - 1.0) < 1e-9

    @staticmethod
    def naive(pixels, stats):
        """(pixel - mean) / std computed pixel by pixel on a float64 copy."""
        pixels = pixels.astype(np.float64)
        std = stats.effective_std()
        if pixels.ndim == 3:
            return (pixels - stats.mean[:, None, None]) / std[:, None, None]
        return (pixels - stats.mean[None, :, None, None]) / std[None, :, None, None]

    @pytest.mark.parametrize("shape", [(3, 7, 5), (9, 3, 4, 6), (2, 3, 32, 32)], ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_formula_bit_for_bit(self, shape, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
        for stats in (
            ChannelStats(rng.uniform(0, 255, 3), rng.uniform(0.1, 100, 3)),
            ChannelStats(rng.uniform(0, 255, 3), [0.0, 3.0, 70.0], eps=1e-8),
            ChannelStats.from_images(pixels if pixels.ndim == 4 else pixels[None]),
        ):
            out = standardize(pixels, stats).data
            assert out.shape == shape and out.tobytes() == self.naive(pixels, stats).tobytes()

    @pytest.mark.parametrize("per_image", [False, True], ids=["dataset-stats", "per-image"])
    @pytest.mark.parametrize("bad", [2.5, 300, np.nan], ids=str)
    def test_non_byte_pixels_rejected_as_lookup_rejects_them(self, bad, per_image):
        images = np.full((2, 3, 4, 4), 7.0)
        images[1, 0, 2, 3] = bad
        stats = ChannelStats([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        with pytest.raises(ValueError) as from_lookup:
            lookup(images, init_tables("full", 1, seed=0))
        assert "(1, 0, 2, 3)" in str(from_lookup.value)
        for code in (lambda: StandardizeStage(stats=stats, per_image=per_image).apply(images),
                     lambda: standardize(images, stats)):
            with pytest.raises(ValueError) as from_stage:
                code()
            assert str(from_stage.value) == str(from_lookup.value)

    def test_stage_batches_per_image(self):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(4, 3, 8, 8)).astype(np.uint8)
        stage = StandardizeStage(per_image=True)
        coded = stage.apply(images).data
        single = standardize(images[2], ChannelStats.of_image(images[2], eps=1e-8)).data
        assert np.allclose(coded[2], single)


class TestChannelStats:
    """The stats reduce the bytes themselves; the bits must be those of
    reducing a float64 copy of them."""

    @staticmethod
    def all_values(shape):
        # every byte value at least once in each channel
        values = np.resize(np.arange(256, dtype=np.uint8), (shape[0] * shape[-2] * shape[-1], 3))
        return np.random.default_rng(0).permuted(values, axis=0).T.reshape(3, shape[0], *shape[-2:])

    @staticmethod
    def assert_bits_of_float_copy(stats, images, axes):
        pixels = images.astype(np.float64)
        assert stats.mean.tobytes() == pixels.mean(axis=axes).tobytes()
        assert stats.std.tobytes() == pixels.std(axis=axes).tobytes()

    @pytest.mark.parametrize(
        "shape", [(1, 3, 1, 1), (7, 3, 5, 3), (13, 3, 31, 17), (64, 3, 32, 32), (500, 3, 32, 32)], ids=str
    )
    def test_dataset_stats_match_float_copy(self, shape):
        rng = np.random.default_rng(sum(shape))
        sets = [rng.integers(0, 256, size=shape).astype(np.uint8)]
        if shape[0] * shape[2] * shape[3] >= 256:
            sets.append(np.ascontiguousarray(self.all_values(shape).transpose(1, 0, 2, 3)))
        for images in sets:
            self.assert_bits_of_float_copy(ChannelStats.from_images(images), images, (0, 2, 3))

    @pytest.mark.parametrize("per_class", [7, 64])
    @pytest.mark.parametrize("kind", ["separable", "striped"])
    def test_palette_set_stats_match_float_copy(self, kind, per_class):
        images = make_synthetic(kind, per_class, 10, 32, 32, seed=per_class).images
        self.assert_bits_of_float_copy(ChannelStats.from_images(images), images, (0, 2, 3))

    @pytest.mark.parametrize("size", [(1, 1), (5, 3), (31, 17), (32, 32)], ids=str)
    def test_image_stats_match_float_copy(self, size):
        rng = np.random.default_rng(size[0])
        images = [rng.integers(0, 256, size=(3, *size)).astype(np.uint8)]
        if size[0] * size[1] >= 256:
            images.append(np.ascontiguousarray(self.all_values((1, 3, *size))[:, 0]))
        for image in images:
            self.assert_bits_of_float_copy(ChannelStats.of_image(image), image, (1, 2))


class TestBaselineEquivalence:
    def test_frozen_standardizing_tables_match_baseline_logits(self):
        """u=1 tables at t[v]=(v-mean)/std equal the standard net exactly."""
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(20, 3, 12, 12)).astype(np.uint8)
        stats = ChannelStats.from_images(images, eps=1e-8)

        model = build_model(small_config(seed=7))
        tables = standardizing_tables(stats)

        baseline_in = StandardizeStage(stats=stats).apply(images)
        table_in = lookup(images, tables).values
        assert np.array_equal(baseline_in.data, table_in.data)
        baseline_logits = forward(model, baseline_in).data
        table_logits = forward(model, table_in).data
        assert np.array_equal(baseline_logits, table_logits)

    def test_architecture_parity_only_first_layer_changes(self):
        base = build_model(small_config(input_channels=3, seed=0))
        wide = build_model(small_config(input_channels=9, seed=0))
        for name in base.params:
            if name == "conv0.w":
                assert base.params[name].data.shape[1] == 3
                assert wide.params[name].data.shape[1] == 9
            else:
                assert base.params[name].data.shape == wide.params[name].data.shape


class TestClone:
    def test_clone_is_deep(self):
        model = build_model(small_config())
        twin = model.clone()
        twin.params["out.b"].data = twin.params["out.b"].data + 1.0
        assert np.all(model.params["out.b"].data == 0.0)
