"""Dataset loading, augmentation, synthetic generation, and batching."""

import re

import numpy as np
import pytest

from lookupvnet.data import (
    CIFAR10_RECORD,
    AugmentSpec,
    DatasetFormatError,
    LabeledImageSet,
    augment,
    augment_batch,
    balanced_subset,
    batch_iter,
    load_cifar10_binary,
    load_image_set,
    make_synthetic,
    save_image_set,
)


def write_fake_cifar(path, count, seed=0):
    rng = np.random.default_rng(seed)
    records = np.empty((count, CIFAR10_RECORD), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=count)
    records[:, 1:] = rng.integers(0, 256, size=(count, CIFAR10_RECORD - 1))
    records.tofile(path)
    return records


class TestCifarLoader:
    def test_offset_arithmetic(self, tmp_path):
        path = tmp_path / "batch.bin"
        records = write_fake_cifar(path, 2)
        loaded = load_cifar10_binary(path)
        assert len(loaded) == 2
        # pixel (channel 0, row 0, col 0) of record 0 is file byte 1
        assert loaded.images[0, 0, 0, 0] == records[0, 1]
        assert loaded.labels[0] == records[0, 0]
        # first green-plane byte sits 1024 bytes after the first red byte
        assert loaded.images[0, 1, 0, 0] == records[0, 1 + 1024]

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "broken.bin"
        with open(path, "wb") as fh:
            fh.write(bytes(CIFAR10_RECORD + 10))
        with pytest.raises(DatasetFormatError, match=str(CIFAR10_RECORD + 10)):
            load_cifar10_binary(path)

    def test_empty_file_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: holds no records")):
            load_cifar10_binary(path)

    def test_bad_label_reports_record_offset(self, tmp_path):
        path = tmp_path / "badlabel.bin"
        records = np.zeros((3, CIFAR10_RECORD), dtype=np.uint8)
        records[2, 0] = 11
        records.tofile(path)
        with pytest.raises(DatasetFormatError, match=str(2 * CIFAR10_RECORD)):
            load_cifar10_binary(path)

    def test_limit_keeps_prefix(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_fake_cifar(path, 10)
        assert len(load_cifar10_binary(path, limit=4)) == 4


class TestRoundTrip:
    def test_save_then_load_is_byte_exact(self, tmp_path):
        original = make_synthetic("separable", 6, 4, 10, 8, seed=1)
        path = tmp_path / "set.bin"
        save_image_set(original, path)
        loaded = load_image_set(path)
        assert np.array_equal(loaded.images, original.images)
        assert np.array_equal(loaded.labels, original.labels)
        assert loaded.class_count == original.class_count

    def test_corrupt_length_detected(self, tmp_path):
        original = make_synthetic("separable", 2, 2, 4, 4, seed=1)
        path = tmp_path / "set.bin"
        save_image_set(original, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DatasetFormatError):
            load_image_set(path)

    def test_more_than_256_classes_rejected_before_writing(self, tmp_path):
        # the record format stores each label in one byte: 299 would read back as 43
        wide = LabeledImageSet(np.zeros((2, 3, 4, 4), dtype=np.uint8), np.array([0, 299]), 300)
        path = tmp_path / "set.bin"
        with pytest.raises(ValueError, match="300 classes"):
            save_image_set(wide, path)
        assert list(tmp_path.iterdir()) == []

    def test_256_classes_round_trip(self, tmp_path):
        full = LabeledImageSet(np.zeros((2, 3, 4, 4), dtype=np.uint8), np.array([0, 255]), 256)
        path = tmp_path / "set.bin"
        save_image_set(full, path)
        assert load_image_set(path).labels.tolist() == [0, 255]

    @pytest.mark.parametrize(
        "edit,where",
        [
            (lambda text: text.replace("classes=2", "classes=two"), ":1: "),
            (lambda text: text.replace("width=4", "width 4"), ":3: "),
            (lambda text: text.replace("height=4\n", ""), "missing key 'height'"),
        ],
        ids=["bad-value", "no-equals", "missing-key"],
    )
    def test_malformed_sidecar_names_path_and_line_or_key(self, tmp_path, edit, where):
        path = tmp_path / "set.bin"
        save_image_set(make_synthetic("separable", 2, 2, 4, 4, seed=1), path)
        meta = tmp_path / "set.bin.meta"
        meta.write_text(edit(meta.read_text()))
        with pytest.raises(DatasetFormatError) as err:
            load_image_set(path)
        assert str(meta) in str(err.value) and where in str(err.value)


    def test_missing_sidecar_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "set.bin"
        save_image_set(make_synthetic("separable", 2, 2, 4, 4, seed=1), path)
        meta = tmp_path / "set.bin.meta"
        meta.unlink()
        with pytest.raises(DatasetFormatError) as err:
            load_image_set(path)
        assert str(meta) in str(err.value)

    def test_missing_records_file_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "set.bin"
        save_image_set(make_synthetic("separable", 2, 2, 4, 4, seed=1), path)
        path.unlink()
        with pytest.raises(DatasetFormatError) as err:
            load_image_set(path)
        assert str(path) in str(err.value) and "missing" in str(err.value)

    def test_label_beyond_classes_names_path_record_and_offset(self, tmp_path):
        # labels 0, 0, 1, 1: record 2 is the first bad one; records are 1 + 3*4*4 bytes
        path = tmp_path / "set.bin"
        save_image_set(make_synthetic("separable", 2, 2, 4, 4, seed=1), path)
        meta = tmp_path / "set.bin.meta"
        meta.write_text(meta.read_text().replace("classes=2", "classes=1"))
        with pytest.raises(DatasetFormatError) as err:
            load_image_set(path)
        message = str(err.value)
        assert str(path) in message and "record 2" in message and "byte 98" in message


class TestBytePixels:
    # np.asarray(..., dtype=np.uint8) wraps: 300.7 would be stored as 44 and -1 as 255
    @pytest.mark.parametrize("bad", [300.7, -1, 256, 2.5, np.nan, np.inf], ids=str)
    def test_non_byte_pixel_is_rejected_naming_its_position(self, bad):
        images = np.full((2, 3, 2, 2), 7.0)
        images[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match=r"at \(1, 2, 0, 1\)"):
            LabeledImageSet(images, [0, 1], 2)

    def test_first_bad_pixel_is_named(self):
        with pytest.raises(ValueError, match=r"pixel 300\.7 at \(0, 0, 0, 0\)"):
            LabeledImageSet(np.full((1, 3, 2, 2), 300.7), [0], 2)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_whole_values_in_range_are_stored_as_bytes(self, dtype):
        pixels = np.random.default_rng(5).integers(0, 256, (3, 3, 4, 4))
        pixels[0, 0, 0, :2] = (0, 255)
        stored = LabeledImageSet(pixels.astype(dtype), [0, 1, 0], 2).images
        assert stored.dtype == np.uint8 and np.array_equal(stored, pixels)


class TestAugment:
    def test_no_pad_no_flip_is_identity(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(3, 8, 8)).astype(np.uint8)
        spec = AugmentSpec(pad=0, hflip_prob=0.0)
        assert np.array_equal(augment(image, spec, rng), image)

    def test_crop_origin_uniform_over_9x9_positions(self):
        # pad 4 on a 32x32 image leaves (2*4+1)^2 = 81 crop origins;
        # with an all-255 image the zero border rows/cols reveal the origin
        rng = np.random.default_rng(1)
        bright = np.full((1, 3, 32, 32), 255, dtype=np.uint8)
        spec = AugmentSpec(pad=4, hflip_prob=0.0)

        def origin_axis(plane_any):
            lead = int(np.argmax(plane_any)) if plane_any.any() else len(plane_any)
            trail = int(np.argmax(plane_any[::-1])) if plane_any.any() else 0
            return 4 - lead + trail

        seen = set()
        for _ in range(3000):
            out = augment_batch(bright, spec, rng)[0, 0]
            rows = out.any(axis=1)
            cols = out.any(axis=0)
            seen.add((origin_axis(rows), origin_axis(cols)))
        assert seen == {(y, x) for y in range(9) for x in range(9)}

    def test_double_flip_is_identity(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(3, 6, 6)).astype(np.uint8)
        spec = AugmentSpec(pad=0, hflip_prob=1.0)
        once = augment(image, spec, rng)
        twice = augment(once, spec, rng)
        assert np.array_equal(twice, image)

    def test_disabled_spec_is_identity(self):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(4, 3, 8, 8)).astype(np.uint8)
        spec = AugmentSpec(pad=4, hflip_prob=1.0, enabled=False)
        assert augment_batch(images, spec, rng) is images

    # np.asarray(..., dtype=np.uint8) would wrap -1 to 255 and 300 to 44 and
    # truncate 12.7 to 12, and lookup would then accept the wrapped bytes
    @pytest.mark.parametrize("bad", [np.int64(-1), np.int64(300), 12.7], ids=["int-1", "int300", "float12.7"])
    def test_non_byte_pixel_is_rejected_naming_it(self, bad):
        images = np.full((2, 3, 4, 4), 9, dtype=np.asarray(bad).dtype)
        images[1, 0, 2, 3] = bad
        with pytest.raises(ValueError, match=rf"pixel {bad} at \(1, 0, 2, 3\)"):
            augment_batch(images, AugmentSpec(pad=2), np.random.default_rng(6))

    def test_output_stays_byte_and_label_free(self):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(4, 3, 8, 8)).astype(np.uint8)
        out = augment_batch(images, AugmentSpec(pad=2), rng)
        assert out.dtype == np.uint8
        assert out.shape == images.shape


class TestSynthetic:
    def test_two_band_construction_matches_expected_ranges(self):
        dataset = make_synthetic("separable", 8, 2, 6, 6, seed=0)
        class0 = dataset.images[dataset.labels == 0]
        class1 = dataset.images[dataset.labels == 1]
        assert class0.max() < 64
        assert class1.min() >= 192

    def test_seeded_generation_bit_identical(self):
        a = make_synthetic("striped", 5, 3, 8, 8, seed=9)
        b = make_synthetic("striped", 5, 3, 8, 8, seed=9)
        assert np.array_equal(a.images, b.images)

    def test_balanced_label_counts(self):
        dataset = make_synthetic("separable", 10, 10, 4, 4, seed=1)
        assert len(dataset) == 100
        assert np.array_equal(np.bincount(dataset.labels), np.full(10, 10))

    def test_striped_stays_in_class_band(self):
        dataset = make_synthetic("striped", 4, 2, 8, 8, seed=2)
        class0 = dataset.images[dataset.labels == 0]
        assert class0.max() < 64


class TestBalancedSubset:
    def test_counts_and_determinism(self):
        dataset = make_synthetic("separable", 20, 5, 4, 4, seed=0)
        sub_a = balanced_subset(dataset, 3, seed=1)
        sub_b = balanced_subset(dataset, 3, seed=1)
        assert np.array_equal(np.bincount(sub_a.labels), np.full(5, 3))
        assert np.array_equal(sub_a.images, sub_b.images)

    def test_insufficient_class_rejected(self):
        dataset = make_synthetic("separable", 2, 3, 4, 4, seed=0)
        with pytest.raises(ValueError, match="class"):
            balanced_subset(dataset, 5, seed=0)


class TestBatchIter:
    def test_partial_final_batch(self):
        dataset = make_synthetic("separable", 5, 2, 4, 4, seed=0)
        sizes = [len(labels) for _, labels in batch_iter(dataset, 3)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        dataset = make_synthetic("separable", 10, 2, 4, 4, seed=0)
        order_a = [labels.tolist() for _, labels in batch_iter(dataset, 4, shuffle_seed=5)]
        order_b = [labels.tolist() for _, labels in batch_iter(dataset, 4, shuffle_seed=5)]
        assert order_a == order_b

    def test_epoch_is_exact_partition(self):
        dataset = make_synthetic("separable", 7, 3, 4, 4, seed=0)
        seen = np.concatenate([images.reshape(len(images), -1)
                               for images, _ in batch_iter(dataset, 4, shuffle_seed=2)])
        want = dataset.images.reshape(len(dataset), -1)
        assert np.array_equal(np.sort(seen, axis=0), np.sort(want, axis=0))
