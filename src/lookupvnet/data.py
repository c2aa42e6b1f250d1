"""Dataset ingestion, augmentation, and batching.

Handles the CIFAR-10 binary record format (3073-byte records: one label
byte, then 1024 R + 1024 G + 1024 B bytes row-major), synthetic
color-band generators for desk-scale runs, pad/crop/flip augmentation,
and seeded epoch batching. Augmented pixels stay bytes so they remain
valid table indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CIFAR10_RECORD = 3073
CIFAR10_SIDE = 32
CIFAR10_CLASSES = 10


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; message carries the byte offset."""


def byte_pixels(values):
    """values as a uint8 array, or a ValueError naming the first pixel that
    is not a whole number in 0..255; a uint8 array passes unchecked."""
    values = np.asarray(values)
    if values.dtype != np.uint8:
        bad = np.flatnonzero(
            ~np.isfinite(values) | (values != np.round(values)) | (values < 0) | (values > 255)
        )
        if bad.size:
            pos = tuple(int(i) for i in np.unravel_index(bad[0], values.shape))
            raise ValueError(f"pixel {values[pos]} at {pos} is not a byte value 0..255")
        values = values.astype(np.uint8)
    return values


def byte_batch(images):
    """Byte images [N,3,H,W] as uint8; one [3,H,W] image becomes a batch of one."""
    images = np.asarray(images)
    if images.ndim == 3:
        images = images[None]
    if images.ndim != 4 or images.shape[1] != 3:
        raise ValueError(f"expected byte images [N,3,H,W] or [3,H,W], got {images.shape}")
    return byte_pixels(images)


@dataclass
class LabeledImageSet:
    images: np.ndarray  # uint8 [M,3,H,W]
    labels: np.ndarray  # int64 [M], values in [0,K)
    class_count: int
    name: str = ""

    def __post_init__(self):
        self.images = byte_pixels(self.images)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise ValueError(f"images must be [M,3,H,W], got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("one label per image required")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0,{self.class_count})")

    def __len__(self):
        return self.images.shape[0]

    @property
    def height(self):
        return self.images.shape[2]

    @property
    def width(self):
        return self.images.shape[3]


def load_cifar10_binary(path, limit=None):
    """One file of 3073-byte records -> images [M,3,32,32] plus labels."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % CIFAR10_RECORD != 0:
        raise DatasetFormatError(
            f"{path}: truncated at byte {raw.size} (records are {CIFAR10_RECORD} bytes)"
        )
    records = raw.reshape(-1, CIFAR10_RECORD)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= CIFAR10_CLASSES)[0]
    if bad.size:
        raise DatasetFormatError(
            f"{path}: label {labels[bad[0]]} >= {CIFAR10_CLASSES} at byte {bad[0] * CIFAR10_RECORD}"
        )
    images = records[:, 1:].reshape(-1, 3, CIFAR10_SIDE, CIFAR10_SIDE)
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    return LabeledImageSet(images, labels, CIFAR10_CLASSES, name=os.path.basename(path))


def load_cifar10_dir(directory):
    """Standard layout: data_batch_1..5 concatenated for train, test_batch for test."""
    train_parts = [
        load_cifar10_binary(os.path.join(directory, f"data_batch_{i}.bin")) for i in range(1, 6)
    ]
    train = LabeledImageSet(
        np.concatenate([p.images for p in train_parts]),
        np.concatenate([p.labels for p in train_parts]),
        CIFAR10_CLASSES,
        name="cifar10-train",
    )
    test = load_cifar10_binary(os.path.join(directory, "test_batch.bin"))
    return train, test


def balanced_subset(dataset, per_class, seed):
    """Seeded class-balanced subset with per_class examples of each label."""
    rng = np.random.default_rng(seed)
    picks = []
    for k in range(dataset.class_count):
        pool = np.nonzero(dataset.labels == k)[0]
        if pool.size < per_class:
            raise ValueError(f"class {k} has only {pool.size} examples, need {per_class}")
        picks.append(rng.choice(pool, size=per_class, replace=False))
    order = np.sort(np.concatenate(picks))
    return LabeledImageSet(
        dataset.images[order], dataset.labels[order], dataset.class_count, name=dataset.name
    )


def save_image_set(dataset, path):
    """Write the binary record layout plus a text sidecar (K, H, W, count)."""
    if dataset.class_count > 256:
        raise ValueError(f"{path}: {dataset.class_count} classes do not fit the one-byte label field")
    m = len(dataset)
    flat = dataset.images.reshape(m, -1)
    records = np.empty((m, 1 + flat.shape[1]), dtype=np.uint8)
    records[:, 0] = dataset.labels.astype(np.uint8)
    records[:, 1:] = flat
    records.tofile(path)
    with open(str(path) + ".meta", "w") as fh:
        fh.write(f"classes={dataset.class_count}\n")
        fh.write(f"height={dataset.height}\n")
        fh.write(f"width={dataset.width}\n")
        fh.write(f"count={m}\n")


def load_image_set(path):
    """Read a set written by save_image_set."""
    meta_path, meta = str(path) + ".meta", {}
    try:
        fh = open(meta_path)
    except FileNotFoundError:
        raise DatasetFormatError(f"{meta_path}: sidecar missing; save_image_set writes it") from None
    with fh:
        for line_no, line in enumerate(fh, 1):
            key, _, value = line.strip().partition("=")
            try:
                meta[key] = int(value)
            except ValueError:
                raise DatasetFormatError(
                    f"{meta_path}:{line_no}: expected key=integer, got {line.strip()!r}"
                ) from None
    for key in ("classes", "height", "width", "count"):
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key {key!r}")
    record = 1 + 3 * meta["height"] * meta["width"]
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except FileNotFoundError:
        raise DatasetFormatError(f"{path}: records file missing; its sidecar {meta_path} exists") from None
    if raw.size != record * meta["count"]:
        raise DatasetFormatError(f"{path}: expected {record * meta['count']} bytes, got {raw.size}")
    records = raw.reshape(meta["count"], record)
    labels = records[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels >= meta["classes"])
    if bad.size:
        raise DatasetFormatError(
            f"{path}: label {labels[bad[0]]} >= {meta['classes']} classes in record {bad[0]} "
            f"at byte {bad[0] * record}"
        )
    images = records[:, 1:].reshape(-1, 3, meta["height"], meta["width"])
    return LabeledImageSet(images, labels, meta["classes"], name=str(path))


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentSpec:
    pad: int = 4
    crop: tuple | None = None  # target (H, W); None keeps the original size
    hflip_prob: float = 0.5
    enabled: bool = True  # train only; the test path is identity

    def __post_init__(self):
        if self.pad < 0 or not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError("invalid augmentation parameters")


def augment(image, spec, rng):
    """Zero-pad, uniform-random crop, and maybe horizontal flip one image."""
    return augment_batch(np.asarray(image)[None], spec, rng)[0]


def augment_batch(images, spec, rng):
    if not spec.enabled:
        return images
    images = np.asarray(images, dtype=np.uint8)
    n, _, h, w = images.shape
    th, tw = spec.crop if spec.crop is not None else (h, w)
    if th > h + 2 * spec.pad or tw > w + 2 * spec.pad:
        raise ValueError("crop target exceeds padded size")
    padded = np.pad(images, ((0, 0), (0, 0), (spec.pad, spec.pad), (spec.pad, spec.pad)))
    ys = rng.integers(0, h + 2 * spec.pad - th + 1, size=n)
    xs = rng.integers(0, w + 2 * spec.pad - tw + 1, size=n)
    flips = rng.random(n) < spec.hflip_prob
    out = np.empty((n, 3, th, tw), dtype=np.uint8)
    for i in range(n):
        crop = padded[i, :, ys[i] : ys[i] + th, xs[i] : xs[i] + tw]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


# ---------------------------------------------------------------------------
# synthetic desk-scale sets


def _class_bands(class_count, band_width=None):
    # maximally spread disjoint color bands, one per class
    if band_width is None:
        band_width = max(8, 256 // (2 * class_count))
    if class_count == 1:
        return [(0, band_width)]
    step = (256 - band_width) / (class_count - 1)
    return [(int(round(k * step)), band_width) for k in range(class_count)]


def make_synthetic(kind, n_per_class, class_count, height, width, seed):
    """Byte images whose class signal lives in the color distribution.

    "separable": every pixel of a class-k image is drawn uniformly from
    that class's color band, so the coding stage alone can linearly
    separate the classes. "striped": the same bands, but rows alternate
    between the low and high halves of the band, adding spatial texture.
    """
    if min(n_per_class, class_count, height, width) < 1:
        raise ValueError("all synthetic set parameters must be positive")
    rng = np.random.default_rng(seed)
    bands = _class_bands(class_count)
    images = np.empty((n_per_class * class_count, 3, height, width), dtype=np.uint8)
    labels = np.empty(n_per_class * class_count, dtype=np.int64)
    for k, (lo, width_k) in enumerate(bands):
        block = slice(k * n_per_class, (k + 1) * n_per_class)
        labels[block] = k
        if kind == "separable":
            images[block] = rng.integers(lo, lo + width_k, size=(n_per_class, 3, height, width))
        elif kind == "striped":
            half = max(1, width_k // 2)
            low = rng.integers(lo, lo + half, size=(n_per_class, 3, height, width))
            high = rng.integers(lo + half, lo + width_k, size=(n_per_class, 3, height, width))
            rows = (np.arange(height) // 2 % 2).astype(bool)[None, None, :, None]
            images[block] = np.where(rows, high, low)
        else:
            raise ValueError(f"unknown synthetic kind {kind!r}")
    return LabeledImageSet(images, labels, class_count, name=f"synthetic-{kind}")


def batch_iter(dataset, batch_size, shuffle_seed=None):
    """One epoch of (byte images [n,3,H,W], labels) batches.

    Seeded shuffle when shuffle_seed is given, original order otherwise;
    the final partial batch is emitted.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]
