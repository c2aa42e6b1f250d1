"""Small configurable convolutional classifiers and the standardized baseline.

Models built here differ only in their input stage: a learnable color
table stage feeds 3u planes, the baseline feeds 3 standardized planes.
Everything after the input stage is identical, so table-coded and
standard networks can be compared layer for layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradcore
from .data import byte_batch
from .gradcore import Tensor
from .lookup import FullLookupTables


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    filters: int
    stride: int = 1
    pool: bool = False


@dataclass(frozen=True)
class ModelConfig:
    input_channels: int
    conv_blocks: tuple
    head_width: int
    class_count: int
    input_size: tuple  # (H, W) of the incoming images
    seed: int = 0
    pool_window: int = 2

    def __post_init__(self):
        object.__setattr__(self, "conv_blocks", tuple(self.conv_blocks))


class Model:
    """Ordered conv/pool/relu blocks plus a two-layer classifier head."""

    def __init__(self, config, params):
        self.config = config
        self.params = params  # name -> leaf Tensor, insertion-ordered

    def parameters(self):
        return dict(self.params)

    def param_count(self):
        return sum(t.data.size for t in self.params.values())

    def clone(self):
        clone_params = {
            name: Tensor(t.data.copy(), requires_grad=True, op=t.op)
            for name, t in self.params.items()
        }
        return Model(self.config, clone_params)


def _spatial_after_blocks(config):
    h, w = config.input_size
    for i, block in enumerate(config.conv_blocks):
        h = (h - block.kernel) // block.stride + 1
        w = (w - block.kernel) // block.stride + 1
        if h < 1 or w < 1:
            raise ValueError(f"conv block {i} reduces spatial size below 1x1 ({h}x{w})")
        if block.pool:
            h = (h - config.pool_window) // config.pool_window + 1
            w = (w - config.pool_window) // config.pool_window + 1
            if h < 1 or w < 1:
                raise ValueError(f"pool after block {i} reduces spatial size below 1x1")
    return h, w


def build_model(config):
    """Seeded He fan-in initialization; zero biases; bit-deterministic."""
    rng = np.random.default_rng(config.seed)
    params = {}
    channels = config.input_channels
    for i, block in enumerate(config.conv_blocks):
        fan_in = channels * block.kernel * block.kernel
        weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), (block.filters, channels, block.kernel, block.kernel))
        params[f"conv{i}.w"] = Tensor(weight, requires_grad=True, op=f"conv{i}.w")
        channels = block.filters
    h, w = _spatial_after_blocks(config)
    flat = channels * h * w
    params["hidden.w"] = Tensor(
        rng.normal(0.0, np.sqrt(2.0 / flat), (flat, config.head_width)), requires_grad=True, op="hidden.w"
    )
    params["hidden.b"] = Tensor(np.zeros(config.head_width), requires_grad=True, op="hidden.b")
    params["out.w"] = Tensor(
        rng.normal(0.0, np.sqrt(2.0 / config.head_width), (config.head_width, config.class_count)),
        requires_grad=True,
        op="out.w",
    )
    params["out.b"] = Tensor(np.zeros(config.class_count), requires_grad=True, op="out.b")
    return Model(config, params)


def forward(model, x):
    """Logits [N,K] for an encoded input tensor; softmax lives in the loss.

    A pooled block applies relu after the max pool, so relu reads only
    1/window² of the conv output, a quarter for 2x2 windows. Relu is
    monotone, so this gives the bits of relu-then-pool, and the same
    gradients up to the sign of a zero. The one exception is a pool
    window holding NaN and a positive value: it gives 0.0 here, where
    relu-then-pool gives the positive value. NaN activations only come
    from non-finite parameters, and the trainer stops a run at the end
    of the epoch that produced one.
    """
    cfg = model.config
    if x.data.ndim != 4 or x.data.shape[1] != cfg.input_channels:
        raise gradcore.ShapeMismatchError(
            f"model expects [N,{cfg.input_channels},H,W] input, got {tuple(x.data.shape)}"
        )
    h = x
    for i, block in enumerate(cfg.conv_blocks):
        h = gradcore.conv2d(h, model.params[f"conv{i}.w"], stride=block.stride)
        if block.pool:
            h = gradcore.max_pool2d(h, window=cfg.pool_window)
        h = gradcore.relu(h)
    n = h.data.shape[0]
    h = gradcore.reshape(h, (n, -1))
    h = gradcore.relu(gradcore.dense(h, model.params["hidden.w"], model.params["hidden.b"]))
    return gradcore.dense(h, model.params["out.w"], model.params["out.b"])


# ---------------------------------------------------------------------------
# baseline input coding: fixed linear standardization of byte pixels


@dataclass
class ChannelStats:
    mean: np.ndarray  # per-channel mean, shape (3,)
    std: np.ndarray  # per-channel standard deviation, shape (3,)
    eps: float = 0.0  # floor applied to std; 0 disables the guard

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(3)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("channel stats must be finite")

    @classmethod
    def _reduce(cls, pixels, axes, eps):
        # Reduce the bytes with a float64 accumulator instead of reducing a
        # float64 copy: sums of whole bytes are exact in any order, and std
        # squares the same float64 deviations, so the bits are the copy's.
        return cls(
            np.mean(pixels, axis=axes, dtype=np.float64), np.std(pixels, axis=axes, dtype=np.float64), eps=eps
        )

    @classmethod
    def from_images(cls, images, eps=0.0):
        """Dataset-level stats over byte images [M,3,H,W]."""
        return cls._reduce(images, (0, 2, 3), eps)

    @classmethod
    def of_image(cls, image, eps=0.0):
        """Per-image stats over one byte image [3,H,W]."""
        return cls._reduce(image, (1, 2), eps)

    def effective_std(self):
        std = self.std
        if np.any(std <= 0):
            if self.eps <= 0:
                raise ValueError("zero standard deviation and no epsilon guard")
            std = np.maximum(std, self.eps)
        return std


def _standardizing_ramps(stats):
    """[3, 256]: (v - mean) / std of each channel at every byte value v."""
    return (np.arange(256, dtype=np.float64) - stats.mean[:, None]) / stats.effective_std()[:, None]


def standardize(image, stats):
    """(pixel - mean) / std per channel; the manually designed linear coding.

    Pixels are bytes, so each channel gathers its values from a 256-entry
    ramp into one plane of a plane-major float64 output, as lookup does:
    the same bits as the formula, without a float64 copy of the batch.
    """
    pixels = byte_batch(image)
    ramps = _standardizing_ramps(stats)
    planes = np.empty((3, *pixels[:, 0].shape))
    for ch in range(3):
        np.take(ramps[ch], pixels[:, ch], out=planes[ch], mode="clip")  # bytes never clip
    return Tensor(planes[:, 0] if np.ndim(image) == 3 else planes.transpose(1, 0, 2, 3), op="standardize")


class StandardizeStage:
    """Baseline input stage: fixed standardization, no learnable state."""

    kind = "standardize"

    def __init__(self, stats=None, per_image=False, eps=1e-8):
        if stats is None and not per_image:
            raise ValueError("need dataset stats unless per_image=True")
        self.stats = stats
        self.per_image = per_image
        self.eps = eps

    @property
    def output_channels(self):
        return 3

    def parameters(self):
        return {}

    def apply(self, images):
        images = byte_batch(images)
        if self.per_image:
            coded = np.stack(
                [standardize(img, ChannelStats.of_image(img, eps=self.eps)).data for img in images]
            )
            return Tensor(coded, op="standardize")
        return standardize(images, self.stats)


def standardizing_tables(stats):
    """u=1 full tables frozen at t[v] = (v - mean)/std per channel.

    Feeding bytes through these tables reproduces the baseline coding
    exactly, which is what makes the table stage a strict generalization
    of standardization.
    """
    return FullLookupTables.from_channel_maps(ramp.reshape(256, 1) for ramp in _standardizing_ramps(stats))
