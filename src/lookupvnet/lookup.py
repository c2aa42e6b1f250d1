"""Learnable per-channel color lookup tables.

The input stage that replaces fixed integer pixel coding: each 8-bit
color value v in each RGB channel reads row v // c of a learnable
per-channel table of width u. Full tables have c = 1 and 256 rows of u
entries; compressed tables have u = 1 and ceil(256/c) scalar entries,
one shared by every c consecutive colors. The forward pass is a gather
over pixel colors; its adjoint scatter-adds upstream gradients back
into the indexed rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import byte_batch
from .gradcore import Tensor

CHANNELS = ("r", "g", "b")


def table_size(c):
    """Entries per channel at compression rate c."""
    return -(-256 // c)  # ceil(256 / c)


def compressed_index(color, c):
    """Bucket index of a byte color when every c colors share one entry."""
    color = int(color)
    if not 0 <= color <= 255:
        raise ValueError(f"color {color} outside byte range 0..255")
    return color // c


def table_shape(kind, value):
    """Stored shape of one channel table: (256, u) full, (ceil(256/c),) compressed."""
    if kind == "full":
        if value < 1:
            raise ValueError(f"vector dimension must be >= 1, got {value}")
        return (256, int(value))
    if kind == "compressed":
        if not 1 <= value <= 256:
            raise ValueError(f"compression rate must be in [1, 256], got {value}")
        return (table_size(value),)
    raise ValueError(f"unknown table kind {kind!r}")


class LookupTables:
    """Three channel tables of width u, read at row v // c for color v.

    value is the vector dimension u for kind="full" (then c = 1) and the
    compression rate c for kind="compressed" (then u = 1).
    """

    def __init__(self, kind, value, channel_tables):
        shape = table_shape(kind, value)
        self.kind, self.value = kind, int(value)
        self.u, self.c = (self.value, 1) if kind == "full" else (1, self.value)
        self.tables = []
        for ch, arr in zip(CHANNELS, channel_tables):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{ch} table must have shape {shape}, got {arr.shape}")
            self.tables.append(Tensor(arr, requires_grad=True, op=f"tables/{ch}"))

    @property
    def output_channels(self):
        return 3 * self.u

    def parameters(self):
        return {f"tables/{ch}": t for ch, t in zip(CHANNELS, self.tables)}

    def apply(self, images):
        return lookup(images, self).values


class FullLookupTables(LookupTables):
    """Three channel tables of 256 learnable vectors of dimension u."""

    def __init__(self, u, channel_tables):
        super().__init__("full", u, channel_tables)

    @classmethod
    def from_channel_maps(cls, maps):
        """Build from three (256, u) arrays; handy for frozen codings."""
        maps = [np.asarray(m, dtype=np.float64) for m in maps]
        return cls(maps[0].shape[1], maps)


class CompressedLookupTables(LookupTables):
    """Three channel tables of ceil(256/c) learnable scalars each."""

    def __init__(self, c, channel_tables):
        super().__init__("compressed", c, channel_tables)


def init_tables(kind, value, seed):
    """Fresh tables with every entry i.i.d. uniform on [-1, 1].

    value is the vector dimension u for kind="full" and the compression
    rate c for kind="compressed".
    """
    rng = np.random.default_rng(seed)
    shape = table_shape(kind, value)
    return LookupTables(kind, value, [rng.uniform(-1.0, 1.0, shape) for _ in CHANNELS])


@dataclass
class LookupResult:
    """Coded pixels plus the byte-valued row indices cached for the backward pass."""

    values: Tensor  # [N, 3u, H, W] view of a plane-major [3u, N, H, W] array
    indices: np.ndarray  # [N, 3, H, W] rows v // c: the uint8 images at c = 1, else uint16


def lookup(images, tables):
    """Replace every pixel color with its table entry.

    Full tables emit 3u output planes ordered R0..R(u-1), G0.., B0..;
    compressed tables emit one plane per channel. No standardization is
    applied: the coding itself is the learned input.
    """
    images = byte_batch(images)
    n, _, h, w = images.shape

    # rows v // c stay byte-valued (uint16: numpy rejects uint8 // 256) and below
    # ceil(256/c), so take(mode="clip") never clips and, unlike "raise", writes in place
    indices = images if tables.c == 1 else images // np.uint16(tables.c)
    width = tables.u
    planes = np.empty((3 * width, n, h, w))
    idx = np.empty((n, h, w), dtype=np.intp)  # converted once per channel, not per plane
    for ch, table in enumerate(tables.tables):
        idx[...] = indices[:, ch]
        columns = np.ascontiguousarray(table.data.reshape(-1, width).T)  # [width, rows]
        for k in range(width):
            np.take(columns[k], idx, out=planes[ch * width + k], mode="clip")

    def vjp(g):
        return lookup_backward(g, indices, tables)

    values = Tensor(planes.transpose(1, 0, 2, 3), parents=tuple(tables.tables), vjp=vjp, op="lookup")
    return LookupResult(values=values, indices=indices)


def lookup_backward(upstream, indices, tables):
    """Scatter-add adjoint of lookup: one gradient array per channel table.

    Row (ch, v) receives the sum of upstream values over all pixels whose
    channel-ch index is v; rows for colors absent from the batch stay zero.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    width = tables.u
    idx = np.empty(indices[:, 0].shape, dtype=np.intp)  # converted once per channel, not per bincount
    grads = []
    for ch, table in enumerate(tables.tables):
        idx[...], rows = indices[:, ch], table.data.shape[0]
        planes = [np.bincount(idx.ravel(), weights=upstream[:, ch * width + k].ravel(), minlength=rows)
                  for k in range(width)]
        grads.append(np.stack(planes, axis=-1).reshape(table.data.shape))
    return tuple(grads)
