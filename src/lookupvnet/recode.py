"""Render learned color codings as viewable images.

Maps byte images through a table stage, min-max normalizes each output
channel group over the whole image set to 0..255, and writes binary PPM
(P6) files next to the untouched originals for side-by-side comparison.
Tables with vector entries are visualized by their first component per
channel.
"""

from __future__ import annotations

import os

import numpy as np

from .lookup import lookup


def write_ppm(path, image):
    """Binary P6 file from a uint8 [3,H,W] image."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected [3,H,W] image, got {image.shape}")
    _, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.moveaxis(image, 0, -1).tobytes())


def read_ppm(path):
    """Inverse of write_ppm; only plain P6 with maxval 255."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, offset = [], 0
    while len(fields) < 4:
        while offset < len(blob) and blob[offset : offset + 1].isspace():
            offset += 1
        if blob[offset : offset + 1] == b"#":
            offset = blob.index(b"\n", offset) + 1
            continue
        start = offset
        while offset < len(blob) and not blob[offset : offset + 1].isspace():
            offset += 1
        fields.append(blob[start:offset])
    offset += 1  # single whitespace after maxval
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: unsupported PPM header {fields}")
    w, h = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(blob, dtype=np.uint8, count=3 * w * h, offset=offset)
    return np.moveaxis(pixels.reshape(h, w, 3), -1, 0).copy()


def recode_values(images, tables):
    """One displayable plane per RGB channel for every image, as float64."""
    return lookup(images, tables).values.data[:, :: tables.u]  # first component per channel


def normalize_to_bytes(values):
    """Min-max per channel over the whole set; a flat channel maps to 0."""
    out = np.zeros(values.shape, dtype=np.uint8)
    for ch in range(values.shape[1]):
        lo = values[:, ch].min()
        hi = values[:, ch].max()
        if hi > lo:
            scaled = (values[:, ch] - lo) * (255.0 / (hi - lo))
            out[:, ch] = np.rint(scaled).astype(np.uint8)
    return out


def recode_images(images, tables, out_dir):
    """Write original_###.ppm / recoded_###.ppm pairs; returns the paths."""
    images = np.asarray(images, dtype=np.uint8)
    os.makedirs(out_dir, exist_ok=True)
    recoded = normalize_to_bytes(recode_values(images, tables))
    paths = []
    for i, (original, coded) in enumerate(zip(images, recoded)):
        orig_path = os.path.join(out_dir, f"original_{i:03d}.ppm")
        coded_path = os.path.join(out_dir, f"recoded_{i:03d}.ppm")
        write_ppm(orig_path, original)
        write_ppm(coded_path, coded)
        paths.append((orig_path, coded_path))
    return paths
