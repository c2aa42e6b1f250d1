"""Analytic extra space/compute cost of table-coded networks vs. the baseline.

Counts follow the comparability convention of 2*k*k*C multiply-adds plus
one per output element for the first convolution, and one float op per
table query. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lookup import table_size


def _ceil_div(a, b):
    return -(-a // b)


def extra_params(u, k, j):
    """Additional learnable scalars: 256*3*u table entries plus the first
    layer widened from 3 to 3u input channels."""
    if min(u, k, j) < 1:
        raise ValueError("u, k, j must all be >= 1")
    return 256 * 3 * u + k * k * 3 * (u - 1) * j


def compressed_extra_params(c):
    """Compressed tables add 3*ceil(256/c) scalars; the first layer is unchanged."""
    return 3 * table_size(c)


def extra_flops(m, n, s, k, j, u):
    """Extra forward float ops on an m x n image: the 3*m*n table queries
    plus the first-layer widening, which cancels exactly at u = 1.

    The widening counts ceil(m/s)*ceil(n/s) same-padded positions. The valid
    convolutions built here have fewer, so for u > 1 it exceeds count_flops:
    1,327,104 against 1,166,400 at u=4, k=3, j=8, s=1 on 32x32."""
    if min(m, n, s, k, j, u) < 1:
        raise ValueError("all cost parameters must be >= 1")
    positions = _ceil_div(m, s) * _ceil_div(n, s)
    wide = positions * j * (2 * k * k * 3 * u + 1)
    narrow = positions * j * (2 * k * k * 3 + 1)
    return m * n * 3 + wide - narrow


def pixel_bits(c):
    """Bits per stored pixel after compressing each channel to ceil(256/c) colors."""
    if not 1 <= c <= 256:
        raise ValueError(f"compression rate must be in [1, 256], got {c}")
    colors = table_size(c)
    if colors == 1:
        return 0
    return 3 * max(1, (colors - 1).bit_length())


@dataclass
class CostReport:
    extra_parameters: int
    extra_flops: int | None
    bits_per_pixel: int
    assumptions: dict = field(default_factory=dict)

    def as_text(self):
        lines = [
            f"extra-parameters: {self.extra_parameters}",
            f"extra-flops:      {self.extra_flops if self.extra_flops is not None else 'n/a'}",
            f"bits-per-pixel:   {self.bits_per_pixel}",
            "assumptions:      " + " ".join(f"{k}={v}" for k, v in self.assumptions.items()),
        ]
        return "\n".join(lines)

    def as_kv(self):
        pairs = dict(self.assumptions)
        pairs["extra_parameters"] = self.extra_parameters
        if self.extra_flops is not None:
            pairs["extra_flops"] = self.extra_flops
        pairs["bits_per_pixel"] = self.bits_per_pixel
        return "\n".join(f"{k}={v}" for k, v in pairs.items())


def cost_report(m=32, n=32, s=1, k=3, j=16, u=None, c=None):
    """Report for full tables of dimension u, or compressed tables at rate c."""
    if (u is None) == (c is None):
        raise ValueError("give exactly one of u (full tables) or c (compressed tables)")
    if u is not None:
        return CostReport(
            extra_parameters=extra_params(u, k, j),
            extra_flops=extra_flops(m, n, s, k, j, u),
            bits_per_pixel=pixel_bits(1),
            assumptions={"m": m, "n": n, "s": s, "k": k, "j": j, "u": u},
        )
    return CostReport(
        extra_parameters=compressed_extra_params(c),
        extra_flops=extra_flops(m, n, s, k, j, 1),
        bits_per_pixel=pixel_bits(c),
        assumptions={"m": m, "n": n, "s": s, "k": k, "j": j, "c": c},
    )
