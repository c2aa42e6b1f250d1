"""Output checks made apart from the library.

A plain-numpy forward pass of the desk model (table gather by fancy
indexing, valid cross-correlation summed over kernel offsets, relu,
2x2 max by reshape, dense) and the predicates the benchmark applies to
the trained model. Nothing here imports lookupvnet, so a fault in the
library cannot hide in its own reference. Each predicate returns
(ok, detail).
"""

from __future__ import annotations

import numpy as np

REFERENCE_RTOL = 1e-9
GRADIENT_TOL = 1e-4
REL_ERROR_FLOOR = 1e-3


def code_images(images, stage):
    """The input planes for byte images under a stage description.

    stage is ("full", [three (256, u) arrays]), ("compressed", [three
    (rows,) arrays], c) or ("standardize", mean, std).
    """
    x = np.asarray(images).astype(np.int64)
    kind = stage[0]
    if kind == "standardize":
        _, mean, std = stage
        return (x - mean[None, :, None, None]) / std[None, :, None, None]
    if kind == "compressed":
        _, tables, c = stage
        return np.stack([tables[ch][x[:, ch] // c] for ch in range(3)], axis=1)
    _, tables = stage
    planes = [tables[ch][x[:, ch]][..., k] for ch in range(3) for k in range(tables[ch].shape[1])]
    return np.stack(planes, axis=1)


def conv_valid(x, w):
    """out[n,j,y,x] = sum over c, ki, kj of w[j,c,ki,kj] * x[n,c,y+ki,x+kj]."""
    _, _, h, wd = x.shape
    k = w.shape[2]
    ho, wo = h - k + 1, wd - k + 1
    out = 0.0
    for ki in range(k):
        for kj in range(k):
            out = out + np.einsum("jc,ncyx->njyx", w[:, :, ki, kj], x[:, :, ki : ki + ho, kj : kj + wo])
    return out


def max_pool2(x):
    """2x2 max and, per window, which of its four entries wins first."""
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    windows = x[:, :, : 2 * ho, : 2 * wo].reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, ho, wo, 4)
    return windows.max(axis=-1), windows.argmax(axis=-1)


def reference_pass(params, images, stage, blocks=3):
    """Desk-model logits from a {name: array} parameter map, plus the
    activation pattern: every relu's on/off mask and every pool's winner.
    Two inputs with equal patterns lie on the same smooth piece of the loss."""
    pattern = []
    h = code_images(images, stage)
    for i in range(blocks):
        h = conv_valid(h, params[f"conv{i}.w"])
        pattern.append(h > 0)
        h, winners = max_pool2(np.maximum(h, 0.0))
        pattern.append(winners)
    h = h.reshape(h.shape[0], -1) @ params["hidden.w"] + params["hidden.b"]
    pattern.append(h > 0)
    h = np.maximum(h, 0.0)
    return h @ params["out.w"] + params["out.b"], pattern


def logits(params, images, stage, blocks=3):
    return reference_pass(params, images, stage, blocks)[0]


def same_pattern(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def cross_entropy(z, labels):
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def rel_error(a, e):
    """|a-e| / max(|a|+|e|, floor), entrywise; the floor keeps near-zero entries honest."""
    a, e = np.asarray(a, dtype=np.float64), np.asarray(e, dtype=np.float64)
    return np.abs(a - e) / np.maximum(np.abs(a) + np.abs(e), REL_ERROR_FLOOR)


# ---------------------------------------------------------------------------
# predicates


def check_reference_logits(library, reference):
    gap = float(np.max(np.abs(library - reference)) / max(np.max(np.abs(reference)), 1e-300))
    return gap <= REFERENCE_RTOL, f"max relative logit gap {gap:.2e} over {len(reference)} images"


def check_accuracy(reported, reference_logits, labels):
    counted = float(np.mean(reference_logits.argmax(axis=1) == labels))
    return reported == counted, f"evaluate {reported:.4f} vs reference count {counted:.4f}"


def check_gradients(analytic, numeric, wanted, kinks):
    worst = float(np.max(rel_error(analytic, numeric))) if len(analytic) else 0.0
    ok = worst < GRADIENT_TOL and len(analytic) == wanted
    return ok, (f"max rel error {worst:.2e} over {len(analytic)} of {wanted} sampled entries, "
                f"{kinks} draws at kinks replaced")


def check_scatter(grads, upstream, indices):
    """Table gradient of each channel (and vector component) sums to its
    upstream sum; rows of colors absent from the batch are exactly zero."""
    worst, stray = 0.0, 0
    for ch, grad in enumerate(grads):
        grad = grad.reshape(grad.shape[0], -1)
        u = grad.shape[1]
        for k in range(u):
            block = upstream[:, ch * u + k]
            gap = abs(grad[:, k].sum() - block.sum()) / max(np.abs(block).sum(), 1e-300)
            worst = max(worst, gap)
        absent = np.ones(grad.shape[0], dtype=bool)
        absent[np.unique(indices[:, ch])] = False
        stray += int(np.count_nonzero(grad[absent]))
    ok = worst <= 1e-10 and stray == 0
    return ok, f"max relative sum gap {worst:.1e}, nonzero absent rows {stray}"


def check_identical(a, b, what):
    same = all(np.array_equal(x, y) for x, y in zip(a, b)) and len(a) == len(b)
    return same, f"{what} bit-identical={same}"


def check_learning(first_losses, last_losses, accuracies, chance):
    improved = all(last < first for first, last in zip(first_losses, last_losses))
    above = all(acc >= 3 * chance for acc in accuracies)
    detail = (
        "train loss " + ", ".join(f"{f:.3f}->{l:.3f}" for f, l in zip(first_losses, last_losses))
        + "; test accuracy " + ", ".join(f"{a:.3f}" for a in accuracies)
    )
    return improved and above, detail


def check_isolation(violations, tables_moved):
    ok = violations == 0 and all(tables_moved.values())
    return ok, f"other-net weight changes {violations}, tables moved {tables_moved}"


def check_baseline_equivalence(baseline, tabled):
    gap = float(np.max(np.abs(baseline - tabled)))
    return gap <= 1e-9, f"max |logit gap| {gap:.2e}"


def check_flops(derived, counted):
    return derived == counted, f"traced shapes {derived} vs count_flops {counted}"
