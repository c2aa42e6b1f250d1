"""Tape-based reverse-mode differentiation over dense float64 arrays.

Provides exactly the operations the color-table networks need (2-D
cross-correlation, affine layers, relu, max pooling, softmax cross
entropy, a few elementwise helpers) plus a central-difference oracle
for verifying gradients. All math is double precision; graphs are
built dynamically. Recording and backward run on the calling thread;
conv2d's image blocks run on every CPU the process may use, and when its
vjp forms an input gradient, a pool thread forms the kernel gradient
beside it.

Only gradients a learnable leaf reads are computed: ``requires_grad``
flows forward from the leaves, backward calls no vjp of a node that needs
no gradient, and a vjp returns ``None`` for a parent that needs none.
Inside ``no_grad()`` the ops record no graph at all.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A node in the computation graph.

    Leaves are created directly from data (``requires_grad=True`` for
    learnable parameters); interior nodes are created by the ops below
    and carry a vector-Jacobian-product closure over their parents. An
    interior node requires a gradient exactly when one of its parents
    does. Data buffers are treated as immutable once a node has consumers.
    Under ``no_grad()`` an op's output keeps no parents and no vjp.
    """

    __slots__ = ("data", "requires_grad", "parents", "vjp", "op")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None, op="leaf"):
        if parents and not _recording:
            parents, vjp = (), None
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self.requires_grad = any(p.requires_grad for p in self.parents) if parents else bool(requires_grad)
        self.vjp = vjp
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


# ---------------------------------------------------------------------------
# graph recording

_recording = True


@contextmanager
def no_grad():
    """Context manager; ops inside it build constants with no parents or vjp,
    so each input buffer is freed as soon as nothing else holds it."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


# ---------------------------------------------------------------------------
# flop accounting (cost-model cross checks)

_active_counter = None


class OpCounter:
    """Accumulates forward float-op counts under the 2*fan_in+1 convention."""

    def __init__(self):
        self.flops = 0


@contextmanager
def count_flops():
    """Context manager; conv2d/dense add their forward costs to the counter."""
    global _active_counter
    prev, counter = _active_counter, OpCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = prev


def _tally(flops):
    if _active_counter is not None:
        _active_counter.flops += int(flops)


# ---------------------------------------------------------------------------
# operations


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data
    return Tensor(out, parents=(a, b), vjp=lambda g: (g, g), op="add")


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = a.data * b.data
    ad, bd = a.data, b.data
    return Tensor(out, parents=(a, b), vjp=lambda g: (g * bd, g * ad), op="mul")


def sum_all(x):
    """Sum of every entry, as a scalar node."""
    shape = x.data.shape
    return Tensor(x.data.sum(), parents=(x,), vjp=lambda g: (np.full(shape, float(g)),), op="sum")


def reshape(x, shape):
    old = x.data.shape
    return Tensor(x.data.reshape(shape), parents=(x,), vjp=lambda g: (g.reshape(old),), op="reshape")


def relu(x):
    mask = x.data > 0
    return Tensor(np.where(mask, x.data, 0.0), parents=(x,), vjp=lambda g: (g * mask,), op="relu")


# Upper bound on the im2col patches of one block. conv2d keeps one block per
# core in flight, each in half of that core's own 4 MiB L2 on the Xeon (model
# 143) it was measured on, and well under the 32 MiB ceiling of glibc's
# dynamic mmap threshold, so freed blocks are reused from the heap, not mapped
# afresh.
_BLOCK_BYTES = 2 << 20


# conv2d splits its images into at most this many contiguous runs of blocks,
# one per CPU: the calling thread runs the last run, and a pool of
# _WORKERS - 1 threads, made on first use, runs the others. A vjp that forms
# the input gradient on the calling thread hands one pool thread every
# kernel-gradient block instead.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None


def _forget_pool():
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _multiply(box):
    # Pops one run's jobs from box; each job (dst, src, a, b, out) copies src
    # into dst, unless dst is None, then multiplies a @ b into out, unless a
    # is None. The pool's work item keeps its arguments after the call, so
    # popping leaves the calling thread to free every array and view a job
    # holds. When worker threads made and dropped their own views, glibc's
    # per-thread caches mixed small blocks into the calling thread's heap in
    # a timing-dependent order, and the baseline's peak RSS read 70-82 MB
    # from run to run.
    for dst, src, a, b, out in box.pop():
        if dst is not None:
            np.copyto(dst, src)
        if a is not None:
            np.matmul(a, b, out=out)


def _each_run(make_jobs, count, meanwhile=None):
    """_multiply the jobs make_jobs(r) for r < count: the last run on the
    calling thread and the others on the pool, or, given meanwhile, every
    run on the pool while the calling thread calls meanwhile(). make_jobs
    runs on the calling thread, which holds every run's jobs until all are
    done; re-raises any error and returns what meanwhile returned."""
    global _pool
    if count == 1 and meanwhile is None:
        return _multiply([make_jobs(0)])
    if _pool is None:  # two first calls at once may each make one; both work
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="conv2d")
    pooled = count if meanwhile else count - 1
    held, pending = [], []
    for r in range(pooled):
        held.append(make_jobs(r))
        pending.append(_pool.submit(_multiply, [held[-1]]))
    try:
        result = meanwhile() if meanwhile else _multiply([make_jobs(count - 1)])
    finally:
        wait(pending)  # the pool may still read views an error would free
    for f in pending:
        f.result()
    return result


def _patches(x, k, stride, buf):
    """Views (dst, src, cols) for unrolling padded [N,C,H,W] x into buf[:N]:
    copying src into dst fills cols, [N, C*k*k, Ho*Wo] in logical axis order
    (C, ki, kj)."""
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, ho, wo),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    cols = buf[:n]
    return cols.reshape(windows.shape), windows, cols


def _buffers(runs, shape, skip=None):
    """One empty patch buffer per run, as large as its first block, the
    largest (None for a run whose only block is skip)."""
    return [None if run[0] is skip else np.empty((run[0].stop - run[0].start, *shape)) for run in runs]


def conv2d(x, kernels, stride=1, padding=0):
    """2-D cross-correlation of [N,C,H,W] input with [J,C,k,k] kernels; the
    vjp returns ``None`` for an input that needs no gradient.

    The input gradient also multiplies the kernels by zero columns, so an
    inf or NaN kernel entry (inf * 0 is NaN) can make a few more of its
    entries NaN than the plain adjoint would; training stops on the
    non-finite loss such a kernel gives before any backward pass runs."""
    xd, kd = x.data, kernels.data
    if xd.ndim != 4 or kd.ndim != 4 or kd.shape[2] != kd.shape[3] or xd.shape[1] != kd.shape[1]:
        raise ShapeMismatchError(
            f"conv2d shape mismatch: input {tuple(xd.shape)} vs kernels {tuple(kd.shape)}"
        )
    n, c, h, w = xd.shape
    j, _, k, _ = kd.shape
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(
            f"conv2d output would be empty: input {tuple(xd.shape)}, kernels {tuple(kd.shape)}, "
            f"stride {stride}, padding {padding}"
        )

    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    # Unroll a few images at a time. Stacked matmuls make one BLAS call per
    # image, so every block split, and so every run count, gives the same
    # bits as the whole batch. The runs are near-equal contiguous image
    # ranges, each cut into blocks, with one patch buffer per run.
    per_block = max(1, _BLOCK_BYTES // (c * k * k * ho * wo * xp.itemsize))
    n_runs = min(_WORKERS, -(-n // per_block))
    cuts = [n * r // n_runs for r in range(n_runs + 1)]
    runs = [
        [slice(i, min(i + per_block, hi)) for i in range(lo, hi, per_block)]
        for lo, hi in zip(cuts, cuts[1:])
    ]
    last = runs[-1][-1]
    wmat = kd.reshape(j, c * k * k)
    out = np.empty((n, j, ho * wo))
    bufs = _buffers(runs, (c * k * k, ho * wo))

    def forward_jobs(r):
        jobs = []
        for b in runs[r]:
            dst, src, cols = _patches(xp[b], k, stride, bufs[r])
            jobs.append((dst, src, wmat, cols, out[b]))
        return jobs

    _each_run(forward_jobs, n_runs)
    # the last run ends on the last block, whose patches backward reuses
    kept = bufs[-1]
    last_cols = kept[: last.stop - last.start]
    out = out.reshape(n, j, ho, wo)
    _tally(n * ho * wo * j * (2 * k * k * c + 1))

    hp, wp = xp.shape[2], xp.shape[3]
    needs_gx = x.requires_grad

    def vjp(g):
        go = g.reshape(n, j, ho * wo)
        grad_w = np.empty((n, j, c * k * k))

        def grad_w_job(b, buf):
            dst, src, cols = (None, None, last_cols) if b is last else _patches(xp[b], k, stride, buf)
            return dst, src, go[b], cols.transpose(0, 2, 1), grad_w[b]

        if needs_gx and n_runs > 1:
            # One pool thread forms the kernel gradient while this thread
            # forms gx; neither reads the other's result. The lane starts
            # from the last block's patches, rebuilds every other block into
            # the same kept buffer, and copies the last block's back, so it
            # allocates nothing and a second vjp call reads them intact. The
            # buffer fits every block: the last run holds ceil(n / runs)
            # images, the most of any run, and its first block is its largest.
            def lane_jobs(_):
                others = [grad_w_job(b, kept) for run in runs for b in run if b is not last]
                dst, src, _cols = _patches(xp[last], k, stride, kept)
                return [grad_w_job(last, kept), *others, (dst, src, None, None, None)]

            gx = _each_run(lane_jobs, 1, meanwhile=lambda: input_grad(g))
            return gx, grad_w.sum(axis=0).reshape(kd.shape)
        # rebuild every block but the last into per-run buffers, all freed
        # before gx exists, so no rebuilt block is alive beside it
        bufs = _buffers(runs, (c * k * k, ho * wo), skip=last)
        _each_run(lambda r: [grad_w_job(b, bufs[r]) for b in runs[r]], n_runs)
        del bufs
        grad_w = grad_w.sum(axis=0).reshape(kd.shape)
        return (input_grad(g) if needs_gx else None), grad_w

    def input_grad(g):
        # im2col's adjoint on flat padded planes, each padded to stride*q
        # entries: output (py, px) of offset (ki, kj) lands at
        # stride*(py*wp + px) + ki*wp + kj. With g widened to wp columns, each
        # block and offset is one matmul and one step-stride 1-D add over the
        # block's planes; the products of the zero columns, and the zero slots
        # past span, add only +0.0 (a sum begun at +0.0 is never -0.0). Each
        # [C,J] block goes to BLAS transposed, as in wmat.T @ go, which keeps
        # that product's summation order and so its exact bits. (With C = 1
        # numpy calls gemv instead, which rounds its last few outputs by span.)
        q = -(-hp * wp // stride)
        span = (ho - 1) * wp + wo
        w_offsets = np.ascontiguousarray(kd.transpose(2, 3, 0, 1))  # [k,k,J,C]
        gx = np.zeros((n, c, stride * q))
        blocks = [b for run in runs for b in run]
        # The block buffers come from np.empty, with only the entries that
        # must stay zero cleared. As np.zeros they left peak RSS to where
        # transparent huge pages fell in the heap: 70.5, 74 or 77.3 MB from
        # run to run on baseline-aug-b64 (2-core Xeon, THP "madvise"), and
        # 69.4-69.6 MB over 10 runs as they are now.
        wide = np.empty((min(per_block, n), j, ho, wp))
        prod = np.empty((min(per_block, n), c, q))
        wide[..., wo:] = 0.0
        prod[..., span:] = 0.0
        for b in blocks:
            nb = b.stop - b.start
            wide[:nb, :, :, :wo] = g[b]
            g_flat = wide[:nb].reshape(nb, j, ho * wp)[:, :, :span]
            prod_flat, gx_flat = prod[:nb].reshape(-1), gx[b].reshape(-1)
            for ki in range(k):
                for kj in range(k):
                    np.matmul(w_offsets[ki, kj].T, g_flat, out=prod[:nb, :, :span])
                    dest = gx_flat[ki * wp + kj :: stride]
                    dest += prod_flat[: dest.size]  # the cut tail is all zeros
        gx = gx[:, :, : hp * wp].reshape(n, c, hp, wp)
        return gx[:, :, padding : hp - padding, padding : wp - padding]

    return Tensor(out, parents=(x, kernels), vjp=vjp, op="conv2d")


def dense(x, weights, bias):
    """Affine map rows @ weights + bias for [N,D] input."""
    xd, wd, bd = x.data, weights.data, bias.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != (wd.shape[1],):
        raise ShapeMismatchError(
            f"dense shape mismatch: input {tuple(xd.shape)}, weights {tuple(wd.shape)}, "
            f"bias {tuple(bd.shape)}"
        )
    out = xd @ wd + bd
    _tally(xd.shape[0] * wd.shape[1] * (2 * wd.shape[0] + 1))

    def vjp(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return Tensor(out, parents=(x, weights, bias), vjp=vjp, op="dense")


def max_pool2d(x, window=2):
    """Max pooling over non-overlapping window x window tiles; a ragged
    bottom/right edge is cropped. Ties route the gradient to the first
    maximum in row-major window order."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeMismatchError(f"max_pool2d expects [N,C,H,W], got {tuple(xd.shape)}")
    n, c, h, w = xd.shape
    ho, wo = h // window, w // window
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(
            f"max_pool2d output would be empty: input {tuple(xd.shape)}, window {window}"
        )
    offsets = [(di, dj) for di in range(window) for dj in range(window)]

    def tile(a, di, dj):
        # the entries at offset (di, dj) of every window, as an [N,C,Ho,Wo] view
        return a[:, :, di : di + window * ho : window, dj : dj + window * wo : window]

    out = tile(xd, 0, 0).copy()
    for di, dj in offsets[1:]:
        np.maximum(out, tile(xd, di, dj), out=out)

    def vjp(g):
        # Windows never overlap, so each input entry takes at most one value;
        # g + 0.0 gives it the bits of 0.0 + g, -0.0 becoming 0.0.
        g0, gx = g + 0.0, np.zeros_like(xd)
        unclaimed = np.ones(out.shape, dtype=bool)
        for di, dj in offsets[:-1]:
            wins = (tile(xd, di, dj) == out) & unclaimed
            unclaimed ^= wins
            tile(gx, di, dj)[...] = np.where(wins, g0, 0.0)
        tile(gx, *offsets[-1])[...] = np.where(unclaimed, g0, 0.0)
        return (gx,)

    return Tensor(out, parents=(x,), vjp=vjp, op="max_pool2d")


def softmax_cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label]; scalar node."""
    zd = logits.data
    if zd.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy expects [N,K] logits, got {tuple(zd.shape)}")
    labels = np.asarray(labels)
    n, k = zd.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"labels shape {tuple(labels.shape)} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0,{k}): {labels.min()}..{labels.max()}")
    shifted = zd - zd.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    loss = -logp[rows, labels].mean()

    def vjp(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        return (p * (float(g) / n),)

    return Tensor(loss, parents=(logits,), vjp=vjp, op="softmax_cross_entropy")


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss):
    """Gradients of a scalar loss for every reachable learnable leaf.

    Returns a map {leaf Tensor -> gradient array}; a parameter used along
    several paths receives the sum of all path gradients. Leaves that the
    loss does not depend on are absent from the map. The walk never enters
    a node that needs no gradient, so no vjp computes one nothing reads.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}

    topo, visited = [], set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    # every node on the walk needs a gradient and receives one
    grads = {id(loss): np.ones_like(loss.data)}
    leaf_grads = {}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if not node.parents:
            leaf_grads[node] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent.requires_grad:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return leaf_grads


def finite_diff_grad(loss_fn, param, h=1e-5):
    """Central-difference gradient of loss_fn w.r.t. every entry of param.

    loss_fn must be deterministic and re-read param.data on each call;
    entries are perturbed in place and restored.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        hi = float(loss_fn().data)
        flat[i] = saved - h
        lo = float(loss_fn().data)
        flat[i] = saved
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(param.data.shape)


def max_rel_error(approx, exact, floor=1e-3):
    """max |a-e| / max(|a|+|e|, floor); the floor keeps near-zero entries honest."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.abs(approx) + np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / denom)) if approx.size else 0.0
