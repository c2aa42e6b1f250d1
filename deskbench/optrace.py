"""Per-layer timing from outside the library.

OpTracer wraps the public functions of each module where their callers
look them up, and swaps the vjp closure of every Tensor those functions
return for a timed one (Tensor's __slots__ allow the assignment):

- gradcore: the module attributes network.forward calls (conv2d, relu,
  max_pool2d, dense);
- trainer: the names it imported (backward, softmax_cross_entropy,
  sgd_step, augment_batch, batch_iter);
- lookup: the module's own `lookup`, reached through sys.modules;
- network: `standardize`, which StandardizeStage.apply calls.

Spans are kept in memory as (mode, record, name, start, end) and written when
the run ends. A record is one training step (closed by sgd_step) or one
eval batch (closed when trainer.evaluate asks for the next batch).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from lookupvnet import gradcore, network, trainer

LOOKUP = sys.modules["lookupvnet.lookup"]

STEP_METRICS = (
    ["lookup.fwd_ms", "lookup.bwd_ms", "lookup.rows_touched_share"]
    + [f"gradcore.{op}{i}.{d}_ms" for op in ("conv", "pool") for i in range(3) for d in ("fwd", "bwd")]
    + [f"gradcore.{op}.{d}_ms" for op in ("relu", "dense", "softmax_ce") for d in ("fwd", "bwd")]
    + [
        "gradcore.useful_grad_share",
        "gradcore.tape_ms",
        "gradcore.fwd_mflop_per_img",
        "trainer.sgd_ms",
        "data.batch_ms",
        "data.augment_ms",
        "network.standardize_ms",
    ]
)
EVAL_METRICS = ["trainer.eval_batch_ms"]


def conv_flops(x, kernels, out):
    n, j, ho, wo = out.shape
    _, c, k, _ = kernels.shape
    return n * ho * wo * j * (2 * k * k * c + 1)


def dense_flops(x, weights, out):
    n, fan_out = out.shape
    return n * fan_out * (2 * weights.shape[0] + 1)


def useful_grad_share(loss):
    """Share of parent-gradient entries backward computes that reach a learnable leaf.

    backward calls every reached node's vjp, which returns one gradient per
    parent; a gradient is useful when its parent is, or leads to, a leaf
    with requires_grad.
    """
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    reaches, useful, total = {}, 0, 0
    for node in order:  # parents before children
        if node.parents:
            reaches[id(node)] = any(reaches[id(p)] for p in node.parents)
            for p in node.parents:
                total += p.data.size
                useful += p.data.size if reaches[id(p)] else 0
        else:
            reaches[id(node)] = node.requires_grad
    return useful / total if total else 1.0


class OpTracer:
    def __init__(self):
        self.spans = []
        self.mode = "train"
        self.record = defaultdict(float)
        self.steps, self.eval_batches = [], []
        self.flops = 0  # forward flops of every traced op, from shapes
        self._vjp_seconds = 0.0
        self._block = 0
        self._saved = []

    # -- records and spans

    def _span(self, name, start, end):
        self.spans.append((self.mode, len(self.steps) if self.mode == "train" else len(self.eval_batches),
                           name, start, end))
        self.record[name + "_ms"] += (end - start) * 1e3

    def _close(self):
        (self.steps if self.mode == "train" else self.eval_batches).append(dict(self.record))
        self.record = defaultdict(float)

    def set_mode(self, mode):
        self.record = defaultdict(float)
        self.mode = mode

    # -- wrappers

    def _timed_vjp(self, name, vjp):
        def timed(g):
            start = time.perf_counter()
            grads = vjp(g)
            end = time.perf_counter()
            self._span(name + ".bwd", start, end)
            # the wrapper's whole time, bookkeeping included, so that
            # gradcore.tape_ms holds none of the tracer's own cost
            self._vjp_seconds += time.perf_counter() - start
            return grads

        return timed

    def _op(self, fn, name_of, flops_of=None):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            name = name_of(args)
            self._span(name + ".fwd", start, end)
            if flops_of is not None:
                flops = flops_of(args[0].data, args[1].data, out.data)
                self.record["flops"] += flops
                self.flops += flops
                self.record["images"] = args[0].data.shape[0]
            if out.vjp is not None:
                out.vjp = self._timed_vjp(name, out.vjp)
            return out

        return wrapped

    def _conv_name(self, args):
        self._block = int(args[1].op[4:].split(".")[0])  # kernels are named "conv{i}.w"
        return f"gradcore.conv{self._block}"

    def _lookup(self, fn):
        def wrapped(images, tables):
            start = time.perf_counter()
            result = fn(images, tables)
            end = time.perf_counter()
            self._span("lookup.fwd", start, end)
            rows = tables.tables[0].data.shape[0]
            touched = [np.unique(result.indices[:, ch]).size for ch in range(3)]
            self.record["lookup.rows_touched_share"] = sum(touched) / (3 * rows)
            result.values.vjp = self._timed_vjp("lookup", result.values.vjp)
            return result

        return wrapped

    def _timed(self, fn, name):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self._span(name, start, time.perf_counter())
            return out

        return wrapped

    def _backward(self, fn):
        def wrapped(loss):
            self.record["gradcore.useful_grad_share"] = useful_grad_share(loss)
            self._vjp_seconds = 0.0
            start = time.perf_counter()
            grads = fn(loss)
            end = time.perf_counter()
            self.spans.append((self.mode, len(self.steps), "gradcore.backward", start, end))
            self.record["gradcore.tape_ms"] += (end - start - self._vjp_seconds) * 1e3
            return grads

        return wrapped

    def _sgd_step(self, fn):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            fn(*args, **kwargs)
            self._span("trainer.sgd", start, time.perf_counter())
            self._close()

        return wrapped

    def _batch_iter(self, fn):
        def wrapped(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                handed = time.perf_counter()
                if self.mode == "train":
                    self._span("data.batch", start, handed)
                yield batch
                if self.mode == "eval":
                    self._span("trainer.eval_batch", handed, time.perf_counter())
                    self._close()

        return wrapped

    # -- install / uninstall

    def _patch(self, module, name, wrapper):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrapper(original))

    def __enter__(self):
        pool_name = lambda args: f"gradcore.pool{self._block}"  # noqa: E731
        self._patch(gradcore, "conv2d", lambda f: self._op(f, self._conv_name, conv_flops))
        self._patch(gradcore, "max_pool2d", lambda f: self._op(f, pool_name))
        self._patch(gradcore, "relu", lambda f: self._op(f, lambda a: "gradcore.relu"))
        self._patch(gradcore, "dense", lambda f: self._op(f, lambda a: "gradcore.dense", dense_flops))
        self._patch(trainer, "softmax_cross_entropy", lambda f: self._op(f, lambda a: "gradcore.softmax_ce"))
        self._patch(trainer, "backward", self._backward)
        self._patch(trainer, "sgd_step", self._sgd_step)
        self._patch(trainer, "augment_batch", lambda f: self._timed(f, "data.augment"))
        self._patch(trainer, "batch_iter", self._batch_iter)
        self._patch(LOOKUP, "lookup", self._lookup)
        self._patch(network, "standardize", lambda f: self._timed(f, "network.standardize"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results

    def medians(self):
        """Median over traced training steps (eval batches for eval metrics)
        of each metric's per-record total; absent layers read 0."""
        out = {}
        for name in STEP_METRICS:
            if name == "gradcore.fwd_mflop_per_img":
                values = [r.get("flops", 0.0) / r["images"] / 1e6 for r in self.steps if r.get("images")]
            else:
                values = [r.get(name, 0.0) for r in self.steps]
            out[name] = float(np.median(values)) if values else 0.0
        for name in EVAL_METRICS:
            values = [r.get(name, 0.0) for r in self.eval_batches]
            out[name] = float(np.median(values)) if values else 0.0
        return out

    def write(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("mode,record,name,start_us,end_us\n")
            for mode, record, name, start, end in self.spans:
                fh.write(f"{mode},{record},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
