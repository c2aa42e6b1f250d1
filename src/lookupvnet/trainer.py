"""SGD-with-momentum training of weights and color tables together.

One optimizer step covers the joint parameter list (network weights plus
table entries, one shared learning rate). Three strategies: single
network on one task, two networks alternating on one task with shared
tables, and two networks alternating on two tasks with shared tables.
Also owns the binary checkpoint format and the metrics CSV log.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import gradcore, network
from .data import AugmentSpec, augment_batch, batch_iter
from .gradcore import Tensor, backward, softmax_cross_entropy
from .lookup import LookupTables


class TrainingDiverged(RuntimeError):
    """Raised by the watchdog: a non-finite train loss names its step, a
    non-finite parameter or test loss the epoch that produced it."""


@dataclass
class OptimState:
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    decay_tables: bool = False  # tables are inputs, not weights; off by default
    lr_milestones: tuple = ()  # epochs at which the rate is divided
    lr_divisor: float = 2.0
    velocities: dict = field(default_factory=dict)

    def lr_at(self, epoch):
        hits = sum(1 for m in self.lr_milestones if epoch >= m)
        return self.lr / (self.lr_divisor**hits)


def sgd_step(params, grads, state, lr=None):
    """v <- mu*v + (g + wd*p); p <- p - lr*v, applied to every named parameter.

    Table entries (names under "tables/") follow the same rule with the
    same rate but skip weight decay unless state.decay_tables is set.
    """
    lr = state.lr if lr is None else lr
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param.data)
        if grad.shape != param.data.shape:
            raise gradcore.ShapeMismatchError(
                f"gradient shape {grad.shape} does not match parameter {name} {param.data.shape}"
            )
        wd = state.weight_decay
        if name.startswith("tables/") and not state.decay_tables:
            wd = 0.0
        update = grad + wd * param.data if wd else grad
        velocity = state.velocities.get(name)
        if velocity is None:
            velocity = np.zeros_like(param.data)
        velocity = state.momentum * velocity + update
        state.velocities[name] = velocity
        param.data = param.data - lr * velocity


@dataclass
class TrainPlan:
    epochs: int
    batch_size: int = 64
    seed: int = 0
    augment: AugmentSpec | None = None
    alternation_steps: int = 1  # mini-batches per network before switching
    freeze_tables: bool = False


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    seconds: float


@dataclass
class Metrics:
    rows: list = field(default_factory=list)

    @property
    def final_test_acc(self):
        return self.rows[-1].test_acc if self.rows else float("nan")

    def csv_lines(self):
        lines = ["epoch,split,loss,accuracy,seconds"]
        for r in self.rows:
            lines.append(f"{r.epoch},train,{r.train_loss:.10f},{r.train_acc:.6f},{r.seconds:.3f}")
            lines.append(f"{r.epoch},test,{r.test_loss:.10f},{r.test_acc:.6f},{r.seconds:.3f}")
        return lines

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def _trainable(model, stage, freeze_tables):
    params = {f"model/{name}": t for name, t in model.parameters().items()}
    if not freeze_tables:
        params.update(stage.parameters())
    return params


def _batch_step(model, stage, images, labels, plan, optim, lr, where):
    """Forward, joint backward, one optimizer step; returns (loss, hits)."""
    coded = stage.apply(images)
    if plan.freeze_tables:  # a constant input: no table scatter, no conv0 input gradient
        coded = Tensor(coded.data)
    logits = network.forward(model, coded)
    loss = softmax_cross_entropy(logits, labels)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingDiverged(f"non-finite loss at {where}; lower the learning rate")
    grad_map = backward(loss)
    params = _trainable(model, stage, plan.freeze_tables)
    grads = {name: grad_map.get(tensor) for name, tensor in params.items()}
    sgd_step(params, grads, optim, lr=lr)
    hits = int((logits.data.argmax(axis=1) == labels).sum())
    return loss_value, hits


def _eval_loss_acc(model, stage, dataset, batch_size=256):
    # no tape: each activation is freed once the next op has read it
    total_loss, hits = 0.0, 0
    with gradcore.no_grad():
        for images, labels in batch_iter(dataset, batch_size):
            logits = network.forward(model, stage.apply(images))
            total_loss += float(softmax_cross_entropy(logits, labels).data) * len(labels)
            hits += int((logits.data.argmax(axis=1) == labels).sum())
    return total_loss / len(dataset), hits / len(dataset)


def _end_epoch(model, stage, test_set, freeze_tables, where):
    """Test loss and accuracy after an epoch, NaN without a test set.

    Raises TrainingDiverged on a non-finite trainable parameter or test
    loss: a run can keep a finite train loss while its weights blow up.
    """
    for name, tensor in _trainable(model, stage, freeze_tables).items():
        if not np.all(np.isfinite(tensor.data)):
            raise TrainingDiverged(f"non-finite parameter {name} after {where}; lower the learning rate")
    if test_set is None:
        return float("nan"), float("nan")
    test_loss, test_acc = _eval_loss_acc(model, stage, test_set)
    if not np.isfinite(test_loss):
        raise TrainingDiverged(f"test loss {test_loss} after {where}; lower the learning rate")
    return test_loss, test_acc


def evaluate(model, stage, dataset, batch_size=256):
    """Argmax accuracy over the single unaugmented view of each image."""
    return _eval_loss_acc(model, stage, dataset, batch_size)[1]


def train_single(model, stage, train_set, plan, optim, test_set=None, timer=time.perf_counter):
    """Joint optimization of one network and its input stage."""
    metrics = Metrics()
    for epoch in range(plan.epochs):
        start = timer()
        lr = optim.lr_at(epoch)
        aug_rng = np.random.default_rng([plan.seed, epoch, 1])
        loss_sum, hits, seen = 0.0, 0, 0
        for step, (images, labels) in enumerate(
            batch_iter(train_set, plan.batch_size, shuffle_seed=[plan.seed, epoch])
        ):
            if plan.augment is not None:
                images = augment_batch(images, plan.augment, aug_rng)
            loss, batch_hits = _batch_step(
                model, stage, images, labels, plan, optim, lr, f"epoch {epoch} step {step}"
            )
            loss_sum += loss * len(labels)
            hits += batch_hits
            seen += len(labels)
        test_loss, test_acc = _end_epoch(model, stage, test_set, plan.freeze_tables, f"epoch {epoch}")
        metrics.rows.append(
            EpochRow(epoch, loss_sum / seen, hits / seen, test_loss, test_acc, timer() - start)
        )
    return metrics


def _alternating(model_f, model_g, tables, streams, plan, optim_f, optim_g, test_sets, timer, step_hook):
    metrics_f, metrics_g = Metrics(), Metrics()
    sides = (
        ("f", model_f, optim_f, metrics_f),
        ("g", model_g, optim_g, metrics_g),
    )
    for epoch in range(plan.epochs):
        start = timer()
        lr = {"f": optim_f.lr_at(epoch), "g": optim_g.lr_at(epoch)}
        aug_rng = np.random.default_rng([plan.seed, epoch, 1])
        totals = {name: [0.0, 0, 0] for name, *_ in sides}  # loss_sum, hits, seen
        iters = [iter(batch_iter(s, plan.batch_size, shuffle_seed=[plan.seed, epoch, i])) for i, s in enumerate(streams)]
        live, step, turn = [True, True], 0, 0
        while any(live):
            name, active_model, active_optim, _ = sides[turn]
            if live[turn]:
                for _ in range(plan.alternation_steps):
                    try:
                        images, labels = next(iters[turn])
                    except StopIteration:
                        live[turn] = False
                        break
                    if plan.augment is not None:
                        images = augment_batch(images, plan.augment, aug_rng)
                    if step_hook:
                        step_hook(f"before_{name}", step)
                    loss, batch_hits = _batch_step(
                        active_model, tables, images, labels, plan, active_optim, lr[name],
                        f"epoch {epoch} step {step} net {name}",
                    )
                    if step_hook:
                        step_hook(f"after_{name}", step)
                    totals[name][0] += loss * len(labels)
                    totals[name][1] += batch_hits
                    totals[name][2] += len(labels)
                    step += 1
            turn = 1 - turn
        elapsed = timer() - start
        for i, (name, active_model, _, metric) in enumerate(sides):
            loss_sum, hits, seen = totals[name]
            test_loss, test_acc = _end_epoch(
                active_model, tables, test_sets[i], plan.freeze_tables, f"epoch {epoch} net {name}"
            )
            metric.rows.append(
                EpochRow(
                    epoch,
                    loss_sum / seen if seen else float("nan"),
                    hits / seen if seen else float("nan"),
                    test_loss,
                    test_acc,
                    elapsed,
                )
            )
    return metrics_f, metrics_g


def train_cross_network(model_f, model_g, tables, train_set, plan, optim_f, optim_g,
                        test_set=None, timer=time.perf_counter, step_hook=None):
    """Two networks alternate mini-batch steps on one task, sharing tables.

    An f-step touches only the f weights plus the tables; a g-step only
    the g weights plus the tables. Each optimizer keeps its own velocity
    for the shared table entries.
    """
    _check_compatible(model_f, model_g, tables)
    return _alternating(
        model_f, model_g, tables, (train_set, train_set), plan, optim_f, optim_g,
        (test_set, test_set), timer, step_hook,
    )


def train_cross_task(model_f, model_g, tables, train_p, train_q, plan, optim_f, optim_g,
                     test_p=None, test_q=None, timer=time.perf_counter, step_hook=None):
    """Same alternation, but f draws batches from task p and g from task q."""
    _check_compatible(model_f, model_g, tables)
    return _alternating(
        model_f, model_g, tables, (train_p, train_q), plan, optim_f, optim_g,
        (test_p, test_q), timer, step_hook,
    )


def _check_compatible(model_f, model_g, tables):
    want = tables.output_channels
    for label, model in (("f", model_f), ("g", model_g)):
        if model.config.input_channels != want:
            raise gradcore.ShapeMismatchError(
                f"model {label} expects {model.config.input_channels} input channels, "
                f"tables produce {want}"
            )


# ---------------------------------------------------------------------------
# checkpoint format: magic "LVNC", version byte, length-prefixed named
# sections of (name, shape, little-endian float64 payload)

CHECKPOINT_MAGIC = b"LVNC"
CHECKPOINT_VERSION = 1


def _write_section(fh, name, array):
    encoded = name.encode("utf-8")
    array = np.asarray(array, dtype="<f8", order="C")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", array.ndim))
    for dim in array.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(array.tobytes())


def write_checkpoint(path, sections):
    """sections: ordered {name: float64 array}; order is preserved on disk."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        for name, array in sections.items():
            _write_section(fh, name, array)


def read_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")

    def need(offset, size, what):
        if offset + size > len(blob):
            raise ValueError(
                f"{path}: truncated checkpoint: {what} needs {size} bytes at byte offset {offset}, "
                f"but the file ends at {len(blob)}"
            )

    need(4, 1, "the version byte")
    if blob[4] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob[4]}")
    sections, offset = {}, 5
    while offset < len(blob):
        need(offset, 2, f"the name length of section #{len(sections)}")
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        need(offset, name_len, f"the name of section #{len(sections)}")
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        need(offset, 1, f"the rank of section {name!r}")
        rank = blob[offset]
        offset += 1
        need(offset, 4 * rank, f"the shape of section {name!r}")
        shape = struct.unpack_from(f"<{rank}I", blob, offset) if rank else ()
        offset += 4 * rank
        count = math.prod(shape)  # Python ints: a corrupt shape cannot wrap around
        need(offset, 8 * count, f"the payload of section {name!r}")
        array = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
        sections[name] = array.astype(np.float64)
    return sections


def _pack_rng(rng):
    # PCG64 state as exact 32-bit limbs, stored in the f64 payload
    state = rng.bit_generator.state
    limbs = []
    for value in (state["state"]["state"], state["state"]["inc"]):
        for _ in range(4):
            limbs.append(value & 0xFFFFFFFF)
            value >>= 32
    limbs.append(state["has_uint32"])
    limbs.append(state["uinteger"])
    return np.array(limbs, dtype=np.float64)


def _unpack_rng(limbs):
    limbs = [int(v) for v in limbs]
    values = []
    for base in (0, 4):
        value = 0
        for i in reversed(range(4)):
            value = (value << 32) | limbs[base + i]
        values.append(value)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": values[0], "inc": values[1]},
        "has_uint32": limbs[8],
        "uinteger": limbs[9],
    }
    return rng


_STAGE_CODES = {"standardize": 0.0, "full": 1.0, "compressed": 2.0}
_STAGE_KINDS = {code: kind for kind, code in _STAGE_CODES.items()}


def checkpoint_sections(model, stage, optim=None, rng=None):
    """Assemble the section map for one model plus its input stage."""
    cfg = model.config
    meta = [
        cfg.input_channels, cfg.head_width, cfg.class_count,
        cfg.input_size[0], cfg.input_size[1], cfg.pool_window, cfg.seed,
        len(cfg.conv_blocks),
    ]
    for block in cfg.conv_blocks:
        meta.extend([block.kernel, block.filters, block.stride, 1 if block.pool else 0])
    sections = {"meta/model": np.array(meta, dtype=np.float64)}

    if stage.kind == "standardize":
        stats = stage.stats
        sections["meta/stage"] = np.array(
            [_STAGE_CODES["standardize"], 1.0 if stage.per_image else 0.0, stage.eps]
        )
        if stats is not None:
            sections["stage/mean"] = stats.mean
            sections["stage/std"] = stats.std
    else:
        sections["meta/stage"] = np.array([_STAGE_CODES[stage.kind], float(stage.value)])

    for name, tensor in model.parameters().items():
        sections[f"model/{name}"] = tensor.data
    for name, tensor in stage.parameters().items():
        sections[name] = tensor.data
    if optim is not None:
        for name, velocity in optim.velocities.items():
            sections[f"velocity/{name}"] = velocity
    if rng is not None:
        sections["rng/state"] = _pack_rng(rng)
    return sections


def save_checkpoint(path, model, stage, optim=None, rng=None):
    write_checkpoint(path, checkpoint_sections(model, stage, optim, rng))


def _section(sections, name):
    # a checkpoint cut at a section boundary still parses, so check here
    if name not in sections:
        raise ValueError(f"checkpoint has no section {name!r}")
    return sections[name]


def _check_length(name, meta, need):
    if len(meta) != need:
        raise ValueError(f"checkpoint section {name!r} holds {len(meta)} values but needs {need}")


def _check_values(name, meta, fractional=()):
    # int() raises OverflowError on inf and truncates 2.5; name the entry instead
    for i, v in enumerate(meta):
        if not math.isfinite(v) or (i not in fractional and v != int(v)):
            need = "a finite number" if i in fractional else "a whole number"
            raise ValueError(f"checkpoint section {name!r} value {i} is {v}, not {need}")


def restore_model(sections):
    meta = _section(sections, "meta/model")
    _check_values("meta/model", meta)
    meta = [int(v) for v in meta]
    _check_length("meta/model", meta, 8 + 4 * meta[7] if len(meta) >= 8 else 8)
    n_blocks = meta[7]
    blocks = []
    for i in range(n_blocks):
        k, j, s, pool = meta[8 + 4 * i : 12 + 4 * i]
        blocks.append(network.ConvSpec(kernel=k, filters=j, stride=s, pool=bool(pool)))
    cfg = network.ModelConfig(
        input_channels=meta[0],
        conv_blocks=tuple(blocks),
        head_width=meta[1],
        class_count=meta[2],
        input_size=(meta[3], meta[4]),
        seed=meta[6],
        pool_window=meta[5],
    )
    model = network.build_model(cfg)
    for name in list(model.params):
        model.params[name] = Tensor(_section(sections, f"model/{name}").copy(), requires_grad=True, op=name)
    return model


def restore_stage(sections):
    meta = _section(sections, "meta/stage")
    kind = _STAGE_KINDS.get(float(meta[0])) if len(meta) else None
    if kind is None:
        raise ValueError(f"checkpoint section 'meta/stage' has no known stage code: {meta[:1].tolist()}")
    _check_length("meta/stage", meta, 3 if kind == "standardize" else 2)
    _check_values("meta/stage", meta, fractional=(2,) if kind == "standardize" else ())
    if kind == "standardize":
        per_image = bool(meta[1])
        eps = float(meta[2])
        if per_image:
            return network.StandardizeStage(per_image=True, eps=eps)
        mean, std = _section(sections, "stage/mean"), _section(sections, "stage/std")
        stats = network.ChannelStats(mean, std, eps=eps)
        return network.StandardizeStage(stats=stats, eps=eps)
    tables = [_section(sections, f"tables/{ch}").copy() for ch in ("r", "g", "b")]
    return LookupTables(kind, int(meta[1]), tables)
