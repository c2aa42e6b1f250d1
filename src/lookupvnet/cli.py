"""Command-line surface: train/evaluate the three strategies, check
gradients against finite differences, print cost reports, and recode
images through learned tables.

Dataset specs: "synthetic:separable", "synthetic:striped",
"cifar10:<file-or-dir>" (bare "cifar10" reads $LOOKUPVNET_DATA), or
"file:<path>" for sets written by data.save_image_set.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import costing, data, network, recode, trainer
from .gradcore import backward, finite_diff_grad, max_rel_error, softmax_cross_entropy
from .lookup import init_tables
from .network import ConvSpec, ModelConfig, StandardizeStage, build_model
from .trainer import OptimState, TrainPlan

DATA_ENV = "LOOKUPVNET_DATA"
GRADCHECK_TOLERANCE = 1e-4


class CliError(Exception):
    pass


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _add_model_flags(p):
    p.add_argument("--filters", default="8,16,16", help="comma list, one conv block per entry")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--no-pool", action="store_true", help="disable 2x2 pooling after each block")
    p.add_argument("--head", type=int, default=64, help="hidden width of the classifier head")


def _add_table_flags(p):
    p.add_argument("--table", choices=["full", "compressed"], default="full")
    p.add_argument("--dim", type=int, default=1, help="vector dimension u for full tables")
    p.add_argument("--cmp-rate", type=int, default=None, help="compression rate c (1..256)")
    p.add_argument("--baseline", action="store_true", help="standard net on standardized pixels")
    p.add_argument("--std-dataset", action="store_true",
                   help="baseline uses dataset-level stats instead of per-image")


def _add_data_flags(p):
    p.add_argument("--dataset", default="synthetic:separable")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--limit-per-class", type=int, default=None,
                   help="balanced subset size for loaded datasets")


def build_parser():
    parser = argparse.ArgumentParser(prog="lookupvnet")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one of the three strategies")
    train.add_argument("--config", default=None, help="key=value file of defaults")
    train.add_argument("--strategy", choices=["single", "cross-network", "cross-task"],
                       default="single")
    train.add_argument("--dataset2", default=None, help="second task for cross-task")
    _add_data_flags(train)
    _add_table_flags(train)
    _add_model_flags(train)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--momentum", type=float, default=0.9)
    train.add_argument("--weight-decay", type=float, default=5e-4)
    train.add_argument("--decay-tables", action="store_true")
    train.add_argument("--lr-milestones", default="", help="comma list of epochs")
    train.add_argument("--lr-divisor", type=float, default=2.0)
    train.add_argument("--alternation-steps", type=int, default=1)
    train.add_argument("--freeze-tables", action="store_true")
    train.add_argument("--no-augment", action="store_true")
    train.add_argument("--pad", type=int, default=4)
    train.add_argument("--hflip", type=float, default=0.5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="lookupvnet-run")

    evalp = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    evalp.add_argument("--checkpoint", required=True)
    _add_data_flags(evalp)

    grad = sub.add_parser("gradcheck", help="reverse-mode vs central differences")
    grad.add_argument("--table", choices=["full", "compressed"], default="full")
    grad.add_argument("--dim", type=int, default=2)
    grad.add_argument("--cmp-rate", type=int, default=None)
    grad.add_argument("--seed", type=int, default=0)

    cost = sub.add_parser("cost", help="extra parameter/flop/bit accounting")
    cost.add_argument("--u", type=int, default=None)
    cost.add_argument("--cmp-rate", type=int, default=None)
    cost.add_argument("--m", type=int, default=32)
    cost.add_argument("--n", type=int, default=32)
    cost.add_argument("--s", type=int, default=1)
    cost.add_argument("--k", type=int, default=3)
    cost.add_argument("--j", type=int, default=16)

    rec = sub.add_parser("recode", help="write original/recoded PPM pairs")
    rec.add_argument("--checkpoint", required=True)
    rec.add_argument("--count", type=int, default=8)
    rec.add_argument("--out", default="recoded")
    _add_data_flags(rec)

    parser.train_parser = train
    return parser


# ---------------------------------------------------------------------------
# config files: key=value lines applied as defaults to the train command


def apply_config_file(args, parser_actions, path):
    converters = {}
    for action in parser_actions:
        if action.dest in ("help", "command", "config"):
            continue
        converters[action.dest] = action
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not eq:
                raise CliError(f"{path}:{line_no}: expected key=value, got {line!r}")
            if key not in converters:
                raise CliError(f"{path}:{line_no}: unknown config key {key!r}")
            action = converters[key]
            try:
                if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                    parsed = value.lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    parsed = action.type(value)
                else:
                    parsed = value
            except ValueError:
                raise CliError(f"{path}:{line_no}: bad value for {key!r}: {value!r}")
            setattr(args, key, parsed)


# ---------------------------------------------------------------------------
# dataset wiring


def _load_dataset(args, spec, role):
    """role distinguishes train/test seeds for generated sets."""
    kind, _, rest = spec.partition(":")
    if kind == "synthetic":
        flavor = rest or "separable"
        seed = [args.data_seed, 0 if role == "train" else 1]
        per_class = args.per_class if role == "train" else max(10, args.per_class // 5)
        return data.make_synthetic(flavor, per_class, args.classes,
                                   args.image_size, args.image_size, seed)
    if kind == "cifar10":
        root = rest or os.environ.get(DATA_ENV, "")
        if not root:
            raise CliError(f"dataset {spec!r} needs a path or ${DATA_ENV}")
        if os.path.isdir(root):
            train, test = data.load_cifar10_dir(root)
            chosen = train if role == "train" else test
        else:
            chosen = data.load_cifar10_binary(root)
        if args.limit_per_class:
            chosen = data.balanced_subset(chosen, args.limit_per_class, args.data_seed)
        return chosen
    if kind == "file":
        loaded = data.load_image_set(rest)
        if args.limit_per_class:
            loaded = data.balanced_subset(loaded, args.limit_per_class, args.data_seed)
        return loaded
    raise CliError(f"unknown dataset spec {spec!r}")


def _make_stage(args, train_set, seed):
    if args.baseline:
        if args.std_dataset:
            stats = network.ChannelStats.from_images(train_set.images, eps=1e-8)
            return StandardizeStage(stats=stats, eps=1e-8)
        return StandardizeStage(per_image=True, eps=1e-8)
    if args.table == "compressed" or args.cmp_rate is not None:
        rate = args.cmp_rate if args.cmp_rate is not None else 2
        return init_tables("compressed", rate, seed)
    return init_tables("full", args.dim, seed)


def _make_model_config(args, stage, train_set, seed):
    filters = _int_list(args.filters)
    blocks = tuple(
        ConvSpec(kernel=args.kernel, filters=j, stride=args.stride, pool=not args.no_pool)
        for j in filters
    )
    return ModelConfig(
        input_channels=stage.output_channels,
        conv_blocks=blocks,
        head_width=args.head,
        class_count=train_set.class_count,
        input_size=(train_set.height, train_set.width),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    train_set = _load_dataset(args, args.dataset, "train")
    test_set = _load_dataset(args, args.dataset, "test")
    stage = _make_stage(args, train_set, seed=args.seed + 1000)

    augment = None
    if not args.no_augment:
        augment = data.AugmentSpec(pad=args.pad, hflip_prob=args.hflip)
    plan = TrainPlan(
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        augment=augment,
        alternation_steps=args.alternation_steps,
        freeze_tables=args.freeze_tables,
    )
    milestones = _int_list(args.lr_milestones)

    def fresh_optim():
        return OptimState(
            lr=args.lr,
            momentum=args.momentum,
            weight_decay=args.weight_decay,
            decay_tables=args.decay_tables,
            lr_milestones=milestones,
            lr_divisor=args.lr_divisor,
        )

    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    if args.strategy == "single":
        model = build_model(_make_model_config(args, stage, train_set, args.seed))
        optim = fresh_optim()
        metrics = trainer.train_single(model, stage, train_set, plan, optim, test_set=test_set)
        metrics.write_csv(os.path.join(args.out, "metrics.csv"))
        trainer.save_checkpoint(os.path.join(args.out, "checkpoint.lvnc"), model, stage, optim, rng)
        print(f"final test accuracy: {metrics.final_test_acc:.6f}")
        return 0

    if args.baseline:
        raise CliError("cross strategies require a table stage, not --baseline")
    if args.strategy == "cross-task":
        if not args.dataset2:
            raise CliError("cross-task needs --dataset2")
        train_q = _load_dataset(args, args.dataset2, "train")
        test_q = _load_dataset(args, args.dataset2, "test")
    else:
        train_q, test_q = train_set, test_set

    model_f = build_model(_make_model_config(args, stage, train_set, args.seed))
    model_g = build_model(_make_model_config(args, stage, train_q, args.seed + 1))
    optim_f, optim_g = fresh_optim(), fresh_optim()
    if args.strategy == "cross-network":
        metrics_f, metrics_g = trainer.train_cross_network(
            model_f, model_g, stage, train_set, plan, optim_f, optim_g, test_set=test_set
        )
    else:
        metrics_f, metrics_g = trainer.train_cross_task(
            model_f, model_g, stage, train_set, train_q, plan, optim_f, optim_g,
            test_p=test_set, test_q=test_q,
        )
    metrics_f.write_csv(os.path.join(args.out, "metrics_f.csv"))
    metrics_g.write_csv(os.path.join(args.out, "metrics_g.csv"))
    trainer.save_checkpoint(os.path.join(args.out, "checkpoint_f.lvnc"), model_f, stage, optim_f, rng)
    trainer.save_checkpoint(os.path.join(args.out, "checkpoint_g.lvnc"), model_g, stage, optim_g, rng)
    print(f"final test accuracy: {metrics_f.final_test_acc:.6f}")
    print(f"final test accuracy (g): {metrics_g.final_test_acc:.6f}")
    return 0


def cmd_eval(args):
    sections = trainer.read_checkpoint(args.checkpoint)
    model = trainer.restore_model(sections)
    stage = trainer.restore_stage(sections)
    test_set = _load_dataset(args, args.dataset, "test")
    acc = trainer.evaluate(model, stage, test_set)
    print(f"final test accuracy: {acc:.6f}")
    return 0


def gradcheck_report(table_kind, dim_or_rate, seed):
    """Tiny fixed model (well under 5,000 parameters), all-parameter check."""
    stage = init_tables(table_kind, dim_or_rate, seed + 1)
    cfg = ModelConfig(
        input_channels=stage.output_channels,
        conv_blocks=(ConvSpec(kernel=3, filters=4, stride=1, pool=True),),
        head_width=8,
        class_count=3,
        input_size=(8, 8),
        seed=seed,
    )
    model = build_model(cfg)
    assert model.param_count() <= 5000
    rng = np.random.default_rng(seed + 2)
    images = rng.integers(0, 256, size=(2, 3, 8, 8)).astype(np.uint8)
    labels = rng.integers(0, 3, size=2)

    def loss_fn():
        return softmax_cross_entropy(network.forward(model, stage.apply(images)), labels)

    grad_map = backward(loss_fn())
    worst = {"weights": 0.0, "tables": 0.0}
    for name, tensor in {**{f"model/{n}": t for n, t in model.parameters().items()},
                         **stage.parameters()}.items():
        exact = finite_diff_grad(loss_fn, tensor, h=1e-5)
        got = grad_map.get(tensor)
        got = np.zeros_like(tensor.data) if got is None else got
        bucket = "tables" if name.startswith("tables/") else "weights"
        worst[bucket] = max(worst[bucket], max_rel_error(got, exact))
    return worst


def cmd_gradcheck(args):
    rate = args.cmp_rate if args.cmp_rate is not None else 16
    value = rate if args.table == "compressed" else args.dim
    worst = gradcheck_report(args.table, value, args.seed)
    ok = max(worst.values()) < GRADCHECK_TOLERANCE
    print(f"max relative error, weights: {worst['weights']:.3e}")
    print(f"max relative error, tables:  {worst['tables']:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_cost(args):
    if args.u is None and args.cmp_rate is None:
        raise CliError("cost needs --u or --cmp-rate")
    report = costing.cost_report(m=args.m, n=args.n, s=args.s, k=args.k, j=args.j,
                                 u=args.u, c=args.cmp_rate)
    print(report.as_text())
    print()
    print(report.as_kv())
    return 0


def cmd_recode(args):
    sections = trainer.read_checkpoint(args.checkpoint)
    if not any(name.startswith("tables/") for name in sections):
        raise CliError(f"{args.checkpoint}: no table sections; recode needs a table stage")
    stage = trainer.restore_stage(sections)
    dataset = _load_dataset(args, args.dataset, "test")
    images = dataset.images[: args.count]
    paths = recode.recode_images(images, stage, args.out)
    print(f"wrote {len(paths)} original/recoded pairs to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train" and args.config:
            apply_config_file(args, parser.train_parser._actions, args.config)
            args = parser.parse_args(argv, namespace=args)  # explicit flags win
        handler = {
            "train": cmd_train,
            "eval": cmd_eval,
            "gradcheck": cmd_gradcheck,
            "cost": cmd_cost,
            "recode": cmd_recode,
        }[args.command]
        return handler(args)
    except (CliError, trainer.TrainingDiverged, data.DatasetFormatError,
            FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
