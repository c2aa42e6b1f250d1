"""The package's public names and the table constructors callers rely on."""

import numpy as np
import pytest

import lookupvnet
from lookupvnet.lookup import CompressedLookupTables, FullLookupTables, init_tables

# every public name `lookupvnet` exported before full and compressed tables
# became one class; removing one breaks callers
PUBLIC_NAMES = [
    "AugmentSpec", "ChannelStats", "CompressedLookupTables", "ConvSpec", "CostReport",
    "FullLookupTables", "LabeledImageSet", "LookupResult", "Metrics", "Model", "ModelConfig",
    "OptimState", "StandardizeStage", "Tensor", "TrainPlan", "TrainingDiverged", "augment",
    "augment_batch", "backward", "balanced_subset", "batch_iter", "build_model",
    "compressed_index", "conv2d", "cost_report", "costing", "count_flops", "data", "dense",
    "evaluate", "extra_flops", "extra_params", "finite_diff_grad", "forward", "gradcore",
    "init_tables", "load_cifar10_binary", "load_cifar10_dir", "load_image_set", "lookup",
    "lookup_backward", "make_synthetic", "max_pool2d", "max_rel_error", "network",
    "pixel_bits", "read_checkpoint", "read_ppm", "recode", "recode_images", "relu",
    "restore_model", "restore_stage", "save_checkpoint", "save_image_set", "sgd_step",
    "softmax_cross_entropy", "standardize", "standardizing_tables", "table_size",
    "train_cross_network", "train_cross_task", "train_single", "trainer", "write_ppm",
]


def test_every_public_name_still_imports():
    assert [name for name in PUBLIC_NAMES if not hasattr(lookupvnet, name)] == []


def signature(tables):
    return tables.kind, tables.u, tables.c, tables.output_channels, list(tables.parameters())


@pytest.mark.parametrize("u", [1, 3])
def test_full_constructors_match_init_tables(u):
    want = init_tables("full", u, seed=0)
    maps = [t.data for t in want.tables]
    assert signature(FullLookupTables(u, maps)) == signature(want)
    built = FullLookupTables.from_channel_maps(maps)
    assert signature(built) == signature(want)
    for a, b in zip(built.tables, want.tables):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("c", [1, 16, 100, 256])
def test_compressed_constructor_matches_init_tables(c):
    want = init_tables("compressed", c, seed=0)
    built = CompressedLookupTables(c, [t.data for t in want.tables])
    assert signature(built) == signature(want)
