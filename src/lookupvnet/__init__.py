"""Jointly learned color-table input codings and small CPU conv nets."""

from .costing import CostReport, cost_report, extra_flops, extra_params, pixel_bits
from .data import (
    AugmentSpec,
    LabeledImageSet,
    augment,
    augment_batch,
    balanced_subset,
    batch_iter,
    load_cifar10_binary,
    load_cifar10_dir,
    load_image_set,
    make_synthetic,
    save_image_set,
)
from .gradcore import (
    Tensor,
    backward,
    conv2d,
    count_flops,
    dense,
    finite_diff_grad,
    max_pool2d,
    max_rel_error,
    relu,
    softmax_cross_entropy,
)
from .lookup import (
    CompressedLookupTables,
    FullLookupTables,
    LookupResult,
    LookupTables,
    compressed_index,
    init_tables,
    lookup,
    lookup_backward,
    table_size,
)
from .network import (
    ChannelStats,
    ConvSpec,
    Model,
    ModelConfig,
    StandardizeStage,
    build_model,
    forward,
    standardize,
    standardizing_tables,
)
from .recode import read_ppm, recode_images, write_ppm
from .trainer import (
    Metrics,
    OptimState,
    TrainPlan,
    TrainingDiverged,
    evaluate,
    read_checkpoint,
    restore_model,
    restore_stage,
    save_checkpoint,
    sgd_step,
    train_cross_network,
    train_cross_task,
    train_single,
)

__version__ = "0.1.0"
