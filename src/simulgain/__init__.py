"""Desk-scale lab for information-gain read/write policies in simultaneous translation."""

from .errors import BatchError, ConfigError, MetricError, NumericError, ShapeError
from .losses import (
    LossWeights,
    align_target,
    batch_normalize,
    bce_align_loss,
    cov_loss,
    loss_and_grad,
    total_loss,
    total_loss_grad,
)
from .metrics import (
    BinStat,
    LatencyBand,
    ParetoPoint,
    bleu,
    laal,
    latency_vs_position,
    nose,
    pareto_envelope,
    read_loop_pct,
    spearman,
)
from .policy import (
    PolicyConfig,
    PolicyParams,
    PolicyVariant,
    forward,
    forward_batch,
    init_params,
    load_params,
    save_params,
    time_embedding,
)
from .streaming import (
    EmissionLog,
    GainThresholdPolicy,
    StreamConfig,
    ThresholdPolicy,
    WaitKPolicy,
    load_logs,
    save_logs,
    simulate,
    sweep,
)
from .synth import (
    DatasetIndex,
    OracleModel,
    SynthConfig,
    Utterance,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .training import (
    LabeledBatch,
    TrainConfig,
    TrainReport,
    grad_check,
    sample_batch,
    score_info_gain_grid,
    train,
    write_training_csv,
)

__version__ = "0.1.0"
