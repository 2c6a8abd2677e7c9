"""Continual-distillation benchmark: train one student from a sequence of
teachers on a fixed unlabeled dataset and measure unseen-domain transfer
and forgetting on synthetic domain-incremental data."""

from .distill import (
    METHODS,
    LossResult,
    MethodConfig,
    dkd_loss,
    entropy,
    kl_kd_loss,
    logit_standardize,
    ls_kd_loss,
    mds_filter,
    se2d_loss,
    self_distill_loss,
)
from .domains import (
    CdScenario,
    DistillSet,
    DomainDataset,
    LabeledSet,
    ScenarioSpec,
    balance_pair_stream,
    build_scenario,
    distill_pools,
    generate_domain,
    generate_domains,
    mix_rows,
    write_domain_csv,
)
from .engine import (
    RunConfig,
    TaskLog,
    distill_task,
    evaluate,
    frozen_logits,
    new_student,
    run_sequence,
    train_teacher,
)
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    DivergenceError,
    FormatError,
    InvalidArgumentError,
    ShapeError,
)
from .metrics import (
    AccuracyMatrix,
    EntropyProfile,
    accuracy_matrix,
    average_forgetting,
    entropy_histogram,
    forgetting,
    kurtosis,
    ukt_gain,
)
from .nn_core import (
    ForwardCache,
    Layer,
    MlpModel,
    OptimizerState,
    Workspace,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    make_optimizer,
    optimizer_step,
    softmax_t,
)

__version__ = "0.1.0"
