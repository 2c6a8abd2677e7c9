"""Training engine: teacher pretraining, the sequential distillation loop,
evaluation, and binary checkpoints.

A run owns its student model and optimizer state exclusively; teacher and
checkpoint models are only ever read. Teachers are consumed through a
forward-only iterator so that code inside one task cannot reach back to an
earlier teacher.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .distill import (
    CHECKPOINT_METHODS,
    MethodConfig,
    dkd_loss,
    dkd_targets,
    kl_kd_loss,
    ls_kd_loss,
    ls_targets,
    mds_filter,
    se2d_loss,
    self_distill_loss,
    soft_targets,
    teacher_entropy,
)
from .domains import CdScenario, DistillSet, LabeledSet, balance_pair_stream
from .errors import DivergenceError, FormatError, InvalidArgumentError
from .nn_core import (
    OPTIMIZER_KINDS,
    Layer,
    Matrix,
    MlpModel,
    Workspace,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    make_optimizer,
    optimizer_step,
)

CHECKPOINT_MAGIC = b"CDCKPT"
CHECKPOINT_VERSION = b"01"

# Tags separating the engine's derived seed streams.
_SEED_TEACHER = 21
_SEED_STUDENT = 22
_SEED_SHUFFLE = 23

# An epoch whose mean loss exceeds this multiple of the first-batch loss (of
# its task, for a student) has diverged. In legitimate runs of
# configs/quick.json, configs/benchmark.json and both perfbench workloads,
# with all six methods, the ratio stays below 2 for students and teachers; a
# model that blew up and settled inside float32's range sits above 1e3.
DIVERGENCE_FACTOR = 100.0


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of integers into one deterministic 32-bit seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class RunConfig:
    """Training hyperparameters shared by teacher pretraining and distillation."""

    epochs: int = 3
    batch_size: int = 64
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    temperature: float = 10.0
    seeds: tuple[int, ...] = (1, 2, 3)
    eval_every_epoch: bool = False
    teacher_epochs: int = 50
    teacher_learning_rate: float | None = None
    teacher_hidden: tuple[int, ...] = (32, 32)
    student_hidden: tuple[int, ...] = (32, 32)
    teacher_accuracy_floor: float = 0.9

    @property
    def teacher_lr(self) -> float:
        """The learning rate teachers train with: teacher_learning_rate, else learning_rate."""
        if self.teacher_learning_rate is None:
            return self.learning_rate
        return self.teacher_learning_rate

    @property
    def teacher_settings(self) -> dict:
        """The settings train_teacher reads, as teacher_report.json records them for `run`."""
        return {
            "teacher_hidden": list(self.teacher_hidden),
            "teacher_epochs": self.teacher_epochs,
            "teacher_learning_rate": self.teacher_lr,
            "optimizer": self.optimizer,
            "batch_size": self.batch_size,
        }

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise InvalidArgumentError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.seeds:
            raise InvalidArgumentError("seeds must be non-empty")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise InvalidArgumentError(f"seed {repeated[0]} is listed twice")
        if self.teacher_epochs < 0:
            raise InvalidArgumentError(f"teacher_epochs must be >= 0, got {self.teacher_epochs}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise InvalidArgumentError(
                f"optimizer must be one of {OPTIMIZER_KINDS}, got {self.optimizer!r}"
            )
        # Written so that NaN fails each check.
        for name in ("learning_rate", "temperature", "teacher_learning_rate"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise InvalidArgumentError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.teacher_accuracy_floor <= 1.0:
            raise InvalidArgumentError(
                f"teacher_accuracy_floor must lie in [0, 1], got {self.teacher_accuracy_floor}"
            )
        for name in ("teacher_hidden", "student_hidden"):
            if not all(width >= 1 for width in getattr(self, name)):
                raise InvalidArgumentError(f"{name} widths must be >= 1, got {getattr(self, name)}")


@dataclass
class TaskLog:
    task_index: int
    accuracies: dict[int, float]  # domain id -> accuracy after this task
    epoch_losses: list[float]
    epoch_accuracies: list[dict[int, float]] | None = None
    elapsed_seconds: float = 0.0  # wall time of the whole task, set by run_sequence


def _single(values: np.ndarray) -> np.ndarray:
    """Values as little-endian float32; those beyond its range become infinite."""
    with np.errstate(over="ignore"):
        return values.astype("<f4")


def _check_epoch(model: MlpModel, epoch_loss: float, first_loss: float, where: str) -> None:
    """Raise DivergenceError, prefixed by `where`, if the epoch just ended diverged:
    its mean loss or a parameter is not finite as float32, the checkpoint
    precision (a diverging float64 model can run far past it without ever
    overflowing), or its mean loss exceeds DIVERGENCE_FACTOR times first_loss.
    """
    # The float32 cast is monotonic and NaN survives min and max, so checking
    # the extremes checks every parameter without a copy of them all.
    extremes = np.array([model.params.min(), model.params.max(), epoch_loss])
    if not np.isfinite(_single(extremes)).all() or epoch_loss > DIVERGENCE_FACTOR * first_loss:
        raise DivergenceError(
            f"{where} diverged (epoch loss {epoch_loss:.3g}, first batch {first_loss:.3g})"
        )


def serialize_model(model: MlpModel) -> bytes:
    """Encode a model: magic, version, layer count, then per-layer blocks.

    Layout per layer: rows and cols as little-endian uint32, weight values
    row-major then bias values, IEEE-754 single precision little-endian.
    Raises FormatError, naming the layer, if a value is not finite in
    single precision, so a diverged model is never written.
    """
    parts = [CHECKPOINT_MAGIC + CHECKPOINT_VERSION, struct.pack("<I", len(model.layers))]
    for k, (weight, bias) in enumerate(model.layer_views(_single(model.params))):
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise FormatError(f"layer {k} has a weight or bias that is not finite as float32")
        parts.append(struct.pack("<II", *weight.shape))
        parts.append(weight.tobytes())
        parts.append(bias.tobytes())
    return b"".join(parts)


def deserialize_model(data: bytes) -> MlpModel:
    """Decode serialize_model's bytes; a malformed payload raises FormatError.

    Malformed includes layers that do not chain (each layer must take as
    many inputs as the layer before it gives outputs) and values that are
    not finite, which serialize_model never writes.
    """
    if len(data) < 8 or data[:6] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    if data[6:8] != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {data[6:8]!r}")

    pos = 8

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise FormatError("truncated checkpoint")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    (n_layers,) = struct.unpack("<I", take(4))
    if n_layers == 0:
        raise FormatError("checkpoint contains no layers")
    layers = []
    for k in range(n_layers):
        rows, cols = struct.unpack("<II", take(8))
        if rows == 0 or cols == 0:
            raise FormatError("checkpoint layer with zero dimension")
        if k and cols != layers[-1].bias.size:
            raise FormatError(
                f"checkpoint layer {k} takes {cols} inputs, "
                f"but layer {k - 1} gives {layers[-1].bias.size}"
            )
        weight = np.frombuffer(take(4 * rows * cols), dtype="<f4")
        bias = np.frombuffer(take(4 * rows), dtype="<f4")
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise FormatError(f"checkpoint layer {k} has a weight or bias that is not finite")
        layers.append(Layer(weight.reshape(rows, cols), bias))
    if pos != len(data):
        raise FormatError("trailing bytes after checkpoint payload")
    # The model widens every value to float64 as it packs them into params.
    return MlpModel(layers)


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_checkpoint(path: str | Path) -> MlpModel:
    return deserialize_model(Path(path).read_bytes())


def evaluate(model: MlpModel, test_set: LabeledSet) -> float:
    """Fraction of argmax-correct predictions (ties resolve to the lowest class)."""
    if len(test_set) == 0:
        raise InvalidArgumentError("cannot evaluate on an empty test set")
    logits, _ = forward(model, test_set.features)
    return float((np.argmax(logits, axis=1) == test_set.labels).mean())


def new_student(feature_dim: int, n_classes: int, config: RunConfig, seed: int) -> MlpModel:
    return init_mlp(
        derive_seed(_SEED_STUDENT, seed), [feature_dim, *config.student_hidden, n_classes]
    )


def train_teacher(
    train: LabeledSet,
    config: RunConfig,
    seed: int = 0,
    n_classes: int | None = None,
) -> MlpModel:
    """Supervised cross-entropy training on the given rows.

    The rows are read in place; a teacher of several domains takes their
    train splits as one LabeledSet (see benchmark.train_benchmark_teacher).
    Raises DivergenceError, naming the epoch, at the end of an epoch that
    fails _check_epoch against the first batch's loss.
    """
    if len(train) == 0:
        raise InvalidArgumentError("teacher training data is empty")
    if n_classes is None:
        n_classes = int(train.labels.max()) + 1
    model = init_mlp(
        derive_seed(_SEED_TEACHER, seed),
        [train.features.shape[1], *config.teacher_hidden, n_classes],
    )
    opt = make_optimizer(model, config.optimizer, config.teacher_lr)
    ws = Workspace(model)
    rng = np.random.default_rng([_SEED_SHUFFLE, derive_seed(_SEED_TEACHER, seed)])
    for epoch in range(config.teacher_epochs):
        order = rng.permutation(len(train))
        losses: list[float] = []
        for start in range(0, len(train), config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, cache = forward(model, train.features[idx], ws=ws)
            loss, dlogits = cross_entropy(logits, train.labels[idx])
            model, opt = optimizer_step(model, backward(model, cache, dlogits, ws=ws), opt)
            losses.append(loss)
        if epoch == 0:
            first_loss = losses[0]
        _check_epoch(model, float(np.mean(losses)), first_loss, f"epoch {epoch}: the teacher")
    return model


def frozen_logits(model: MlpModel, features: Matrix, chunk: int) -> Matrix:
    """Logits of a frozen model over every row, `chunk` rows per forward pass.

    The one way the run path runs a model it does not train: teachers,
    previous-task checkpoints and the entropy screen. Each pass's
    ForwardCache is dropped before the next pass starts, so memory beyond
    the result stays at one chunk's activations.
    """
    if chunk < 1:
        raise InvalidArgumentError(f"chunk must be >= 1, got {chunk}")
    out = np.empty((len(features), model.num_classes))
    for start in range(0, len(features), chunk):
        out[start : start + chunk] = forward(model, features[start : start + chunk])[0]
    return out


class FrozenTeacher:
    """A teacher model that serves its logits over one distillation set.

    The logits depend only on the teacher, the set and the chunk size, not
    on the student, method or seed, so every grid cell that shares one
    FrozenTeacher shares one pass over the set. The first call makes that
    pass and drops the model, so the teacher's parameters are freed once
    no one else holds them; a later call with another set (matched by
    identity) or chunk size raises InvalidArgumentError.
    """

    def __init__(self, model: MlpModel) -> None:
        self.model: MlpModel | None = model
        self.num_classes = model.num_classes
        self._seen: tuple[DistillSet, int] | None = None
        self._logits: Matrix | None = None

    def logits(self, distill_set: DistillSet, chunk: int) -> Matrix:
        if self._seen is None:
            self._logits = frozen_logits(self.model, distill_set.features, chunk)
            self._seen, self.model = (distill_set, chunk), None
        elif self._seen[0] is not distill_set or self._seen[1] != chunk:
            raise InvalidArgumentError(
                "this teacher has served another distillation set or chunk size"
            )
        return self._logits


def distill_task(
    student: MlpModel,
    teacher: MlpModel | FrozenTeacher,
    distill_set: DistillSet,
    method: MethodConfig,
    config: RunConfig,
    *,
    task_index: int = 0,
    seed: int = 0,
    prev_student: MlpModel | None = None,
    test_sets: dict[int, LabeledSet] | None = None,
) -> tuple[MlpModel, TaskLog]:
    """Distill one teacher into the student over the fixed distillation set.

    Teacher and checkpoint targets (dkd's teacher-side terms included) are
    computed once per task, since both models are frozen within it. The
    teacher's logits come from a FrozenTeacher, so a teacher shared that
    way runs over the set once for every task that uses it. Each epoch
    gathers its rows once, in batch order (features, targets, and mds's
    entropies or the checkpoint's targets); each step takes a contiguous
    slice of them and calls the method's public loss. Only the student is
    updated. With internal and external rows, a se2d batch is one internal
    and one external batch concatenated; its teacher term sees both, and
    se2d_loss's `external` mask gives its checkpoint term the external one.

    Raises DivergenceError, naming the method, seed, task and epoch, at the
    end of an epoch that fails _check_epoch against the task's first-batch
    loss.
    """
    if not isinstance(teacher, FrozenTeacher):
        teacher = FrozenTeacher(teacher)
    if student.num_classes != teacher.num_classes:
        raise InvalidArgumentError(
            f"student has {student.num_classes} classes, teacher has {teacher.num_classes}"
        )
    if len(distill_set) == 0:
        raise InvalidArgumentError("distillation set is empty")

    features = distill_set.features
    name, t = method.method, config.temperature
    teacher_logits = teacher.logits(distill_set, config.batch_size)
    make_targets = {"ls": ls_targets, "dkd": dkd_targets}.get(name, soft_targets)
    targets = make_targets(teacher_logits, t)
    entropies = teacher_entropy(teacher_logits, t) if name == "mds" else None
    # The checkpoint term covers every row for self_distill and the external
    # rows for se2d; `slot` maps a distillation row to its checkpoint target.
    prev_targets = None
    if prev_student is not None and name in CHECKPOINT_METHODS:
        prev_rows = np.arange(len(features))
        if name == "se2d":
            prev_rows = np.flatnonzero(distill_set.external_mask)
        prev_logits = frozen_logits(prev_student, features[prev_rows], config.batch_size)
        prev_targets = soft_targets(prev_logits, t)
        slot = np.full(len(features), -1)
        slot[prev_rows] = np.arange(len(prev_rows))
    # A checkpoint over some but not all rows (se2d's) pairs internal and external batches.
    paired = prev_targets is not None and 0 < len(prev_rows) < len(features)
    internal_rows = np.flatnonzero(~distill_set.external_mask)

    def step_loss(student_logits: Matrix, start: int, stop: int) -> tuple[float, Matrix]:
        """The loss of the epoch's rows start:stop, read from the epoch's gathers below."""
        batch_targets = epoch_targets[start:stop]
        if name == "dkd":
            res = dkd_loss(student_logits, batch_targets, t, method.dkd_alpha, method.dkd_beta)
        elif name == "mds":
            keep = mds_filter(epoch_entropies[start:stop], method.mds_low_q, method.mds_high_q)
            res = kl_kd_loss(student_logits[keep], batch_targets[keep], t)
            dlogits = np.zeros_like(student_logits)
            dlogits[keep] = res.dlogits
            return res.loss, dlogits
        elif name == "ls":
            res = ls_kd_loss(student_logits, batch_targets, t)
        elif prev_targets is None:
            res = kl_kd_loss(student_logits, batch_targets, t)
        else:
            prev = epoch_prev[prev_before[start] : prev_before[stop]]
            if name == "self_distill":
                res = self_distill_loss(student_logits, batch_targets, prev, t)
            else:
                res = se2d_loss(student_logits, batch_targets, prev, on[start:stop], t)
        return res.loss, res.dlogits

    opt = make_optimizer(student, config.optimizer, config.learning_rate)
    ws = Workspace(student)
    epoch_losses: list[float] = []
    epoch_accuracies: list[dict[int, float]] | None = [] if config.eval_every_epoch else None
    for epoch in range(config.epochs):
        shuffle_seed = [_SEED_SHUFFLE, seed, task_index, epoch]
        # The epoch's rows in batch order, and where each batch starts and stops.
        if paired:
            stream = balance_pair_stream(
                len(internal_rows), len(prev_rows), config.batch_size, shuffle_seed
            )
            batches = [np.concatenate([internal_rows[i], prev_rows[e]]) for i, e in stream]
            rows = np.concatenate(batches)
            bounds = np.cumsum([0] + [len(b) for b in batches]).tolist()
        else:
            rows = np.random.default_rng(shuffle_seed).permutation(len(features))
            bounds = [*range(0, len(rows), config.batch_size), len(rows)]
        epoch_features, epoch_targets = features[rows], targets[rows]
        if entropies is not None:
            epoch_entropies = entropies[rows]
        if prev_targets is not None:
            # Checkpoint targets for the rows that have one, in order; the
            # epoch's first i rows hold prev_before[i] of them.
            slots = slot[rows]
            on = slots >= 0
            epoch_prev = prev_targets[slots[on]]
            prev_before = np.concatenate([[0], np.cumsum(on)]).tolist()
        losses: list[float] = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            student_logits, cache = forward(student, epoch_features[start:stop], ws=ws)
            loss, dlogits = step_loss(student_logits, start, stop)
            student, opt = optimizer_step(student, backward(student, cache, dlogits, ws=ws), opt)
            losses.append(loss)
        if epoch == 0:
            first_loss = losses[0]
        epoch_losses.append(float(np.mean(losses)))
        where = f"method {name}, seed {seed}, task {task_index}, epoch {epoch}: the student"
        _check_epoch(student, epoch_losses[-1], first_loss, where)
        if epoch_accuracies is not None and test_sets:
            epoch_accuracies.append(
                {d: evaluate(student, ts) for d, ts in sorted(test_sets.items())}
            )

    accuracies = (
        {d: evaluate(student, ts) for d, ts in sorted(test_sets.items())} if test_sets else {}
    )
    log = TaskLog(task_index, accuracies, epoch_losses, epoch_accuracies)
    return student, log


def run_sequence(
    student: MlpModel,
    teachers: Iterable[MlpModel | FrozenTeacher],
    scenario: CdScenario,
    method: MethodConfig,
    config: RunConfig,
    seed: int = 0,
) -> list[TaskLog]:
    """Distill a sequence of teachers into one student, evaluating after each task.

    Teachers are pulled one at a time from a forward-only iterator; once a
    task ends its teacher is unreachable. Checkpoint-based methods serialize
    the student at each task end and distill from that frozen copy during
    the next task. Each log's elapsed_seconds is its task's wall time.
    """
    teacher_stream: Iterator[MlpModel | FrozenTeacher] = iter(teachers)
    logs: list[TaskLog] = []
    checkpoint: bytes | None = None
    for t, teacher in enumerate(teacher_stream):
        start = time.perf_counter()
        prev_model = deserialize_model(checkpoint) if checkpoint is not None else None
        student, log = distill_task(
            student,
            teacher,
            scenario.distill_set,
            method,
            config,
            task_index=t,
            seed=seed,
            prev_student=prev_model,
            test_sets=scenario.test_sets,
        )
        if method.method in CHECKPOINT_METHODS:
            checkpoint = serialize_model(student)
        log.elapsed_seconds = time.perf_counter() - start
        logs.append(log)
    if not logs:
        raise InvalidArgumentError("teacher sequence is empty")
    return logs
