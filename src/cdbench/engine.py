"""Training engine: teacher pretraining, the sequential distillation loop,
evaluation, and binary checkpoints.

A run owns its student model and optimizer state exclusively; teacher and
checkpoint models are only ever read. Teachers are consumed through a
forward-only iterator so that code inside one task cannot reach back to an
earlier teacher.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .distill import (
    MethodConfig,
    SoftTargets,
    dkd_loss,
    kl_kd_from_targets,
    ls_kd_from_targets,
    ls_targets,
    mds_filter,
    se2d_from_targets,
    self_distill_from_targets,
    soft_targets,
    teacher_entropy,
)
from .domains import CdScenario, DistillSet, DomainDataset, LabeledSet, balance_pair_stream
from .errors import FormatError, InvalidArgumentError
from .nn_core import (
    Layer,
    Matrix,
    MlpModel,
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
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning_rate must be > 0")
        if self.temperature <= 0:
            raise InvalidArgumentError("temperature must be > 0")


@dataclass
class TeacherModel:
    model: MlpModel
    trained_domain_ids: frozenset[int]

    def __post_init__(self) -> None:
        if not self.trained_domain_ids:
            raise InvalidArgumentError("a teacher must have trained on at least one domain")


@dataclass
class TaskLog:
    task_index: int
    accuracies: dict[int, float]  # domain id -> accuracy after this task
    epoch_losses: list[float]
    epoch_accuracies: list[dict[int, float]] | None = None


def serialize_model(model: MlpModel) -> bytes:
    """Encode a model: magic, version, layer count, then per-layer blocks.

    Layout per layer: rows and cols as little-endian uint32, weight values
    row-major then bias values, IEEE-754 single precision little-endian.
    """
    parts = [CHECKPOINT_MAGIC + CHECKPOINT_VERSION, struct.pack("<I", len(model.layers))]
    for layer in model.layers:
        rows, cols = layer.weight.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(layer.weight.astype("<f4").tobytes())
        parts.append(layer.bias.astype("<f4").tobytes())
    return b"".join(parts)


def deserialize_model(data: bytes) -> MlpModel:
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
    for _ in range(n_layers):
        rows, cols = struct.unpack("<II", take(8))
        if rows == 0 or cols == 0:
            raise FormatError("checkpoint layer with zero dimension")
        weight = np.frombuffer(take(4 * rows * cols), dtype="<f4").astype(float)
        bias = np.frombuffer(take(4 * rows), dtype="<f4").astype(float)
        layers.append(Layer(weight.reshape(rows, cols), bias))
    if pos != len(data):
        raise FormatError("trailing bytes after checkpoint payload")
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
    domains: list[DomainDataset],
    config: RunConfig,
    seed: int = 0,
    n_classes: int | None = None,
) -> TeacherModel:
    """Supervised cross-entropy training on the union of the given domains."""
    if not domains:
        raise InvalidArgumentError("train_teacher needs at least one domain")
    train = LabeledSet.concat([d.train for d in domains])
    if len(train) == 0:
        raise InvalidArgumentError("teacher training data is empty")
    if n_classes is None:
        n_classes = int(train.labels.max()) + 1
    model = init_mlp(
        derive_seed(_SEED_TEACHER, seed),
        [train.features.shape[1], *config.teacher_hidden, n_classes],
    )
    lr = config.teacher_learning_rate or config.learning_rate
    opt = make_optimizer(model, config.optimizer, lr)
    rng = np.random.default_rng([_SEED_SHUFFLE, derive_seed(_SEED_TEACHER, seed)])
    for _ in range(config.teacher_epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, cache = forward(model, train.features[idx])
            _, dlogits = cross_entropy(logits, train.labels[idx])
            model, opt = optimizer_step(model, backward(model, cache, dlogits), opt)
    return TeacherModel(model, frozenset(int(d.domain_id) for d in domains))


def _frozen_logits(model: MlpModel, features: Matrix, chunk: int) -> Matrix:
    """Logits of a frozen model over every row, `chunk` rows per forward pass.

    Each pass's ForwardCache is dropped at once, so memory beyond the result
    stays at one chunk's activations.
    """
    out = np.empty((len(features), model.num_classes))
    for start in range(0, len(features), chunk):
        out[start : start + chunk], _ = forward(model, features[start : start + chunk])
    return out


@dataclass
class _FrozenTargets:
    """What a task's losses need from its frozen models, computed once per task.

    Row i of `teacher_logits`, `teacher` and `entropy` belongs to distillation
    row i. `teacher` holds the method's teacher targets (dkd works from the
    logits instead) and `entropy`, for mds only, the teacher entropies it
    ranks. `prev` holds the checkpoint's targets: over every row, or over the
    external rows on the paired se2d path; it is None without a checkpoint term.
    """

    teacher_logits: Matrix
    teacher: SoftTargets
    entropy: np.ndarray | None
    prev: SoftTargets | None


def _batch_loss(
    method: MethodConfig, student_logits: Matrix, frozen: _FrozenTargets, idx: np.ndarray
) -> tuple[float, Matrix]:
    """Loss and student-logit gradient for distillation rows `idx` on the unpaired path."""
    t = method.temperature
    if method.method == "dkd":
        res = dkd_loss(
            student_logits, frozen.teacher_logits[idx], t, method.dkd_alpha, method.dkd_beta
        )
        return res.loss, res.dlogits
    teacher = frozen.teacher[idx]
    if method.method == "ls":
        res = ls_kd_from_targets(student_logits, teacher, t)
    elif method.method == "mds":
        keep = mds_filter(
            frozen.teacher_logits[idx],
            method.mds_low_q,
            method.mds_high_q,
            t,
            entropies=frozen.entropy[idx],
        )
        kept = kl_kd_from_targets(student_logits[keep], teacher[keep], t)
        dlogits = np.zeros_like(student_logits)
        dlogits[keep] = kept.dlogits
        return kept.loss, dlogits
    elif frozen.prev is not None:
        # se2d only gets a checkpoint term here when the distillation set has
        # no internal part, where its data scope coincides with self-distillation.
        res = self_distill_from_targets(student_logits, teacher, frozen.prev[idx], t)
    else:
        res = kl_kd_from_targets(student_logits, teacher, t)
    return res.loss, res.dlogits


def distill_task(
    student: MlpModel,
    teacher: TeacherModel,
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

    Teacher and checkpoint targets are computed once per task, since both
    models are frozen within it; each step gathers its rows. Only the
    student is updated. For the paired method the teacher term sees the
    concatenation of one internal and one external batch per step while the
    checkpoint term sees only the external batch.
    """
    if student.num_classes != teacher.model.num_classes:
        raise InvalidArgumentError(
            f"student has {student.num_classes} classes, teacher has {teacher.model.num_classes}"
        )
    if len(distill_set) == 0:
        raise InvalidArgumentError("distillation set is empty")

    features = distill_set.features
    ext_mask = distill_set.external_mask
    internal_rows = np.flatnonzero(~ext_mask)
    external_rows = np.flatnonzero(ext_mask)
    has_prev = method.method in ("self_distill", "se2d") and prev_student is not None
    paired = (
        has_prev
        and method.method == "se2d"
        and len(internal_rows) > 0
        and len(external_rows) > 0
    )
    if paired:
        prev_features = features[external_rows]
    elif has_prev and (method.method == "self_distill" or len(internal_rows) == 0):
        prev_features = features
    else:
        prev_features = None

    t = method.temperature
    teacher_logits = _frozen_logits(teacher.model, features, config.batch_size)
    frozen = _FrozenTargets(
        teacher_logits,
        (ls_targets if method.method == "ls" else soft_targets)(teacher_logits, t),
        teacher_entropy(teacher_logits, t) if method.method == "mds" else None,
        None
        if prev_features is None
        else soft_targets(_frozen_logits(prev_student, prev_features, config.batch_size), t),
    )

    opt = make_optimizer(student, config.optimizer, config.learning_rate)
    epoch_losses: list[float] = []
    epoch_accuracies: list[dict[int, float]] | None = [] if config.eval_every_epoch else None
    for epoch in range(config.epochs):
        shuffle_seed = [_SEED_SHUFFLE, seed, task_index, epoch]
        losses: list[float] = []
        if paired:
            stream = balance_pair_stream(
                len(internal_rows), len(external_rows), config.batch_size, shuffle_seed
            )
            for pos_int, pos_ext in stream:
                idx = np.concatenate([internal_rows[pos_int], external_rows[pos_ext]])
                student_logits, cache = forward(student, features[idx])
                res = se2d_from_targets(
                    student_logits,
                    frozen.teacher[idx],
                    student_logits[len(pos_int) :],
                    frozen.prev[pos_ext],
                    t,
                )
                dlogits = res.dlogits_all
                dlogits[len(pos_int) :] += res.dlogits_ext
                student, opt = optimizer_step(student, backward(student, cache, dlogits), opt)
                losses.append(res.loss)
        else:
            rng = np.random.default_rng(shuffle_seed)
            order = rng.permutation(len(features))
            for start in range(0, len(order), config.batch_size):
                idx = order[start : start + config.batch_size]
                student_logits, cache = forward(student, features[idx])
                loss, dlogits = _batch_loss(method, student_logits, frozen, idx)
                student, opt = optimizer_step(student, backward(student, cache, dlogits), opt)
                losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
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
    teachers: Iterable[TeacherModel],
    scenario: CdScenario,
    method: MethodConfig,
    config: RunConfig,
    seed: int = 0,
) -> list[TaskLog]:
    """Distill a sequence of teachers into one student, evaluating after each task.

    Teachers are pulled one at a time from a forward-only iterator; once a
    task ends its teacher is unreachable. Checkpoint-based methods serialize
    the student at each task end and distill from that frozen copy during
    the next task.
    """
    needs_checkpoint = method.method in ("se2d", "self_distill")
    teacher_stream: Iterator[TeacherModel] = iter(teachers)
    logs: list[TaskLog] = []
    checkpoint: bytes | None = None
    for t, teacher in enumerate(teacher_stream):
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
        if needs_checkpoint:
            checkpoint = serialize_model(student)
        logs.append(log)
    if not logs:
        raise InvalidArgumentError("teacher sequence is empty")
    return logs
