"""Distillation objectives.

Every loss returns a LossResult: the scalar value together with its
gradient with respect to the whole batch of student logits; teacher and
checkpoint logits are always treated as constants. KL-family losses
follow the tempered convention
loss = T^2 * mean_batch KL(p_teacher || p_student) with p = softmax(z / T).
Their teacher and checkpoint inputs, and dkd's teacher input, take either
logits or precomputed targets (SoftTargets, DkdTargets), so a caller whose
teacher is frozen can compute the targets once and gather the rows it needs.
Each loss takes the student's tempered log-softmax once, however many terms
use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ShapeError
from .nn_core import Matrix, log_softmax_t, row_max, softmax_t

METHODS = ("kl", "ls", "dkd", "mds", "self_distill", "se2d")
# The methods that also distill from the student checkpointed at the end of
# the previous task.
CHECKPOINT_METHODS = ("self_distill", "se2d")

_STD_EPS = 1e-8


@dataclass(frozen=True)
class MethodConfig:
    """A distillation method plus its hyperparameters; the temperature is RunConfig's."""

    method: str
    dkd_alpha: float = 1.0
    dkd_beta: float = 8.0
    mds_low_q: float = 0.25
    mds_high_q: float = 0.75

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidArgumentError(
                f"unknown method {self.method!r}; valid methods: {', '.join(METHODS)}"
            )
        # Written so that NaN fails each check.
        if not (0 <= self.dkd_alpha < math.inf and 0 <= self.dkd_beta < math.inf):
            raise InvalidArgumentError("dkd_alpha and dkd_beta must be finite and nonnegative")
        if not (0.0 <= self.mds_low_q < self.mds_high_q <= 1.0):
            raise InvalidArgumentError(
                f"need 0 <= low < high <= 1, got [{self.mds_low_q}, {self.mds_high_q}]"
            )


@dataclass
class LossResult:
    loss: float
    dlogits: Matrix


@dataclass(frozen=True)
class SoftTargets:
    """Tempered log-probabilities of constant logits and their exponentials.

    Indexing gathers rows, so targets computed once over a whole set serve
    every batch drawn from it.
    """

    log_p: Matrix
    p: Matrix

    @property
    def shape(self) -> tuple[int, ...]:
        return self.p.shape

    def __getitem__(self, rows) -> "SoftTargets":
        return SoftTargets(self.log_p[rows], self.p[rows])


def soft_targets(logits: Matrix, temperature: float) -> SoftTargets:
    """Row-wise tempered log-softmax of constant logits, with its probabilities."""
    log_p = log_softmax_t(logits, temperature)
    return SoftTargets(log_p, np.exp(log_p))


def _targets(
    student_logits: Matrix,
    other: Matrix | SoftTargets | DkdTargets,
    temperature: float,
    make=soft_targets,
    kind: type = SoftTargets,
) -> tuple[Matrix, SoftTargets | DkdTargets]:
    """The student logits as a float array and the targets they are matched to.

    `other` is either constant logits, which `make` turns into targets, or
    targets of type `kind` made earlier. Both sides must have one shape.
    """
    student_logits = np.asarray(student_logits, dtype=float)
    if not temperature > 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    if not isinstance(other, kind):
        other = make(np.asarray(other, dtype=float), temperature)
    if student_logits.shape != other.shape:
        raise ShapeError(
            f"student logits and targets: shapes {student_logits.shape} and {other.shape} differ"
        )
    return student_logits, other


def kl_kd_loss(
    student_logits: Matrix, teacher: Matrix | SoftTargets, temperature: float
) -> LossResult:
    """Tempered KL divergence from the teacher to the student distribution.

    `teacher` is the teacher's logits or their soft_targets. Zero exactly
    when the tempered rows match; an empty batch contributes zero loss and
    an empty gradient.
    """
    student_logits, targets = _targets(student_logits, teacher, temperature)
    return _kl_terms(log_softmax_t(student_logits, temperature), targets, temperature)


def _kl_terms(log_q: Matrix, targets: SoftTargets, temperature: float) -> LossResult:
    """kl_kd_loss from the student's tempered log-softmax `log_q`, rows matching `targets`."""
    n = log_q.shape[0]
    if n == 0:
        return LossResult(0.0, np.zeros_like(log_q))
    loss = temperature**2 * float((targets.p * (targets.log_p - log_q)).sum(axis=1).mean())
    dlogits = temperature * (np.exp(log_q) - targets.p) / n
    return LossResult(loss, dlogits)


def _standardize(logits: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """logit_standardize's result with the centered rows and std it divided."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise InvalidArgumentError(f"need a 2-D matrix with >= 2 columns, got {logits.shape}")
    centered = logits - logits.mean(axis=1, keepdims=True)
    std = np.sqrt((centered**2).mean(axis=1, keepdims=True))
    return centered / (std + _STD_EPS), centered, std


def logit_standardize(logits: Matrix) -> Matrix:
    """Z-score each row using the population standard deviation.

    Constant rows map to all zeros through the epsilon guard.
    """
    return _standardize(logits)[0]


def _standardize_backward(centered: Matrix, std: Matrix, grad_out: Matrix) -> Matrix:
    """Chain an upstream gradient back through logit_standardize, given _standardize's parts."""
    n = centered.shape[1]
    denom = std + _STD_EPS
    term1 = (grad_out - grad_out.mean(axis=1, keepdims=True)) / denom
    inner = (grad_out * centered).sum(axis=1, keepdims=True)
    term2 = centered * inner / (n * np.maximum(std, _STD_EPS) * denom**2)
    return term1 - term2


def ls_targets(teacher_logits: Matrix, temperature: float) -> SoftTargets:
    """Teacher targets of ls_kd_loss: the soft targets of the z-scored logits."""
    return soft_targets(logit_standardize(teacher_logits), temperature)


def ls_kd_loss(
    student_logits: Matrix, teacher: Matrix | SoftTargets, temperature: float
) -> LossResult:
    """KL distillation on row-standardized logits (both sides z-scored).

    `teacher` is the teacher's logits or their ls_targets.
    """
    student_logits, targets = _targets(student_logits, teacher, temperature, ls_targets)
    z, centered, std = _standardize(student_logits)
    inner = _kl_terms(log_softmax_t(z, temperature), targets, temperature)
    return LossResult(inner.loss, _standardize_backward(centered, std, inner.dlogits))


def _log_softmax_pair(scaled_logits: Matrix, target_mask: Matrix) -> np.ndarray:
    """Row-wise log-softmax of tempered logits, over all classes and over the others.

    Returns the two stacked, shape (2, B, C); the second forces the target
    to -inf. Each row is reduced on its own, as in log_softmax_t, so one
    pass over both gives log_softmax_t's values.
    """
    z = np.concatenate((scaled_logits, np.where(target_mask, -np.inf, scaled_logits)))
    z -= row_max(z)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z.reshape(2, *scaled_logits.shape)


@dataclass(frozen=True)
class DkdTargets:
    """The teacher-side terms of dkd_loss, each computed row by row.

    `mask` marks the teacher's argmax class, one per row (the lowest index
    on ties). `pt`/`log_pt` are its tempered probability and their
    log, `p_rest` the tempered mass of the other classes, and
    `log_phat`/`phat` the tempered distribution renormalized over those
    classes (`phat` is 0 at the target). Indexing gathers rows.
    """

    mask: Matrix
    pt: np.ndarray
    log_pt: np.ndarray
    p_rest: np.ndarray
    log_phat: Matrix
    phat: Matrix

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.shape

    def __getitem__(self, rows) -> "DkdTargets":
        return DkdTargets(
            self.mask[rows],
            self.pt[rows],
            self.log_pt[rows],
            self.p_rest[rows],
            self.log_phat[rows],
            self.phat[rows],
        )


def dkd_targets(teacher_logits: Matrix, temperature: float) -> DkdTargets:
    """The DkdTargets of constant teacher logits at one temperature."""
    teacher_logits = np.asarray(teacher_logits, dtype=float)
    n, c = teacher_logits.shape
    if c < 2:
        raise InvalidArgumentError("dkd_loss needs at least 2 classes")
    target = np.argmax(teacher_logits, axis=1)
    rows = np.arange(n)
    mask = np.zeros((n, c), dtype=bool)
    mask[rows, target] = True
    # The non-target distribution is the softmax over the masked logits.
    log_p, log_phat = pair = _log_softmax_pair(teacher_logits / temperature, mask)
    p, phat = np.exp(pair)
    phat = np.where(mask, 0.0, phat)
    # Aggregated (target, rest) masses; rest mass sums the non-target
    # tempered probabilities.
    p_rest = np.where(mask, 0.0, p).sum(axis=1)
    return DkdTargets(mask, p[rows, target], log_p[rows, target], p_rest, log_phat, phat)


def dkd_loss(
    student_logits: Matrix,
    teacher: Matrix | DkdTargets,
    temperature: float,
    alpha: float,
    beta: float | np.ndarray,
) -> LossResult:
    """Decoupled distillation: target-vs-rest term plus non-target term.

    The target class is the teacher's argmax (lowest index on ties). The
    first term is the binary KL between (target, rest) aggregated tempered
    masses; the second is the KL between tempered distributions
    renormalized over the non-target classes. Both carry the T^2 factor.
    `teacher` is the teacher's logits or their dkd_targets. `beta` may be
    a scalar or a per-sample vector of length B. An empty batch contributes
    zero loss and an empty gradient.
    """
    student_logits, teacher = _targets(
        student_logits, teacher, temperature, dkd_targets, DkdTargets
    )
    n = student_logits.shape[0]
    if n == 0:
        return LossResult(0.0, np.zeros_like(student_logits))
    beta = np.asarray(beta, dtype=float)
    if beta.ndim:
        beta = np.broadcast_to(beta, (n,))
    mask, pt, log_pt, p_rest, phat = (
        teacher.mask, teacher.pt, teacher.log_pt, teacher.p_rest, teacher.phat
    )

    log_q, log_qhat = pair = _log_softmax_pair(student_logits / temperature, mask)
    q, qhat = np.exp(pair)
    qhat = np.where(mask, 0.0, qhat)
    # One target per row, so the mask picks each row's target entry in row order.
    log_qt, qt = log_q[mask], q[mask]
    q_rest = np.where(mask, 0.0, q).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tckd_target = pt * (log_pt - log_qt)
        tckd = np.where(
            p_rest > 0, tckd_target + p_rest * (np.log(p_rest) - np.log(q_rest)), tckd_target
        )
        nckd = (phat * np.where(mask, 0.0, teacher.log_phat - log_qhat)).sum(axis=1)
        # d(tckd)/d(scaled student logit) via the binary-softmax chain rule.
        coef = np.where(q_rest > 0, p_rest / q_rest, 0.0) - pt / qt

    scale = temperature**2 / n
    loss = float((alpha * tckd + beta * nckd).sum() * scale)
    dtckd = (coef * qt)[:, None] * (mask.astype(float) - q)
    dnckd = qhat - phat
    dlogits = (temperature / n) * (alpha * dtckd + beta[..., None] * dnckd)
    return LossResult(loss, dlogits)


def batch_entropy(probs: Matrix) -> np.ndarray:
    """Row-wise Shannon entropy in nats with the 0*log(0) = 0 convention."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise InvalidArgumentError("probabilities must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def entropy(prob_row: np.ndarray) -> float:
    """Shannon entropy of one probability vector, in nats."""
    return float(batch_entropy(np.atleast_2d(prob_row))[0])


def teacher_entropy(teacher_logits: Matrix, temperature: float) -> np.ndarray:
    """Per-row entropy of the tempered teacher softmax, the score mds_filter ranks."""
    return batch_entropy(softmax_t(teacher_logits, temperature))


def _quantile_band(values: np.ndarray, low_q: float, high_q: float) -> tuple[float, float]:
    """np.quantile(values, (low_q, high_q)) from one sort of the values.

    Each step is numpy's default 'linear' method: virtual index v = (n-1)*q,
    the values at its floor and the next index, and numpy's _lerp between
    them with its t >= 0.5 branch. So each edge equals numpy's to the bit,
    except that numpy partitions instead of sorting and may pick the other
    of two tied zeros of opposite sign. Any NaN makes both edges NaN, as in
    numpy.
    """
    ordered = np.sort(values, axis=None)
    n = ordered.size
    if math.isnan(ordered[-1]):  # NaN sorts last
        return math.nan, math.nan
    edges = []
    for q in (low_q, high_q):
        v = (n - 1) * q
        if v >= n - 1:
            # numpy takes the last value at both indices and weighs it by v - (-1)
            below = above = -1
        else:
            below = math.floor(v)
            above = below + 1
        a, b = float(ordered[below]), float(ordered[above])
        t = v - below
        diff = b - a
        edges.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return edges[0], edges[1]


def mds_filter(entropies: np.ndarray, low_q: float, high_q: float) -> np.ndarray:
    """Keep-mask for samples of medium difficulty by teacher entropy.

    `entropies` are the batch's teacher_entropy values. Samples whose
    entropy falls within the [low_q, high_q] empirical quantile band of the
    batch are kept; boundary ties are kept, and at least one sample always
    survives.
    """
    ent = np.asarray(entropies, dtype=float)
    if ent.size == 0:
        raise InvalidArgumentError("cannot filter an empty batch")
    if not (0.0 <= low_q < high_q <= 1.0):
        raise InvalidArgumentError(f"need 0 <= low < high <= 1, got [{low_q}, {high_q}]")
    lo, hi = _quantile_band(ent, low_q, high_q)
    keep = (ent >= lo) & (ent <= hi)
    if not keep.any():
        # Interpolated quantiles can bracket no sample; fall back to the
        # entropy closest to the band center.
        keep[np.argmin(np.abs(ent - 0.5 * (lo + hi)))] = True
    return keep


def self_distill_loss(
    student_logits: Matrix,
    teacher: Matrix | SoftTargets,
    prev_student: Matrix | SoftTargets,
    temperature: float,
) -> LossResult:
    """Teacher KL plus previous-checkpoint KL, both over the same batch.

    Each of `teacher` and `prev_student` is logits or their soft_targets.
    """
    student_logits, teacher = _targets(student_logits, teacher, temperature)
    _, prev_student = _targets(student_logits, prev_student, temperature)
    log_q = log_softmax_t(student_logits, temperature)
    teacher_term = _kl_terms(log_q, teacher, temperature)
    prev_term = _kl_terms(log_q, prev_student, temperature)
    return LossResult(teacher_term.loss + prev_term.loss, teacher_term.dlogits + prev_term.dlogits)


def se2d_loss(
    student_logits: Matrix,
    teacher: Matrix | SoftTargets,
    prev_student_ext: Matrix | SoftTargets,
    external: np.ndarray,
    temperature: float,
) -> LossResult:
    """Teacher KL on the whole batch plus checkpoint KL on its external rows.

    `external` is a boolean mask with one entry per batch row, and
    `prev_student_ext` holds the checkpoint's logits or soft_targets for the
    rows it selects, in order. The two terms are added unweighted. With no
    external row the loss reduces to the teacher term alone; with every row
    external it equals self_distill_loss.
    """
    student_logits, teacher = _targets(student_logits, teacher, temperature)
    external = np.asarray(external)
    if external.dtype != bool or external.shape != student_logits.shape[:1]:
        raise ShapeError(
            f"external must be a boolean mask of shape {student_logits.shape[:1]}, "
            f"got {external.dtype} of shape {external.shape}"
        )
    log_q = log_softmax_t(student_logits, temperature)
    ext_log_q, prev_student_ext = _targets(log_q[external], prev_student_ext, temperature)
    teacher_term = _kl_terms(log_q, teacher, temperature)
    ext_term = _kl_terms(ext_log_q, prev_student_ext, temperature)
    teacher_term.dlogits[external] += ext_term.dlogits
    return LossResult(teacher_term.loss + ext_term.loss, teacher_term.dlogits)
