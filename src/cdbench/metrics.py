"""Accuracy matrices, forgetting, unseen-domain transfer gain, and the
entropy/kurtosis diagnostics for external-data quality."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import teacher_entropy
from .engine import TaskLog
from .errors import DegenerateVarianceError, InvalidArgumentError
from .nn_core import Matrix, MlpModel, forward


@dataclass
class AccuracyMatrix:
    """values[i, t] = accuracy on domain domain_ids[i] after task t.

    `best` is computed from `values` at construction, so `values` must not
    change afterwards.
    """

    domain_ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self._row_index = {d: i for i, d in enumerate(self.domain_ids)}
        # best[i, t] = values[i, :t + 1].max(), the best accuracy up to task t.
        # The maximum is exact and propagates NaN, as .max() does.
        self.best = np.maximum.accumulate(self.values, axis=1)

    @property
    def n_tasks(self) -> int:
        return self.values.shape[1]

    def index(self, domain: int) -> int:
        """The row of `domain` in values and best."""
        i = self._row_index.get(domain)
        if i is None:
            raise InvalidArgumentError(f"domain {domain} not in matrix")
        return i

    def row(self, domain: int) -> np.ndarray:
        return self.values[self.index(domain)]

    def final(self, domain: int) -> float:
        return float(self.row(domain)[-1])


def accuracy_matrix(logs: list[TaskLog]) -> AccuracyMatrix:
    """Assemble the per-domain accuracy trajectory from ordered task logs."""
    if not logs:
        raise InvalidArgumentError("no task logs")
    ordered = sorted(logs, key=lambda l: l.task_index)
    domains = tuple(sorted(ordered[0].accuracies))
    if not domains:
        raise InvalidArgumentError("task logs carry no domain accuracies")
    values = np.zeros((len(domains), len(ordered)))
    for t, log in enumerate(ordered):
        for i, d in enumerate(domains):
            if d not in log.accuracies:
                raise InvalidArgumentError(f"task {log.task_index} is missing domain {d}")
            values[i, t] = log.accuracies[d]
    return AccuracyMatrix(domains, values)


def forgetting(matrix: AccuracyMatrix, domain: int, task: int) -> float:
    """Best past accuracy on the domain minus the accuracy after `task`.

    Negative values are reported as-is (the current task may be the best).
    """
    if task < 1:
        raise InvalidArgumentError("forgetting needs task >= 1 (no predecessor otherwise)")
    if task >= matrix.n_tasks:
        raise InvalidArgumentError(f"task {task} out of range (n_tasks={matrix.n_tasks})")
    i = matrix.index(domain)
    return float(matrix.best[i, task - 1] - matrix.values[i, task])


def average_forgetting(matrix: AccuracyMatrix, domains: tuple[int, ...] | None = None) -> float:
    """Mean forgetting over domains (all by default) after the final task."""
    if domains is None:
        domains = matrix.domain_ids
    if not domains:
        raise InvalidArgumentError("no domains to average over")
    return float(np.mean([forgetting(matrix, d, matrix.n_tasks - 1) for d in domains]))


def ukt_gain(
    run_with_ed: AccuracyMatrix,
    run_id_only: AccuracyMatrix,
    unseen_domains: tuple[int, ...],
) -> dict[int, float]:
    """Final-task accuracy delta (with external data minus without) per unseen domain."""
    if run_with_ed.domain_ids != run_id_only.domain_ids:
        raise InvalidArgumentError("runs cover different domains")
    if run_with_ed.values.shape != run_id_only.values.shape:
        raise InvalidArgumentError("runs have different task counts")
    return {
        d: run_with_ed.final(d) - run_id_only.final(d) for d in sorted(unseen_domains)
    }


@dataclass
class EntropyProfile:
    """Entropy samples of one model over one dataset, plus their histogram."""

    entropies: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray
    kurtosis: float | None

    @property
    def mean(self) -> float:
        return float(self.entropies.mean())


def kurtosis(values) -> float:
    """Pearson kurtosis m4 / m2^2 with population moments (normal -> 3)."""
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise InvalidArgumentError(f"kurtosis needs >= 4 values, got {values.size}")
    centered = values - values.mean()
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        raise DegenerateVarianceError("kurtosis undefined for constant input")
    m4 = float((centered**4).mean())
    return m4 / m2**2


def entropy_histogram(
    model: MlpModel, features: Matrix, temperature: float, bins: int
) -> EntropyProfile:
    """Per-sample predictive entropy with equal-width bins over [0, ln C]."""
    if bins < 2:
        raise InvalidArgumentError(f"need at least 2 bins, got {bins}")
    features = np.asarray(features, dtype=float)
    if len(features) == 0:
        raise InvalidArgumentError("cannot profile an empty dataset")
    logits, _ = forward(model, features)
    ent = teacher_entropy(logits, temperature)
    edges = np.linspace(0.0, np.log(model.num_classes), bins + 1)
    counts, _ = np.histogram(ent, bins=edges)
    kurt = None
    if ent.size >= 4 and float(np.var(ent)) > 0.0:
        kurt = kurtosis(ent)
    return EntropyProfile(ent, edges, counts, kurt)
