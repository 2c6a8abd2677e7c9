"""Accuracy matrices, forgetting, unseen-domain transfer gain, the entropy/kurtosis
diagnostics for external-data quality, and the reports summary.json and metrics.json print."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .distill import teacher_entropy
from .domains import ScenarioSpec
from .engine import TaskLog
from .errors import DegenerateVarianceError, FormatError, InvalidArgumentError
from .nn_core import Matrix


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


def accuracy_matrices(
    rows: list[dict], spec: ScenarioSpec, where: str
) -> dict[float, dict[str, dict[int, AccuracyMatrix]]]:
    """ed_ratio -> method -> seed -> AccuracyMatrix over spec's domains and tasks, each key
    ascending, so a mean over seeds sums in one order whatever order the seeds ran in.

    At each ratio, the rows (keyed by results.csv's columns) must hold every domain of every
    task of `spec` once for each method and seed they name; FormatError, led by `where`,
    names a cell that is repeated or missing."""
    cell = lambda k: f"method {k[1]}, seed {k[2]}, task {k[3]}, domain {k[4]} at ed_ratio {k[0]}"
    cells: dict[tuple, float] = {}
    for r in rows:
        key = (r["ed_ratio"], r["method"], r["seed"], r["task"], r["domain"])
        if key in cells:
            raise FormatError(f"{where}: repeated result for {cell(key)}")
        cells[key] = r["accuracy"]
    domains, tasks = range(spec.n_domains), range(spec.n_teachers)
    matrices: dict[float, dict] = {}
    for ratio in sorted({key[0] for key in cells}):
        methods, seeds = (sorted({key[i] for key in cells if key[0] == ratio}) for i in (1, 2))
        for method, seed in product(methods, seeds):
            try:
                values = [[cells[ratio, method, seed, t, d] for t in tasks] for d in domains]
            except KeyError as exc:
                raise FormatError(f"{where}: no result for {cell(exc.args[0])}") from None
            runs = matrices.setdefault(ratio, {}).setdefault(method, {})
            runs[seed] = AccuracyMatrix(tuple(domains), np.array(values))
    return matrices


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


def _mean_std(values: list[float]) -> dict:
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def _seed_mean(per_seed: list[dict[int, float]]) -> dict[str, float]:
    """Per-domain mean over seeds."""
    return {str(d): float(np.mean([v[d] for v in per_seed])) for d in per_seed[0]}


def _forgetting_report(runs: list[AccuracyMatrix], known: tuple[int, ...]) -> dict:
    """Each domain's final forgetting meaned over the runs, and the mean and std of the runs'
    average on `known`, from the same values (so bit-equal to average_forgetting's)."""
    per_run = [{d: forgetting(m, d, m.n_tasks - 1) for d in m.domain_ids} for m in runs]
    return {
        "per_domain": _seed_mean(per_run),
        "average": _mean_std([float(np.mean([f[d] for d in known])) for f in per_run]),
    }


def summary_report(rows: list[dict], spec: ScenarioSpec, seeds: tuple[int, ...]) -> dict:
    """summary.json but its schema version, from a grid's rows at spec's ratio: per method, the
    mean and std over seeds of each domain's final accuracy, of the known domains' mean final
    accuracy and of the average forgetting (None for one task)."""
    known, domains = spec.teacher_known_domains, range(spec.n_domains)
    methods = {}
    for method, by_seed in accuracy_matrices(rows, spec, "grid")[spec.ed_ratio].items():
        runs = list(by_seed.values())
        forgot = _forgetting_report(runs, known)["average"] if spec.n_teachers >= 2 else None
        known_means = [float(np.mean([m.final(d) for d in known])) for m in runs]
        methods[method] = {
            "final_accuracy": {str(d): _mean_std([m.final(d) for m in runs]) for d in domains},
            "mean_final_accuracy_known": _mean_std(known_means),
            "average_forgetting": forgot,
        }
    return {
        "ed_ratio": spec.ed_ratio,
        "seeds": list(seeds),
        "teacher_known_domains": list(known),
        "n_tasks": spec.n_teachers,
        "methods": methods,
    }


def metrics_report(rows: list[dict], spec: ScenarioSpec, where: str) -> dict:
    """metrics.json's domain lists, `forgetting` and `ukt`, from the rows read at `where`.

    Both map repr(ratio) -> method; `forgetting` is empty for one task. When ratio 0 ran, `ukt`
    gives each other ratio's final-accuracy gain on each unseen domain, meaned over seeds."""
    known, unseen = spec.teacher_known_domains, spec.unseen_domains
    forgot, ukt = {}, {}
    matrices = accuracy_matrices(rows, spec, where)
    base = matrices.get(0.0)
    for ratio, block in matrices.items():
        forgot[repr(ratio)] = {
            method: _forgetting_report(list(by_seed.values()), known)
            for method, by_seed in block.items()
            if spec.n_teachers >= 2
        }
        if base is None or ratio == 0.0:
            continue
        ukt[repr(ratio)] = {}
        for method, by_seed in block.items():
            paired = by_seed.keys() & base.get(method, {}).keys()
            gains = [ukt_gain(by_seed[s], base[method][s], unseen) for s in sorted(paired)]
            if gains:
                ukt[repr(ratio)][method] = {
                    "per_domain": _seed_mean(gains),
                    "mean": float(np.mean([np.mean(list(g.values())) for g in gains])),
                }
    return {
        "teacher_known_domains": list(known),
        "unseen_domains": list(unseen),
        "forgetting": forgot,
        "ukt": ukt,
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


def entropy_histogram(logits: Matrix, temperature: float, bins: int) -> EntropyProfile:
    """Per-row predictive entropy of a model's logits, with equal-width bins over [0, ln C]."""
    if bins < 2:
        raise InvalidArgumentError(f"need at least 2 bins, got {bins}")
    logits = np.asarray(logits, dtype=float)
    if len(logits) == 0:
        raise InvalidArgumentError("cannot profile an empty dataset")
    ent = teacher_entropy(logits, temperature)
    edges = np.linspace(0.0, np.log(logits.shape[1]), bins + 1)
    counts, _ = np.histogram(ent, bins=edges)
    kurt = None
    if ent.size >= 4 and float(np.var(ent)) > 0.0:
        kurt = kurtosis(ent)
    return EntropyProfile(ent, edges, counts, kurt)


def entropy_report(profile: EntropyProfile) -> dict:
    """A profile as metrics.json prints it: the mean entropy and the kurtosis (or None) at 10
    significant digits, where the OpenBLAS kernels checked agree and their last bits do not."""
    digits = lambda v: None if v is None else float(f"{v:.10g}")
    return {
        "mean_entropy": digits(profile.mean),
        "kurtosis": digits(profile.kurtosis),
        "histogram": {
            "edges": [float(e) for e in profile.bin_edges],
            "counts": [int(c) for c in profile.counts],
        },
    }
