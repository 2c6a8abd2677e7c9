"""Synthetic domain-incremental data and the internal/external partition.

Every domain draws the same class layout (a regular simplex of class means,
radius 3, unit isotropic noise) pushed through a per-domain rotation and
shift. Related domains take their rotation pair from a fixed moderate-angle
table, so domains share label semantics but require genuine adaptation;
unrelated domains rotate into the anti-aligned band and shift off the
class-mean subspace, which leaves a trained classifier near chance and its
predictive entropy high and flat.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .nn_core import Matrix

MEAN_RADIUS = 3.0
TRAIN_FRACTION = 0.8

RELATIONS = ("related", "unrelated")
# Fixed per-domain rotation pairs (degrees) for the related-domain family:
# one angle for each of the first two coordinate planes of the class-mean
# subspace. Domain 0 anchors the layout; domains 1-3 form a well-separated
# cluster away from it and domain 4 sits between them, which is the geometry
# the bundled benchmark scenarios rely on (shared domain 0, per-teacher
# domains 1-3, external domain 4). Later ids reuse the table with a fixed
# angular offset per cycle.
RELATED_ANGLE_TABLE_DEG = (
    (0.0, 0.0),
    (85.0, 65.0),
    (130.0, 0.0),
    (85.0, -65.0),
    (100.0, 15.0),
    (45.0, -40.0),
    (115.0, 40.0),
    (60.0, -25.0),
)
RELATED_TABLE_CYCLE_OFFSET_DEG = 13.0
RELATED_ANGLE_JITTER_DEG = 2.0
UNRELATED_ANGLE_RANGE_DEG = (120.0, 180.0)
UNRELATED_SHIFT_NORM = 4.0

# Seed-stream tags keep the transform and sample draws independent.
_TRANSFORM_TAG = 11
_SAMPLES_TAG = 12


class LabeledSet:
    """Column-oriented store for labeled samples from one or more domains."""

    def __init__(self, features: Matrix, labels: np.ndarray):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=int)
        if len(self.features) != len(self.labels):
            raise InvalidArgumentError("features and labels must have equal length")

    def __len__(self) -> int:
        return len(self.labels)

    @staticmethod
    def concat(sets: list["LabeledSet"]) -> "LabeledSet":
        if not sets:
            raise InvalidArgumentError("cannot concatenate zero sets")
        return LabeledSet(
            np.concatenate([s.features for s in sets]),
            np.concatenate([s.labels for s in sets]),
        )


@dataclass(frozen=True)
class DomainDataset:
    domain_id: int
    train: LabeledSet
    test: LabeledSet


@dataclass(frozen=True)
class DistillSet:
    """The fixed distillation inputs: features and which rows are external.

    Labels are stripped at construction; nothing downstream can read them.
    """

    features: Matrix
    external_mask: np.ndarray

    def __len__(self) -> int:
        return len(self.external_mask)

    def take(self, rows: np.ndarray) -> "DistillSet":
        """The set of these rows, in this order."""
        return DistillSet(self.features[rows], self.external_mask[rows])


@dataclass(frozen=True)
class ScenarioSpec:
    n_classes: int
    feature_dim: int
    n_domains: int
    shared_domains: tuple[int, ...]
    teacher_exclusive_domains: tuple[tuple[int, ...], ...]
    external_domains: tuple[int, ...]
    samples_per_class: int
    seed: int
    ed_ratio: float = 0.0
    external_relation: str = "related"

    def teacher_domain_ids(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.shared_domains) | set(self.teacher_exclusive_domains[t])))

    @property
    def n_teachers(self) -> int:
        return len(self.teacher_exclusive_domains)

    @property
    def teacher_known_domains(self) -> tuple[int, ...]:
        known: set[int] = set()
        for t in range(self.n_teachers):
            known |= set(self.teacher_domain_ids(t))
        return tuple(sorted(known))

    @property
    def unseen_domains(self) -> tuple[int, ...]:
        """Teacher-known domains that are neither shared nor external."""
        unseen = set(self.teacher_known_domains) - set(self.shared_domains)
        return tuple(sorted(unseen - set(self.external_domains)))

    def __post_init__(self) -> None:
        # feature_dim >= n_classes, checked below, makes feature_dim >= 2 too.
        least = {"n_classes": 2, "n_domains": 1, "samples_per_class": 4, "seed": 0}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise InvalidArgumentError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.feature_dim < self.n_classes:
            raise InvalidArgumentError(
                f"feature_dim ({self.feature_dim}) must be >= n_classes ({self.n_classes})"
            )
        if not self.teacher_exclusive_domains:
            raise InvalidArgumentError("need at least one teacher")
        if not (0.0 <= self.ed_ratio < 1.0):
            raise InvalidArgumentError(f"ed_ratio must lie in [0, 1), got {self.ed_ratio}")
        if self.external_relation not in RELATIONS:
            raise InvalidArgumentError(
                f"external_relation must be one of {RELATIONS}, got {self.external_relation!r}"
            )
        lists = {"shared_domains": self.shared_domains, "external_domains": self.external_domains}
        for t, excl in enumerate(self.teacher_exclusive_domains):
            lists[f"teacher_exclusive_domains[{t}]"] = excl
        for name, ids in lists.items():
            repeated = [m for i, m in enumerate(ids) if m in ids[:i]]
            if repeated:
                raise InvalidArgumentError(f"{name} lists domain {repeated[0]} twice")
        bad = [i for i in set().union(*lists.values()) if not (0 <= i < self.n_domains)]
        if bad:
            raise InvalidArgumentError(f"domain ids {bad} outside [0, {self.n_domains})")
        external = set(self.external_domains)
        for t in range(self.n_teachers):
            overlap = external & set(self.teacher_domain_ids(t))
            if overlap:
                raise InvalidArgumentError(
                    f"external domains {sorted(overlap)} overlap teacher {t}'s training domains"
                )
        shared = set(self.shared_domains)
        seen: set[int] = set()
        for t, excl in enumerate(self.teacher_exclusive_domains):
            if not excl and not shared:
                raise InvalidArgumentError(f"teacher {t} has no training domain, shared or exclusive")
            eset = set(excl)
            if eset & shared:
                raise InvalidArgumentError(f"teacher {t} exclusive domains overlap shared domains")
            if eset & seen:
                raise InvalidArgumentError(f"teacher {t} shares an exclusive domain with another teacher")
            seen |= eset


@dataclass(frozen=True)
class CdScenario:
    """What a run reads of a scenario: each domain's test split and the distillation set.

    No train split is kept; the student sees training rows only through the
    mixed distillation set.
    """

    spec: ScenarioSpec
    test_sets: dict[int, LabeledSet]
    distill_set: DistillSet


def _base_class_means(n_classes: int, feature_dim: int) -> Matrix:
    """Regular simplex of class means at radius MEAN_RADIUS, zero-padded to d."""
    eye = np.eye(n_classes) - 1.0 / n_classes
    scale = MEAN_RADIUS / np.sqrt(1.0 - 1.0 / n_classes)
    means = np.zeros((n_classes, feature_dim))
    means[:, :n_classes] = eye * scale
    return means


def _rotate_rows(rows: Matrix, angle_a: float, angle_b: float) -> Matrix:
    """Rotate rows in the first two coordinate planes by the given angles.

    Plane (0, 1) turns by angle_a and plane (2, 3) by angle_b; rotating a
    plane that lies entirely in the noise subspace would be a distributional
    no-op, so higher planes are left alone.
    """
    out = rows.copy()
    for k, angle in ((0, angle_a), (2, angle_b)):
        if k + 1 >= rows.shape[1]:
            break
        c, s = np.cos(angle), np.sin(angle)
        a = out[:, k].copy()
        b = out[:, k + 1].copy()
        out[:, k] = c * a - s * b
        out[:, k + 1] = s * a + c * b
    return out


def _domain_transform(
    seed: int, domain_id: int, n_classes: int, feature_dim: int, relation: str
) -> tuple[float, float, np.ndarray]:
    """Deterministic (angle_a, angle_b, shift) for one domain."""
    rel_code = RELATIONS.index(relation)
    rng = np.random.default_rng([_TRANSFORM_TAG, seed, domain_id, rel_code])
    shift = np.zeros(feature_dim)
    if relation == "related":
        table = RELATED_ANGLE_TABLE_DEG
        base_a, base_b = table[domain_id % len(table)]
        cycle = RELATED_TABLE_CYCLE_OFFSET_DEG * (domain_id // len(table))
        jitter = rng.uniform(-RELATED_ANGLE_JITTER_DEG, RELATED_ANGLE_JITTER_DEG, size=2)
        angle_a = base_a + cycle + jitter[0]
        angle_b = base_b + cycle + jitter[1]
    else:
        angle_a, angle_b = rng.uniform(*UNRELATED_ANGLE_RANGE_DEG, size=2)
        # Shift off the class-mean subspace: far from anything seen in
        # training without steering toward any particular class.
        if feature_dim > n_classes:
            direction = rng.standard_normal(feature_dim - n_classes)
            direction /= np.linalg.norm(direction)
            shift[n_classes:] = UNRELATED_SHIFT_NORM * direction
    return np.deg2rad(angle_a), np.deg2rad(angle_b), shift


def generate_domain(spec: ScenarioSpec, domain_id: int) -> DomainDataset:
    """Domain `domain_id` of the spec: rotated/shifted class means plus unit Gaussian noise.

    External domains take spec.external_relation and every other domain is
    related. The same spec and domain_id always produce bit-identical data.
    """
    relation = spec.external_relation if domain_id in spec.external_domains else "related"
    seed, n_classes, feature_dim = spec.seed, spec.n_classes, spec.feature_dim
    angle_a, angle_b, shift = _domain_transform(seed, domain_id, n_classes, feature_dim, relation)
    means = _rotate_rows(_base_class_means(n_classes, feature_dim), angle_a, angle_b) + shift
    rng = np.random.default_rng([_SAMPLES_TAG, seed, domain_id, RELATIONS.index(relation)])

    # Each class splits 80/20 on its own, keeping both splits non-empty.
    n_per_class = spec.samples_per_class
    n_train = max(1, min(n_per_class - 1, int(round(TRAIN_FRACTION * n_per_class))))
    train_feats, train_labels, test_feats, test_labels = [], [], [], []
    for c in range(n_classes):
        x = means[c] + rng.standard_normal((n_per_class, feature_dim))
        train_feats.append(x[:n_train])
        test_feats.append(x[n_train:])
        train_labels.append(np.full(n_train, c))
        test_labels.append(np.full(n_per_class - n_train, c))

    train = LabeledSet(np.concatenate(train_feats), np.concatenate(train_labels))
    test = LabeledSet(np.concatenate(test_feats), np.concatenate(test_labels))
    return DomainDataset(domain_id, train, test)


def _mix_selection(n_internal: int, n_external: int, ed_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays realizing |external'| / |total| = ed_ratio within one sample.

    Whichever pool is over-represented relative to the target ratio is
    deterministically thinned with evenly spaced indices.
    """
    if not (0.0 <= ed_ratio < 1.0):
        raise InvalidArgumentError(f"ed_ratio must lie in [0, 1), got {ed_ratio}")

    def spaced(k: int, n: int) -> np.ndarray:
        return np.floor(np.arange(k) * n / k).astype(int) if k < n else np.arange(n)

    if n_internal == 0:
        return np.zeros(0, dtype=int), np.arange(n_external)
    if ed_ratio == 0.0 or n_external == 0:
        return np.arange(n_internal), np.zeros(0, dtype=int)
    wanted_ext = int(round(n_internal * ed_ratio / (1.0 - ed_ratio)))
    if wanted_ext <= n_external:
        return np.arange(n_internal), spaced(wanted_ext, n_external)
    wanted_int = int(round(n_external * (1.0 - ed_ratio) / ed_ratio))
    return spaced(wanted_int, n_internal), np.arange(n_external)


def mix_rows(pools: DistillSet, ed_ratio: float) -> np.ndarray:
    """The rows of `pools`, internal rows first (as distill_pools stacks them), mixed at ed_ratio.

    The one mixing rule: the set is pools.take(rows), and whatever is
    row-aligned with the pools, such as a teacher's logits over them, is
    mixed alike by these rows. Raises InvalidArgumentError if no row is
    mixed, which only empty pools give.
    """
    n_external = int(pools.external_mask.sum())
    n_internal = len(pools) - n_external
    idx_i, idx_e = _mix_selection(n_internal, n_external, ed_ratio)
    rows = np.concatenate([idx_i, n_internal + idx_e])
    if len(rows) == 0:
        raise InvalidArgumentError("scenario has an empty distillation set")
    return rows


def generate_domains(spec: ScenarioSpec) -> dict[int, DomainDataset]:
    """Generate every domain of the spec once, keyed by id in id order."""
    return {m: generate_domain(spec, m) for m in range(spec.n_domains)}


def distill_pools(spec: ScenarioSpec, domains: dict[int, DomainDataset]) -> DistillSet:
    """The rows every distillation set of the spec is mixed from, at any ratio (mix_rows).

    These are the shared domains' train splits (internal), then the
    external domains' (external), each in id order, with labels stripped.
    `domains` holds the spec's domains (generate_domains).
    """
    internal = [domains[m].train.features for m in sorted(spec.shared_domains)]
    external = [domains[m].train.features for m in sorted(spec.external_domains)]
    mask = np.repeat([False, True], [sum(map(len, internal)), sum(map(len, external))])
    # The empty block gives the set its width when neither pool has a domain.
    features = np.concatenate([np.zeros((0, spec.feature_dim)), *internal, *external])
    return DistillSet(features, mask)


def build_scenario(spec: ScenarioSpec) -> CdScenario:
    """Generate every domain once; keep the test splits and the set mixed at spec.ed_ratio.

    The train splits are freed on return.
    """
    domains = generate_domains(spec)
    pools = distill_pools(spec, domains)
    test_sets = {m: ds.test for m, ds in domains.items()}
    return CdScenario(spec, test_sets, pools.take(mix_rows(pools, spec.ed_ratio)))


def balance_pair_stream(n_internal: int, n_external: int, batch_size: int, seed):
    """Yield (internal, external) row-index batches for one balanced epoch.

    Indices point into the internal and external pools. The smaller pool is
    oversampled uniformly with replacement to the size of the larger; the
    larger pool is visited in a seeded shuffle.
    """
    if n_internal <= 0 or n_external <= 0:
        raise InvalidArgumentError("both pools must be non-empty")
    if batch_size < 1:
        raise InvalidArgumentError(f"batch_size must be >= 1, got {batch_size}")
    n = max(n_internal, n_external)
    rng = np.random.default_rng(seed)

    def order(pool_size: int) -> np.ndarray:
        if pool_size == n:
            return rng.permutation(pool_size)
        return rng.integers(0, pool_size, size=n)

    order_i = order(n_internal)
    order_e = order(n_external)
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield order_i[start:stop], order_e[start:stop]


def write_domain_csv(dataset: DomainDataset, path: str | Path) -> None:
    """Write one domain, train rows then test rows, as a write-only export.

    Columns are feature_0..feature_{d-1}, label and domain; features print
    as repr, so they parse back to the same float64 values. The bytes are
    those of csv.writer's excel dialect: no field needs quoting, since a
    float's repr has no comma, quote or line break.
    """
    d = dataset.train.features.shape[1]
    lines = [",".join([f"feature_{i}" for i in range(d)] + ["label", "domain"])]
    for part in (dataset.train, dataset.test):
        for row, label in zip(part.features.tolist(), part.labels.tolist()):
            lines.append(f"{','.join(map(repr, row))},{label},{dataset.domain_id}")
    end = csv.excel.lineterminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(end.join(lines) + end)
