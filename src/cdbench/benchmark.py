"""Canonical desk-scale benchmark: the fixed scenario family and training
settings used by the bundled configs and the acceptance suite.

Three teachers share domain 0 and each own one private domain (1-3);
domain 4 provides the external data. Teachers are owned by the scenario,
so their seeds derive from the scenario seed rather than the run grid.
"""

from __future__ import annotations

from .domains import DomainDataset, ScenarioSpec, generate_domain
from .engine import RunConfig, TeacherModel, train_teacher

BENCHMARK_SEEDS = (1, 2, 3)


def benchmark_spec(ed_ratio: float, seed: int = 1, relation: str = "related") -> ScenarioSpec:
    return ScenarioSpec(
        n_classes=4,
        feature_dim=8,
        n_domains=5,
        shared_domains=(0,),
        teacher_exclusive_domains=((1,), (2,), (3,)),
        external_domains=(4,),
        ed_ratio=ed_ratio,
        samples_per_class=200,
        seed=seed,
        external_relation=relation,
    )


def benchmark_run_config(**overrides) -> RunConfig:
    settings = dict(
        epochs=40,
        batch_size=64,
        learning_rate=0.01,
        temperature=3.0,
        seeds=BENCHMARK_SEEDS,
        teacher_epochs=150,
        teacher_hidden=(128, 128),
        student_hidden=(32, 32),
    )
    settings.update(overrides)
    return RunConfig(**settings)


def benchmark_teacher_datasets(spec: ScenarioSpec, teacher_index: int) -> list[DomainDataset]:
    return [
        generate_domain(spec.seed, m, spec.n_classes, spec.feature_dim, spec.samples_per_class)
        for m in spec.teacher_domain_ids(teacher_index)
    ]


def train_benchmark_teacher(spec: ScenarioSpec, config: RunConfig, t: int) -> TeacherModel:
    """Teacher t of the scenario; its seed derives from the scenario seed."""
    return train_teacher(
        benchmark_teacher_datasets(spec, t),
        config,
        seed=spec.seed * 1000 + t,
        n_classes=spec.n_classes,
    )


def train_benchmark_teachers(spec: ScenarioSpec, config: RunConfig) -> list[TeacherModel]:
    return [train_benchmark_teacher(spec, config, t) for t in range(spec.n_teachers)]
