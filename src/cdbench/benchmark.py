"""Canonical desk-scale benchmark: the fixed scenario family and training
settings used by the bundled configs and the acceptance suite.

Three teachers share domain 0 and each own one private domain (1-3);
domain 4 provides the external data. Teachers are owned by the scenario,
so their seeds derive from the scenario seed rather than the run grid.
"""

from __future__ import annotations

from .domains import CdScenario, ScenarioSpec
from .engine import RunConfig, train_teacher
from .nn_core import MlpModel

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


def train_benchmark_teacher(scenario: CdScenario, config: RunConfig, t: int) -> MlpModel:
    """Teacher t of the scenario; its seed derives from the scenario seed."""
    spec = scenario.spec
    return train_teacher(
        [scenario.domains[m] for m in spec.teacher_domain_ids(t)],
        config,
        seed=spec.seed * 1000 + t,
        n_classes=spec.n_classes,
    )


def train_benchmark_teachers(scenario: CdScenario, config: RunConfig) -> list[MlpModel]:
    return [train_benchmark_teacher(scenario, config, t) for t in range(scenario.spec.n_teachers)]
