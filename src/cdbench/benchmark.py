"""The one way to train teacher t of a scenario.

Teachers are owned by the scenario, so teacher t's seed derives from the
scenario seed (`spec.seed * 1000 + t`) rather than from the run grid.
"""

from __future__ import annotations

from .domains import DomainDataset, ScenarioSpec
from .engine import RunConfig, train_teacher
from .nn_core import MlpModel


def train_benchmark_teacher(
    spec: ScenarioSpec, domains: dict[int, DomainDataset], config: RunConfig, t: int
) -> MlpModel:
    """Teacher t of the spec, trained on its domains; its seed derives from the spec's."""
    return train_teacher(
        [domains[m] for m in spec.teacher_domain_ids(t)],
        config,
        seed=spec.seed * 1000 + t,
        n_classes=spec.n_classes,
    )


def train_benchmark_teachers(
    spec: ScenarioSpec, domains: dict[int, DomainDataset], config: RunConfig
) -> list[MlpModel]:
    return [train_benchmark_teacher(spec, domains, config, t) for t in range(spec.n_teachers)]
