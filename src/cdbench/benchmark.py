"""The one way to train teacher t of a scenario.

Teachers are owned by the scenario, so teacher t's seed derives from the
scenario seed (`spec.seed * 1000 + t`) rather than from the run grid.
"""

from __future__ import annotations

from .domains import CdScenario
from .engine import RunConfig, train_teacher
from .nn_core import MlpModel


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
