"""The one way to train teacher t of a scenario.

Teachers are owned by the scenario, so teacher t's seed derives from the
scenario seed (`spec.seed * 1000 + t`) rather than from the run grid.
"""

from __future__ import annotations

from .domains import LabeledSet, ScenarioSpec, generate_spec_domain
from .engine import RunConfig, train_teacher
from .errors import DivergenceError
from .nn_core import MlpModel


def train_benchmark_teacher(spec: ScenarioSpec, config: RunConfig, t: int) -> MlpModel:
    """Teacher t of the spec, trained on its domains; its seed derives from the spec's.

    Only teacher t's domains are generated, and only their train splits,
    concatenated in id order, live while it trains. A DivergenceError from
    training names the teacher.
    """
    train = LabeledSet.concat(
        [generate_spec_domain(spec, m).train for m in spec.teacher_domain_ids(t)]
    )
    try:
        return train_teacher(train, config, seed=spec.seed * 1000 + t, n_classes=spec.n_classes)
    except DivergenceError as exc:
        raise DivergenceError(f"teacher {t}, {exc}") from None


def train_benchmark_teachers(spec: ScenarioSpec, config: RunConfig) -> list[MlpModel]:
    return [train_benchmark_teacher(spec, config, t) for t in range(spec.n_teachers)]
