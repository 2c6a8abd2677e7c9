import tracemalloc

import numpy as np
import pytest

from cdbench import RunConfig, ScenarioSpec


def finite_difference_logits(loss_fn, logits, h=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. a logit matrix."""
    grad = np.zeros_like(logits)
    it = np.nditer(logits, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = logits.copy()
        up[idx] += h
        down = logits.copy()
        down[idx] -= h
        grad[idx] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def max_relative_error(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-6)
    return np.max(np.abs(analytic - numeric)) / scale


def traced_peak(fn) -> int:
    """Bytes that fn() allocated at its peak, by tracemalloc, above what was live before."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def domain_spec(seed, n_classes, feature_dim, samples_per_class, unrelated=()):
    """A ten-domain scenario of these data settings whose one teacher knows domain 0.

    The domains in `unrelated` are its external ones, of relation
    "unrelated"; generate_domain makes every other domain related.
    """
    return ScenarioSpec(
        n_classes=n_classes,
        feature_dim=feature_dim,
        n_domains=10,
        shared_domains=(),
        teacher_exclusive_domains=((0,),),
        external_domains=tuple(unrelated),
        samples_per_class=samples_per_class,
        seed=seed,
        external_relation="unrelated",
    )


def loaders(models):
    """Zero-argument loaders of these in-memory models, the teachers run_grid takes."""
    return [lambda model=model: model for model in models]


@pytest.fixture(scope="session")
def desk_config():
    """Small, fast settings used by the data/engine sanity oracles."""
    return RunConfig(
        epochs=5,
        batch_size=32,
        learning_rate=0.01,
        temperature=3.0,
        teacher_epochs=50,
        teacher_hidden=(32, 32),
        student_hidden=(32, 32),
    )
