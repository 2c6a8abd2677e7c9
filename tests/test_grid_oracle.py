"""A reference grid that shares nothing, against what `sweep` writes.

For each (ratio, method, seed) the reference builds its own scenario and
student, screens the external rows by teacher entropy in plain numpy, and
calls `run_sequence` over the logits of its own pass of each checkpoint's
model over that set, with no `shared` dict, no pool and no logits shared
with another cell. Whatever schedule the grid runs its tasks in,
and whatever it shares between them, `sweep` must write the reference's
rows, summaries and per-epoch curves, `elapsed_seconds` aside.
"""

import csv
import json
import shutil
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdbench.cli import RESULT_COLUMNS, cmd_gen, cmd_sweep, cmd_teachers, parse_config
from cdbench.distill import METHODS
from cdbench.domains import DistillSet, build_scenario
from cdbench.engine import deserialize_model, frozen_logits, new_student, run_sequence
from cdbench.metrics import accuracy_matrix, average_forgetting
from cdbench.nn_core import forward

# No teacher's entropy reaches the loose threshold, and every one exceeds the tight one.
LOOSE, TIGHT = 100.0, 1e-9


def scenario_doc(out: Path, n_teachers: int) -> dict:
    """A tiny scenario: shared domain 0, one domain per teacher, and one external domain."""
    return {
        "schema_version": 1,
        "scenario": {
            "classes": 3,
            "feature_dim": 4,
            "n_domains": n_teachers + 2,
            "shared_domains": [0],
            "teacher_exclusive_domains": [[t + 1] for t in range(n_teachers)],
            "external_domains": [n_teachers + 1],
            "ed_ratio": 0.5,
            "samples_per_class": 8,
            "seed": 3,
        },
        "methods": ["kl"],
        "run": {
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 0.1,
            "temperature": 3.0,
            "teacher_epochs": 3,
            "teacher_hidden": [8],
            "student_hidden": [8],
        },
        "output_dir": str(out),
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """n_teachers -> a directory holding that scenario's manifest and teachers, made once."""
    dirs = {}

    def get(n_teachers: int) -> Path:
        if n_teachers not in dirs:
            out = tmp_path_factory.mktemp(f"teachers_{n_teachers}") / "out"
            config = parse_config(scenario_doc(out, n_teachers))
            cmd_gen(config)
            cmd_teachers(config)
            dirs[n_teachers] = out
        return dirs[n_teachers]

    return get


def screened(scenario, models, threshold):
    """The scenario without the external rows whose mean teacher entropy exceeds threshold."""
    ds = scenario.distill_set
    if threshold is None or not ds.external_mask.any():
        return scenario
    entropies = []
    for model in models:
        z = forward(model, ds.features[ds.external_mask])[0]
        z = z - z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        entropies.append(-(np.exp(log_p) * log_p).sum(axis=1))
    keep = ~ds.external_mask
    keep[ds.external_mask] = np.mean(entropies, axis=0) <= threshold
    # The two thresholds keep every external row or none.
    assert keep.all() if threshold == LOOSE else not keep[ds.external_mask].any()
    return replace(scenario, distill_set=DistillSet(ds.features[keep], ds.external_mask[keep]))


def mean_std(values) -> dict:
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def reference(config, ratios, models):
    """ratio -> (result rows, curve rows, summary) of the grid, each run on its own."""
    blocks = {}
    known = config.scenario.teacher_known_domains
    for ratio in ratios:
        spec = replace(config.scenario, ed_ratio=ratio)
        rows, curves, matrices = [], [], {}
        for method, seed in product(config.methods, config.run.seeds):
            scenario = screened(build_scenario(spec), models, config.external_entropy_max)
            features, chunk = scenario.distill_set.features, config.run.batch_size
            logits = [frozen_logits(model, features, chunk) for model in models]
            student = new_student(spec.feature_dim, spec.n_classes, config.run, seed)
            logs = run_sequence(student, logits, scenario, method, config.run, seed)
            matrices[method.method, seed] = accuracy_matrix(logs)
            for log in logs:
                t = log.task_index
                rows += [
                    (ratio, seed, method.method, t, t, d, acc)
                    for d, acc in log.accuracies.items()
                ]
                for e, accs in enumerate(log.epoch_accuracies or []):
                    curves += [(method.method, seed, t, e, d, acc) for d, acc in accs.items()]
        summary = {
            "schema_version": 1,
            "ed_ratio": ratio,
            "seeds": list(config.run.seeds),
            "teacher_known_domains": list(known),
            "n_tasks": spec.n_teachers,
            "methods": {},
        }
        for method in config.methods:
            # Means over seeds sum in ascending seed order, whatever the config's order.
            runs = [matrices[method.method, seed] for seed in sorted(config.run.seeds)]
            summary["methods"][method.method] = {
                "final_accuracy": {
                    str(d): mean_std([m.final(d) for m in runs]) for d in range(spec.n_domains)
                },
                "mean_final_accuracy_known": mean_std(
                    [float(np.mean([m.final(d) for d in known])) for m in runs]
                ),
                "average_forgetting": mean_std([average_forgetting(m, domains=known) for m in runs])
                if spec.n_teachers >= 2
                else None,
            }
        rows.sort(key=lambda r: (r[2], r[1], r[3], r[5]))
        blocks[ratio] = (rows, sorted(curves), summary)
    return blocks


def read_rows(path: Path) -> list[tuple]:
    """A results CSV's rows without elapsed_seconds, typed as the reference's."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == RESULT_COLUMNS
    return [
        (float(r), int(s), m, int(t), int(k), int(d), float(a)) for r, s, m, t, k, d, a, _ in rows
    ]


def read_curves(path: Path) -> list[tuple]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["method", "seed", "task", "epoch", "domain", "accuracy"]
    return [(m, int(s), int(t), int(e), int(d), float(a)) for m, s, t, e, d, a in rows]


grids = st.fixed_dictionaries(
    {
        "n_teachers": st.integers(1, 3),
        "methods": st.lists(st.sampled_from(METHODS), min_size=1, max_size=6, unique=True),
        "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        "ratios": st.lists(st.sampled_from([0.5, 1 / 3]), unique=True).flatmap(
            lambda others: st.permutations([0.0, *others])
        ),
        "jobs": st.sampled_from([1, 2]),
        "external_entropy_max": st.sampled_from([None, LOOSE, TIGHT]),
        "eval_every_epoch": st.booleans(),
    }
)


@settings(max_examples=12, deadline=None)
@given(grid=grids)
def test_sweep_writes_the_reference_grid(trained, grid):
    src = trained(grid["n_teachers"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(src, out)
        doc = scenario_doc(out, grid["n_teachers"])
        doc["methods"] = grid["methods"]
        doc["run"].update(seeds=grid["seeds"], eval_every_epoch=grid["eval_every_epoch"])
        doc.update(sweep_ratios=grid["ratios"], external_entropy_max=grid["external_entropy_max"])
        config = parse_config(doc)
        models = [
            deserialize_model((out / "checkpoints" / f"teacher_{t}.ckpt").read_bytes())
            for t in range(grid["n_teachers"])
        ]
        want = reference(config, config.sweep_ratios, models)

        cmd_sweep(config, jobs=grid["jobs"])

        tags = {0.0: "ratio_0", 0.5: "ratio_0_5", 1 / 3: "ratio_0_3333"}
        assert sorted(p.name for p in out.glob("ratio_*")) == sorted(tags[r] for r in want)
        for ratio, (rows, curves, summary) in want.items():
            block = out / tags[ratio]
            assert read_rows(block / "results.csv") == rows
            assert json.loads((block / "summary.json").read_text()) == summary
            curve_path = block / "curves" / "epoch_accuracy.csv"
            if grid["eval_every_epoch"]:
                assert read_curves(curve_path) == curves
            else:
                assert not curve_path.exists()
        assert read_rows(out / "sweep.csv") == [row for rows, _, _ in want.values() for row in rows]
