"""Configuration-driven experiment runner.

Subcommands: `gen` materializes a scenario to CSV, `teachers` pretrains and
checkpoints the teacher sequence, `run` executes the method x seed grid,
`sweep` repeats `run` across external-data ratios, and `analyze` turns
results into forgetting/transfer metrics and plot-ready CSV files.

Exit codes: 0 success, 2 configuration or usage error, 3 data/format error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .benchmark import benchmark_teacher_datasets
from .distill import METHODS, MethodConfig, batch_entropy
from .domains import DistillSet, ScenarioSpec, build_scenario, generate_domain, write_domain_csv
from .engine import (
    RunConfig,
    TeacherModel,
    deserialize_model,
    evaluate,
    new_student,
    run_sequence,
    save_checkpoint,
    train_teacher,
)
from .errors import ConfigError, FormatError, InvalidArgumentError
from .metrics import AccuracyMatrix, average_forgetting, entropy_histogram, forgetting
from .nn_core import forward, softmax_t

SCHEMA_VERSION = 1
THREAD_CAP_ENV = "CD_BENCH_THREADS"
BLAS_THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESULT_COLUMNS = ("seed", "method", "task", "teacher", "domain", "accuracy", "elapsed_seconds")

_SCENARIO_KEYS = {
    "classes": int,
    "feature_dim": int,
    "n_domains": int,
    "shared_domains": list,
    "teacher_exclusive_domains": list,
    "external_domains": list,
    "ed_ratio": (int, float),
    "samples_per_class": int,
    "seed": int,
    "external_relation": str,
}
_RUN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "optimizer": str,
    "learning_rate": (int, float),
    "temperature": (int, float),
    "seeds": list,
    "eval_every_epoch": bool,
    "teacher_epochs": int,
    "teacher_learning_rate": (int, float, type(None)),
    "teacher_hidden": list,
    "student_hidden": list,
    "teacher_accuracy_floor": (int, float),
    "dkd_alpha": (int, float),
    "dkd_beta": (int, float),
    "mds_low_q": (int, float),
    "mds_high_q": (int, float),
}
_RUN_DEFAULTS = {
    "epochs": 3,
    "batch_size": 64,
    "optimizer": "adam",
    "learning_rate": 1e-4,
    "temperature": 10.0,
    "seeds": [1, 2, 3],
    "eval_every_epoch": False,
    "teacher_epochs": 50,
    "teacher_learning_rate": None,
    "teacher_hidden": [32, 32],
    "student_hidden": [32, 32],
    "teacher_accuracy_floor": 0.9,
    "dkd_alpha": 1.0,
    "dkd_beta": 8.0,
    "mds_low_q": 0.25,
    "mds_high_q": 0.75,
}
_SCENARIO_DEFAULTS = {"external_relation": "related", "ed_ratio": 0.0}
_TOP_KEYS = {
    "schema_version",
    "scenario",
    "methods",
    "run",
    "output_dir",
    "sweep_ratios",
    "external_entropy_max",
}


class UsageError(ConfigError):
    """A command was invoked before its inputs exist."""


@dataclass
class ExperimentConfig:
    scenario: ScenarioSpec
    methods: tuple[str, ...]
    run: RunConfig
    run_extras: dict  # method hyperparameters shared across the grid
    output_dir: Path
    sweep_ratios: tuple[float, ...] | None
    external_entropy_max: float | None = None  # optional ED pre-filter by teacher entropy


def _check_keys(section: dict, allowed: dict, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown field {where}.{key}")
    for key, kinds in allowed.items():
        if key in section and not isinstance(section[key], kinds):
            raise ConfigError(f"field {where}.{key} has the wrong type")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a configuration document, rejecting unknown fields."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown field {key}")
    for key in ("schema_version", "scenario", "methods", "run", "output_dir"):
        if key not in raw:
            raise ConfigError(f"missing required field {key}")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {raw['schema_version']!r} unsupported (expected {SCHEMA_VERSION})"
        )

    if not isinstance(raw["scenario"], dict):
        raise ConfigError("field scenario must be an object")
    _check_keys(raw["scenario"], _SCENARIO_KEYS, "scenario")
    scn = dict(_SCENARIO_DEFAULTS)
    scn.update(raw["scenario"])
    for key in _SCENARIO_KEYS:
        if key not in scn:
            raise ConfigError(f"missing required field scenario.{key}")
    try:
        spec = ScenarioSpec(
            n_classes=scn["classes"],
            feature_dim=scn["feature_dim"],
            n_domains=scn["n_domains"],
            shared_domains=tuple(scn["shared_domains"]),
            teacher_exclusive_domains=tuple(tuple(x) for x in scn["teacher_exclusive_domains"]),
            external_domains=tuple(scn["external_domains"]),
            ed_ratio=float(scn["ed_ratio"]),
            samples_per_class=scn["samples_per_class"],
            seed=scn["seed"],
            external_relation=scn["external_relation"],
        )
        spec.validate()
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from None

    methods = raw["methods"]
    if not isinstance(methods, list) or not methods:
        raise ConfigError("field methods must be a non-empty list")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid methods: {', '.join(METHODS)}")

    run_raw = dict(_RUN_DEFAULTS)
    if not isinstance(raw["run"], dict):
        raise ConfigError("field run must be an object")
    _check_keys(raw["run"], _RUN_KEYS, "run")
    run_raw.update(raw["run"])
    try:
        for key in ("seeds", "teacher_hidden", "student_hidden"):
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in run_raw[key]):
                raise ConfigError(f"field run.{key} must contain integers")
        run = RunConfig(
            epochs=run_raw["epochs"],
            batch_size=run_raw["batch_size"],
            optimizer=run_raw["optimizer"],
            learning_rate=float(run_raw["learning_rate"]),
            temperature=float(run_raw["temperature"]),
            seeds=tuple(int(s) for s in run_raw["seeds"]),
            eval_every_epoch=run_raw["eval_every_epoch"],
            teacher_epochs=run_raw["teacher_epochs"],
            teacher_learning_rate=(
                None
                if run_raw["teacher_learning_rate"] is None
                else float(run_raw["teacher_learning_rate"])
            ),
            teacher_hidden=tuple(int(x) for x in run_raw["teacher_hidden"]),
            student_hidden=tuple(int(x) for x in run_raw["student_hidden"]),
            teacher_accuracy_floor=float(run_raw["teacher_accuracy_floor"]),
        )
        extras = {
            k: float(run_raw[k]) for k in ("dkd_alpha", "dkd_beta", "mds_low_q", "mds_high_q")
        }
        # Validate the method hyperparameters once up front.
        for m in methods:
            MethodConfig(m, temperature=run.temperature, **extras)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid run settings: {exc}") from None

    ratios = raw.get("sweep_ratios")
    if ratios is not None:
        if not isinstance(ratios, list):
            raise ConfigError("field sweep_ratios must be a list")
        if not ratios:
            raise ConfigError("field sweep_ratios must not be empty")
        for r in ratios:
            if not isinstance(r, (int, float)) or not (0.0 <= float(r) < 1.0):
                raise ConfigError(f"sweep ratio {r!r} must lie in [0, 1)")
        ratios = tuple(float(r) for r in ratios)

    ent_max = raw.get("external_entropy_max")
    if ent_max is not None:
        if not isinstance(ent_max, (int, float)) or ent_max <= 0:
            raise ConfigError("field external_entropy_max must be a positive number")
        ent_max = float(ent_max)

    out = raw["output_dir"]
    if not isinstance(out, str) or not out:
        raise ConfigError("field output_dir must be a non-empty string")
    return ExperimentConfig(spec, tuple(methods), run, extras, Path(out), ratios, ent_max)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return parse_config(raw)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so interrupted runs never leave partial files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _spec_to_json(spec: ScenarioSpec) -> dict:
    return {
        "classes": spec.n_classes,
        "feature_dim": spec.feature_dim,
        "n_domains": spec.n_domains,
        "shared_domains": list(spec.shared_domains),
        "teacher_exclusive_domains": [list(x) for x in spec.teacher_exclusive_domains],
        "external_domains": list(spec.external_domains),
        "ed_ratio": spec.ed_ratio,
        "samples_per_class": spec.samples_per_class,
        "seed": spec.seed,
        "external_relation": spec.external_relation,
    }


def _spec_from_json(doc: dict) -> ScenarioSpec:
    return ScenarioSpec(
        n_classes=doc["classes"],
        feature_dim=doc["feature_dim"],
        n_domains=doc["n_domains"],
        shared_domains=tuple(doc["shared_domains"]),
        teacher_exclusive_domains=tuple(tuple(x) for x in doc["teacher_exclusive_domains"]),
        external_domains=tuple(doc["external_domains"]),
        ed_ratio=doc["ed_ratio"],
        samples_per_class=doc["samples_per_class"],
        seed=doc["seed"],
        external_relation=doc["external_relation"],
    )


def cmd_gen(config: ExperimentConfig) -> Path:
    """Materialize the scenario: one CSV per domain plus a manifest."""
    out = config.output_dir
    scenario_dir = out / "scenario"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    spec = config.scenario
    domains_meta = []
    for m in range(spec.n_domains):
        relation = spec.external_relation if m in spec.external_domains else "related"
        ds = generate_domain(
            spec.seed, m, spec.n_classes, spec.feature_dim, spec.samples_per_class, relation
        )
        rel_path = f"scenario/domain_{m}.csv"
        write_domain_csv(ds, scenario_dir / f"domain_{m}.csv")
        domains_meta.append(
            {"id": m, "train_rows": len(ds.train), "test_rows": len(ds.test), "csv": rel_path}
        )
    scenario = build_scenario(spec)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _spec_to_json(spec),
        "domains": domains_meta,
        "distill": {
            "size": len(scenario.distill_set),
            "internal": int((~scenario.distill_set.external_mask).sum()),
            "external": int(scenario.distill_set.external_mask.sum()),
        },
    }
    _write_json(out / "manifest.json", manifest)
    return out / "manifest.json"


def _require_manifest(config: ExperimentConfig) -> dict:
    path = config.output_dir / "manifest.json"
    if not path.exists():
        raise UsageError(f"no scenario found at {path}; run `cdbench gen` first")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("scenario") != _spec_to_json(config.scenario):
        raise ConfigError("config scenario differs from the generated manifest; rerun `gen`")
    return manifest


def _teacher_paths(config: ExperimentConfig) -> list[Path]:
    ckpt_dir = config.output_dir / "checkpoints"
    return [ckpt_dir / f"teacher_{t}.ckpt" for t in range(config.scenario.n_teachers)]


def cmd_teachers(config: ExperimentConfig) -> Path:
    """Pretrain one teacher per task and write checkpoints plus a quality report."""
    _require_manifest(config)
    spec = config.scenario
    scenario = build_scenario(spec)
    ckpt_dir = config.output_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report = {"schema_version": SCHEMA_VERSION, "floor": config.run.teacher_accuracy_floor, "teachers": []}
    for t, path in enumerate(_teacher_paths(config)):
        domain_ids = spec.teacher_domain_ids(t)
        teacher = train_teacher(
            benchmark_teacher_datasets(spec, t),
            config.run,
            seed=spec.seed * 1000 + t,
            n_classes=spec.n_classes,
        )
        save_checkpoint(teacher.model, path)
        accs = {str(d): evaluate(teacher.model, ts) for d, ts in sorted(scenario.test_sets.items())}
        in_domain = min(accs[str(d)] for d in domain_ids)
        report["teachers"].append(
            {
                "index": t,
                "trained_domains": list(domain_ids),
                "accuracy": accs,
                "in_domain_min": in_domain,
                "meets_floor": in_domain >= config.run.teacher_accuracy_floor,
            }
        )
    _write_json(config.output_dir / "teacher_report.json", report)
    return config.output_dir / "teacher_report.json"


def _load_teachers(config: ExperimentConfig) -> list[bytes]:
    payloads = []
    for t, path in enumerate(_teacher_paths(config)):
        if not path.exists():
            raise UsageError(f"missing teacher checkpoint {path}; run `cdbench teachers` first")
        payloads.append(path.read_bytes())
    return payloads


def _filter_external_by_entropy(scenario, teachers, threshold: float):
    """Drop external samples whose mean teacher entropy exceeds the threshold.

    Screening candidate external data by the teachers' own predictive
    uncertainty; internal samples always stay.
    """
    ds = scenario.distill_set
    if not ds.external_mask.any():
        return scenario
    ext = ds.features[ds.external_mask]
    per_teacher = [batch_entropy(softmax_t(forward(t.model, ext)[0], 1.0)) for t in teachers]
    keep_ext = np.mean(per_teacher, axis=0) <= threshold
    keep = ~ds.external_mask
    keep[np.flatnonzero(ds.external_mask)[keep_ext]] = True
    filtered = DistillSet(ds.features[keep], ds.domain_ids[keep], ds.external_mask[keep])
    return replace(scenario, distill_set=filtered)


def _run_cell(args: tuple) -> tuple[str, int, list[tuple], list[tuple]]:
    """One (method, seed) grid cell; executed possibly in a worker process."""
    spec_doc, method_name, extras, run, seed, teacher_payloads, entropy_max = args
    spec = _spec_from_json(spec_doc)
    scenario = build_scenario(spec)
    teachers = [
        TeacherModel(deserialize_model(p), frozenset(spec.teacher_domain_ids(t)))
        for t, p in enumerate(teacher_payloads)
    ]
    if entropy_max is not None:
        scenario = _filter_external_by_entropy(scenario, teachers, entropy_max)
    method = MethodConfig(method_name, temperature=run.temperature, **extras)
    student = new_student(spec.feature_dim, spec.n_classes, run, seed)
    rows: list[tuple] = []
    curve_rows: list[tuple] = []
    t0 = time.perf_counter()
    logs = run_sequence(student, iter(teachers), scenario, method, run, seed=seed)
    elapsed_total = time.perf_counter() - t0
    per_task = elapsed_total / max(1, len(logs))
    for log in logs:
        for d, acc in sorted(log.accuracies.items()):
            rows.append((seed, method_name, log.task_index, log.teacher_id, d, acc, per_task))
        if log.epoch_accuracies is not None:
            for e, accs in enumerate(log.epoch_accuracies):
                for d, acc in sorted(accs.items()):
                    curve_rows.append((method_name, seed, log.task_index, e, d, acc))
    return method_name, seed, rows, curve_rows


def _max_jobs(requested: int) -> int:
    cap = os.environ.get(THREAD_CAP_ENV)
    jobs = max(1, requested)
    if cap:
        try:
            jobs = min(jobs, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"{THREAD_CAP_ENV} must be an integer, got {cap!r}") from None
    return jobs


@contextmanager
def _single_threaded_blas() -> Iterator[None]:
    """Default each BLAS thread variable to 1 for processes started in the block.

    Values already set are kept; the defaults are removed again on exit.
    """
    added = [name for name in BLAS_THREAD_ENVS if name not in os.environ]
    for name in added:
        os.environ[name] = "1"
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_results_csv(path: Path, rows: list[tuple]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for seed, method, task, teacher, domain, acc, elapsed in rows:
        writer.writerow(
            [seed, method, task, teacher, domain, _format_float(acc), f"{elapsed:.6f}"]
        )
    _atomic_write(path, buf.getvalue().encode())


def cmd_run(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Execute the full method x seed grid and write results + summary."""
    _require_manifest(config)
    teacher_payloads = _load_teachers(config)
    out = config.output_dir
    cells = [
        (
            _spec_to_json(config.scenario),
            m,
            config.run_extras,
            config.run,
            s,
            teacher_payloads,
            config.external_entropy_max,
        )
        for m in config.methods
        for s in config.run.seeds
    ]
    jobs = _max_jobs(jobs)
    results: list[tuple] = []
    curves: list[tuple] = []
    if jobs > 1 and len(cells) > 1:
        # Grid cells already run in parallel, so each worker takes a
        # single-threaded BLAS; spawned workers import numpy afresh under it
        # instead of inheriting the parent's thread pool as forked ones would.
        with _single_threaded_blas(), ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            for _, _, rows, curve_rows in pool.map(_run_cell, cells):
                results.extend(rows)
                curves.extend(curve_rows)
    else:
        for cell in cells:
            _, _, rows, curve_rows = _run_cell(cell)
            results.extend(rows)
            curves.extend(curve_rows)
    results.sort(key=lambda r: (r[1], r[0], r[2], r[4]))
    _write_results_csv(out / "results.csv", results)
    if curves:
        curves.sort()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "seed", "task", "epoch", "domain", "accuracy"])
        for row in curves:
            writer.writerow([*row[:5], _format_float(row[5])])
        _atomic_write(out / "curves" / "epoch_accuracy.csv", buf.getvalue().encode())
    summary = _summarize(config, results)
    _write_json(out / "summary.json", summary)
    return out / "summary.json"


def _summarize(config: ExperimentConfig, rows: list[tuple]) -> dict:
    spec = config.scenario
    known = sorted(set().union(*(spec.teacher_domain_ids(t) for t in range(spec.n_teachers))))
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "ed_ratio": spec.ed_ratio,
        "seeds": list(config.run.seeds),
        "teacher_known_domains": known,
        "methods": {},
    }
    by_method_seed: dict[tuple[str, int], dict[int, dict[int, float]]] = {}
    n_tasks = 0
    for seed, method, task, _, domain, acc, _ in rows:
        by_method_seed.setdefault((method, seed), {}).setdefault(task, {})[domain] = acc
        n_tasks = max(n_tasks, task + 1)
    summary["n_tasks"] = n_tasks
    for method in config.methods:
        finals: dict[int, list[float]] = {}
        fgts: list[float] = []
        known_means: list[float] = []
        for seed in config.run.seeds:
            tasks = by_method_seed[(method, seed)]
            final = tasks[n_tasks - 1]
            for d, acc in final.items():
                finals.setdefault(d, []).append(acc)
            known_means.append(float(np.mean([final[d] for d in known])))
            if n_tasks >= 2:
                values = np.array(
                    [[tasks[t][d] for t in range(n_tasks)] for d in sorted(final)]
                )
                fgts.append(
                    average_forgetting(
                        AccuracyMatrix(tuple(sorted(final)), values), domains=tuple(known)
                    )
                )

        def agg(vals: list[float]) -> dict:
            return {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

        summary["methods"][method] = {
            "final_accuracy": {str(d): agg(v) for d, v in sorted(finals.items())},
            "mean_final_accuracy_known": agg(known_means),
            "average_forgetting": agg(fgts) if fgts else None,
        }
    return summary


def cmd_sweep(config: ExperimentConfig, ratios: tuple[float, ...], jobs: int = 1) -> Path:
    """Run the grid once per external-data ratio, sharing the teachers."""
    if not ratios:
        raise ConfigError("sweep needs at least one ratio")
    _require_manifest(config)
    _load_teachers(config)
    out = config.output_dir
    merged: list[tuple] = []
    for ratio in ratios:
        sub = ExperimentConfig(
            scenario=ScenarioSpec(
                **{**_spec_json_kwargs(config.scenario), "ed_ratio": float(ratio)}
            ),
            methods=config.methods,
            run=config.run,
            run_extras=config.run_extras,
            output_dir=out / f"ratio_{_ratio_tag(ratio)}",
            sweep_ratios=None,
            external_entropy_max=config.external_entropy_max,
        )
        sub.output_dir.mkdir(parents=True, exist_ok=True)
        # Reuse the parent's scenario manifest and teachers for every block.
        _write_json(
            sub.output_dir / "manifest.json",
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": _spec_to_json(sub.scenario),
                "domains": [],
                "distill": {},
            },
        )
        (sub.output_dir / "checkpoints").mkdir(exist_ok=True)
        for src, dst in zip(_teacher_paths(config), _teacher_paths(sub)):
            dst.write_bytes(src.read_bytes())
        cmd_run(sub, jobs=jobs)
        with open(sub.output_dir / "results.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                merged.append(
                    (
                        _format_float(ratio),
                        row["seed"],
                        row["method"],
                        row["task"],
                        row["teacher"],
                        row["domain"],
                        row["accuracy"],
                        row["elapsed_seconds"],
                    )
                )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("ed_ratio",) + RESULT_COLUMNS)
    for row in merged:
        writer.writerow(row)
    _atomic_write(out / "sweep.csv", buf.getvalue().encode())
    return out / "sweep.csv"


def _ratio_tag(ratio: float) -> str:
    return f"{ratio:.4f}".rstrip("0").rstrip(".").replace(".", "_") or "0"


def _spec_json_kwargs(spec: ScenarioSpec) -> dict:
    return {
        "n_classes": spec.n_classes,
        "feature_dim": spec.feature_dim,
        "n_domains": spec.n_domains,
        "shared_domains": spec.shared_domains,
        "teacher_exclusive_domains": spec.teacher_exclusive_domains,
        "external_domains": spec.external_domains,
        "ed_ratio": spec.ed_ratio,
        "samples_per_class": spec.samples_per_class,
        "seed": spec.seed,
        "external_relation": spec.external_relation,
    }


def read_results_csv(path: Path) -> list[dict]:
    """Parse a results CSV, reporting the offending line on failure."""
    if not path.exists():
        raise UsageError(f"no results at {path}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise FormatError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append(
                    {
                        "seed": int(row["seed"]),
                        "method": row["method"],
                        "task": int(row["task"]),
                        "teacher": int(row["teacher"]),
                        "domain": int(row["domain"]),
                        "accuracy": float(row["accuracy"]),
                        "elapsed_seconds": float(row["elapsed_seconds"]),
                    }
                )
            except (KeyError, ValueError) as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return rows


def _matrices_from_rows(rows: list[dict]):
    """(method, seed) -> AccuracyMatrix from flat result rows."""
    grouped: dict[tuple[str, int], dict[int, dict[int, float]]] = {}
    for r in rows:
        grouped.setdefault((r["method"], r["seed"]), {}).setdefault(r["task"], {})[
            r["domain"]
        ] = r["accuracy"]
    out = {}
    for key, tasks in grouped.items():
        n_tasks = max(tasks) + 1
        domains = tuple(sorted(tasks[0]))
        values = np.array([[tasks[t][d] for t in range(n_tasks)] for d in domains])
        out[key] = AccuracyMatrix(domains, values)
    return out


def cmd_analyze(results_dir: Path) -> Path:
    """Produce forgetting/transfer metrics and plot-data CSVs for a run directory."""
    results_dir = Path(results_dir)
    manifest_path = results_dir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    spec = _spec_from_json(manifest["scenario"])

    sweep_path = results_dir / "sweep.csv"
    blocks: dict[float, list[dict]] = {}
    if sweep_path.exists():
        with open(sweep_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                try:
                    ratio = float(row["ed_ratio"])
                    blocks.setdefault(ratio, []).append(
                        {
                            "seed": int(row["seed"]),
                            "method": row["method"],
                            "task": int(row["task"]),
                            "teacher": int(row["teacher"]),
                            "domain": int(row["domain"]),
                            "accuracy": float(row["accuracy"]),
                        }
                    )
                except (KeyError, ValueError) as exc:
                    raise FormatError(f"{sweep_path}: line {lineno}: {exc}") from None
    else:
        blocks[spec.ed_ratio] = read_results_csv(results_dir / "results.csv")

    known = sorted(set().union(*(set(spec.teacher_domain_ids(t)) for t in range(spec.n_teachers))))
    unseen = sorted(set(known) - set(spec.shared_domains) - set(spec.external_domains))
    metrics_doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "teacher_known_domains": known,
        "unseen_domains": unseen,
        "forgetting": {},
        "ukt": {},
        "entropy": [],
    }

    for ratio, rows in sorted(blocks.items()):
        mats = _matrices_from_rows(rows)
        block_doc: dict = {}
        for (method, seed), mat in sorted(mats.items()):
            if mat.n_tasks < 2:
                continue
            entry = block_doc.setdefault(method, {"per_domain": {}, "average": []})
            for d in mat.domain_ids:
                entry["per_domain"].setdefault(str(d), []).append(
                    forgetting(mat, d, mat.n_tasks - 1)
                )
            entry["average"].append(average_forgetting(mat, domains=tuple(known)))
        for method, entry in block_doc.items():
            entry["per_domain"] = {
                d: float(np.mean(v)) for d, v in sorted(entry["per_domain"].items())
            }
            entry["average"] = {
                "mean": float(np.mean(entry["average"])),
                "std": float(np.std(entry["average"])),
            }
        metrics_doc["forgetting"][_format_float(ratio)] = block_doc

    if len(blocks) > 1 and 0.0 in blocks:
        base = _matrices_from_rows(blocks[0.0])
        for ratio in sorted(blocks):
            if ratio == 0.0:
                continue
            with_ed = _matrices_from_rows(blocks[ratio])
            ukt_doc: dict = {}
            for (method, seed), mat in sorted(with_ed.items()):
                if (method, seed) not in base:
                    continue
                gains = {
                    d: mat.final(d) - base[(method, seed)].final(d) for d in unseen
                }
                entry = ukt_doc.setdefault(method, {"per_domain": {}, "mean": []})
                for d, g in gains.items():
                    entry["per_domain"].setdefault(str(d), []).append(g)
                entry["mean"].append(float(np.mean(list(gains.values()))))
            for method, entry in ukt_doc.items():
                entry["per_domain"] = {
                    d: float(np.mean(v)) for d, v in sorted(entry["per_domain"].items())
                }
                entry["mean"] = float(np.mean(entry["mean"]))
            metrics_doc["ukt"][_format_float(ratio)] = ukt_doc

    # Teacher entropy profiles over every domain's test split, when checkpoints exist.
    ckpt_dir = results_dir / "checkpoints"
    teacher_files = sorted(ckpt_dir.glob("teacher_*.ckpt")) if ckpt_dir.exists() else []
    if teacher_files:
        scenario = build_scenario(spec)
        for t, path in enumerate(teacher_files):
            model = deserialize_model(path.read_bytes())
            for d, test in sorted(scenario.test_sets.items()):
                profile = entropy_histogram(model, test.features, 1.0, bins=20)
                metrics_doc["entropy"].append(
                    {
                        "teacher": t,
                        "domain": d,
                        "mean_entropy": profile.mean,
                        "kurtosis": profile.kurtosis,
                        "histogram": {
                            "edges": [float(e) for e in profile.bin_edges],
                            "counts": [int(c) for c in profile.counts],
                        },
                    }
                )

    curves_dir = results_dir / "curves"
    curves_dir.mkdir(exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ed_ratio", "method", "seed", "domain", "task", "accuracy"])
    for ratio, rows in sorted(blocks.items()):
        for r in sorted(rows, key=lambda x: (x["method"], x["seed"], x["domain"], x["task"])):
            writer.writerow(
                [
                    _format_float(ratio),
                    r["method"],
                    r["seed"],
                    r["domain"],
                    r["task"],
                    _format_float(r["accuracy"]),
                ]
            )
    _atomic_write(curves_dir / "accuracy_curves.csv", buf.getvalue().encode())
    _write_json(results_dir / "metrics.json", metrics_doc)
    return results_dir / "metrics.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdbench",
        description="Sequential-teacher distillation benchmark on synthetic domain shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "teachers", "run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="override the config output_dir")
        if name in ("run", "sweep"):
            p.add_argument("--seeds", default=None, help="comma-separated seed list override")
            p.add_argument("--jobs", type=int, default=1, help="parallel grid cells")
        if name == "sweep":
            p.add_argument("--ratio", default=None, help="comma-separated ratio list override")
    p = sub.add_parser("analyze")
    p.add_argument("--out", required=True, help="results directory to analyze")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "out", None):
        config.output_dir = Path(args.out)
    if getattr(args, "seeds", None):
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s)
        except ValueError:
            raise ConfigError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}")
        if not seeds:
            raise ConfigError("--seeds must name at least one seed")
        config = replace(config, run=replace(config.run, seeds=seeds))
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            path = cmd_analyze(Path(args.out))
            print(path)
            return 0
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "gen":
            print(cmd_gen(config))
        elif args.command == "teachers":
            print(cmd_teachers(config))
        elif args.command == "run":
            print(cmd_run(config, jobs=args.jobs))
        elif args.command == "sweep":
            ratios = config.sweep_ratios
            if getattr(args, "ratio", None):
                try:
                    ratios = tuple(float(r) for r in args.ratio.split(",") if r)
                except ValueError:
                    raise ConfigError(f"--ratio must be a comma-separated list, got {args.ratio!r}")
            if not ratios:
                raise ConfigError("sweep requires sweep_ratios in the config or --ratio")
            for r in ratios:
                if not (0.0 <= r < 1.0):
                    raise ConfigError(f"sweep ratio {r} must lie in [0, 1)")
            print(cmd_sweep(config, ratios, jobs=args.jobs))
        return 0
    except (UsageError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, InvalidArgumentError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
