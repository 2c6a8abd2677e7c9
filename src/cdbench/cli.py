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
import ctypes
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import product
from pathlib import Path
from types import UnionType
from typing import Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .benchmark import train_benchmark_teacher
from .distill import MethodConfig, teacher_entropy
from .domains import (
    DistillSet,
    LabeledSet,
    ScenarioSpec,
    build_scenario,
    generate_domains,
    write_domain_csv,
)
from .engine import (
    FrozenTeacher,
    RunConfig,
    deserialize_model,
    evaluate,
    frozen_logits,
    new_student,
    run_sequence,
    save_checkpoint,
)
from .errors import ConfigError, FormatError, InvalidArgumentError
from .metrics import AccuracyMatrix, average_forgetting, entropy_histogram, forgetting, ukt_gain
from .nn_core import MlpModel

SCHEMA_VERSION = 1
BLAS_THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS's thread-count functions, in the order _openblas_threads tries
# them, with `{}` "set" or "get", and each one's C signature. numpy 2's
# wheels bundle the first; the others are plain OpenBLAS's names, with and
# without its 64-bit-integer suffix.
_OPENBLAS_FUNCTIONS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)
_OPENBLAS_SIGNATURES = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}

RESULT_COLUMNS = ("seed", "method", "task", "teacher", "domain", "accuracy", "elapsed_seconds")
SWEEP_COLUMNS = ("ed_ratio",) + RESULT_COLUMNS


# Parsers of the results.csv and sweep.csv columns; the other columns are
# integers. _check_row holds the rules on their values.
_CSV_TYPES = {"ed_ratio": float, "method": str, "accuracy": float, "elapsed_seconds": float}

# Config sections are the fields of these dataclasses, under the same names
# except for this one rename. The `run` section also takes the method
# hyperparameters, which every listed method shares.
_JSON_NAMES = {"n_classes": "classes"}


def _schema(cls, exclude: tuple[str, ...] = ()) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, field type, required) for a dataclass's fields."""
    hints = get_type_hints(cls)
    return {
        _JSON_NAMES.get(f.name, f.name): (f.name, hints[f.name], f.default is MISSING)
        for f in fields(cls)
        if f.name not in exclude
    }


_SCENARIO_SCHEMA = _schema(ScenarioSpec)
_RUN_SCHEMA = _schema(RunConfig)
_METHOD_SCHEMA = _schema(MethodConfig, exclude=("method",))


class UsageError(ConfigError):
    """A command was invoked before its inputs exist."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its scenario, methods and run settings; it checks its fields itself."""

    scenario: ScenarioSpec
    methods: tuple[MethodConfig, ...]
    run: RunConfig
    output_dir: Path
    sweep_ratios: tuple[float, ...] | None = None
    external_entropy_max: float | None = None  # optional ED pre-filter by teacher entropy

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("field methods must list at least one method")
        names = [m.method for m in self.methods]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"method {name!r} is listed twice")
        if self.sweep_ratios is not None:
            _check_ratios(self.sweep_ratios)
        # Written so that NaN fails the check.
        if self.external_entropy_max is not None and not self.external_entropy_max > 0:
            raise ConfigError("field external_entropy_max must be a positive number")


# The top-level config keys: schema_version, then ExperimentConfig's fields.
_EXPERIMENT_SCHEMA = {"schema_version": ("schema_version", int, True), **_schema(ExperimentConfig)}


def _coerce(value, kind, where: str):
    """Check a JSON value against a field type and convert it.

    Lists become tuples and integers pass for floats; booleans pass only
    for booleans, and floats must be finite.
    """
    if get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_coerce(v, get_args(kind)[0], where) for v in value)
    if get_origin(kind) is UnionType:  # `float | None`
        return None if value is None else _coerce(value, get_args(kind)[0], where)
    if kind is float and type(value) in (int, float):
        # False for NaN, the infinities and integers too large for a float.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"field {where} must be a finite number")
        return float(value)
    if type(value) is kind:
        return value
    raise ConfigError(f"field {where} has the wrong type")


def _parse_section(doc, where: str, schema: dict) -> dict:
    """Constructor keywords from one config object; absent optional fields keep their defaults."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown field {where}.{key}")
    kwargs = {}
    for key, (name, kind, required) in schema.items():
        if key in doc:
            kwargs[name] = _coerce(doc[key], kind, f"{where}.{key}")
        elif required:
            raise ConfigError(f"missing required field {where}.{key}")
    return kwargs


def _scenario_from_json(doc, where: str = "scenario") -> ScenarioSpec:
    try:
        return ScenarioSpec(**_parse_section(doc, where, _SCENARIO_SCHEMA))
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from None


def _scenario_to_json(spec: ScenarioSpec) -> dict:
    return {_JSON_NAMES.get(k, k): v for k, v in asdict(spec).items()}


def _ratio_tag(ratio: float) -> str:
    return f"{ratio:.4f}".rstrip("0").rstrip(".").replace(".", "_") or "0"


def _check_ratios(ratios: tuple[float, ...]) -> None:
    """Sweep ratios: at least one, each in [0, 1), naming distinct ratio_<tag> directories."""
    if not ratios:
        raise ConfigError("sweep_ratios must list at least one ratio")
    tags: set[str] = set()
    for r in ratios:
        if not (0.0 <= r < 1.0):
            raise ConfigError(f"sweep ratio {r!r} must lie in [0, 1)")
        tag = _ratio_tag(r)
        if tag in tags:
            raise ConfigError(f"sweep ratio {r!r} repeats an earlier ratio's directory ratio_{tag}")
        tags.add(tag)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a configuration document, rejecting unknown fields."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in raw:
        if key not in _EXPERIMENT_SCHEMA:
            raise ConfigError(f"unknown field {key}")
    for key, (_, _, required) in _EXPERIMENT_SCHEMA.items():
        if required and key not in raw:
            raise ConfigError(f"missing required field {key}")
    if _coerce(raw["schema_version"], int, "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {raw['schema_version']!r} unsupported (expected {SCHEMA_VERSION})"
        )
    spec = _scenario_from_json(raw["scenario"])

    names = raw["methods"]
    if not isinstance(names, list):
        raise ConfigError("field methods must be a list")
    try:  # MethodConfig's own error names the valid methods
        methods = tuple(MethodConfig(m) for m in names)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None

    run_kwargs = _parse_section(raw["run"], "run", {**_RUN_SCHEMA, **_METHOD_SCHEMA})
    extras = {k: run_kwargs.pop(k) for k in _METHOD_SCHEMA if k in run_kwargs}
    try:  # the methods' hyperparameters are run settings
        run = RunConfig(**run_kwargs)
        methods = tuple(replace(m, **extras) for m in methods)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid run settings: {exc}") from None

    out = raw["output_dir"]
    if not isinstance(out, str) or not out:
        raise ConfigError("field output_dir must be a non-empty string")
    optional = {
        name: _coerce(raw[key], kind, key)
        for key, (name, kind, required) in _EXPERIMENT_SCHEMA.items()
        if not required and key in raw
    }
    return ExperimentConfig(spec, methods, run, Path(out), **optional)


def _read_file(path: Path, error: type[Exception], missing: str) -> bytes:
    """A stage input's bytes; UsageError(missing) if it is absent, `error` if it is unreadable."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise UsageError(missing) from None
    except OSError as exc:
        raise error(f"{path}: cannot be read: {exc.strerror}") from None


def _read_json(path: Path, error: type[Exception], missing: str) -> dict:
    """A stage input's JSON object; `error` names a file that is not UTF-8, JSON or an object."""
    data = _read_file(path, error, missing)
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(_read_json(path, ConfigError, f"config file {path} does not exist"))


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so interrupted runs never leave partial files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode())


def cmd_gen(config: ExperimentConfig) -> Path:
    """Materialize the scenario: one CSV per domain plus a manifest."""
    out = config.output_dir
    (out / "scenario").mkdir(parents=True, exist_ok=True)
    spec = config.scenario
    scenario = build_scenario(spec)
    domains_meta = []
    for m, ds in scenario.domains.items():
        rel_path = f"scenario/domain_{m}.csv"
        write_domain_csv(ds, out / rel_path)
        domains_meta.append(
            {"id": m, "train_rows": len(ds.train), "test_rows": len(ds.test), "csv": rel_path}
        )
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_to_json(spec),
        "domains": domains_meta,
        "distill": {
            "size": len(scenario.distill_set),
            "internal": int((~scenario.distill_set.external_mask).sum()),
            "external": int(scenario.distill_set.external_mask.sum()),
        },
    }
    _write_json(out / "manifest.json", manifest)
    return out / "manifest.json"


def _manifest_scenario(results_dir: Path) -> ScenarioSpec:
    path = results_dir / "manifest.json"
    missing = f"no scenario found at {path}; run `cdbench gen` first"
    manifest = _read_json(path, FormatError, missing)
    try:
        return _scenario_from_json(manifest.get("scenario"), "manifest.scenario")
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _require_manifest(config: ExperimentConfig) -> None:
    if _manifest_scenario(config.output_dir) != config.scenario:
        raise ConfigError("config scenario differs from the generated manifest; rerun `gen`")


def _teacher_paths(out_dir: Path, spec: ScenarioSpec) -> list[Path]:
    """The checkpoint of teacher t, for every teacher of the spec, in task order."""
    return [out_dir / "checkpoints" / f"teacher_{t}.ckpt" for t in range(spec.n_teachers)]


def _read_teacher(path: Path, spec: ScenarioSpec) -> MlpModel:
    """The teacher at `path`; FormatError names the file if it is malformed or misfits `spec`."""
    missing = f"missing teacher checkpoint {path}; run `cdbench teachers` first"
    data = _read_file(path, FormatError, missing)
    try:
        model = deserialize_model(data)
        if (model.input_dim, model.num_classes) != (spec.feature_dim, spec.n_classes):
            raise FormatError(
                f"the teacher maps {model.input_dim} features to {model.num_classes} classes, "
                f"the scenario has {spec.feature_dim} features and {spec.n_classes} classes"
            )
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return model


def _openblas_threads(action: str):
    """OpenBLAS's `action`_num_threads function, "set" or "get", through ctypes; None if absent.

    It looks in the OpenBLAS that numpy's wheels bundle in numpy.libs.
    numpy built on another BLAS (MKL, Accelerate, a system OpenBLAS) has
    none there.
    """
    libs = []
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            libs.append(ctypes.CDLL(str(path)))
        except OSError:
            pass
    for name in _OPENBLAS_FUNCTIONS:
        for lib in libs:
            function = getattr(lib, name.format(action), None)
            if function is not None:
                function.argtypes, function.restype = _OPENBLAS_SIGNATURES[action]
                return function
    return None


def cmd_teachers(config: ExperimentConfig) -> Path:
    """Pretrain one teacher per task and write checkpoints plus a quality report.

    With two or more usable cores and an OpenBLAS thread setter, the
    teachers train in forked workers, one per core up to one per teacher,
    each on one BLAS thread; otherwise they train here one after another.
    Both ways write the same bytes, and this process's thread count never
    changes.
    """
    _require_manifest(config)
    spec = config.scenario
    # Each teacher generates its own training rows; the report needs only the test splits.
    test_sets = {m: ds.test for m, ds in generate_domains(spec).items()}
    (config.output_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    paths = _teacher_paths(config.output_dir, spec)
    make = partial(_make_teacher, spec, test_sets, config.run)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = min(spec.n_teachers, cores)
    set_threads = _openblas_threads("set") if jobs > 1 else None
    if set_threads is None:
        entries = [make(t, path) for t, path in enumerate(paths)]
    else:
        # Imported here, as in run_grid. Unlike its spawned workers, forked
        # ones re-import nothing. OpenBLAS stops its threads at fork, and each
        # worker takes one thread before its first teacher.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=set_threads,
            initargs=(1,),
        ) as pool:
            entries = list(pool.map(make, range(spec.n_teachers), paths))
    report = {
        "schema_version": SCHEMA_VERSION,
        "floor": config.run.teacher_accuracy_floor,
        "settings": config.run.teacher_settings,
        "teachers": entries,
    }
    _write_json(config.output_dir / "teacher_report.json", report)
    return config.output_dir / "teacher_report.json"


def _make_teacher(
    spec: ScenarioSpec, test_sets: dict[int, LabeledSet], run: RunConfig, t: int, path: Path
) -> dict:
    """Train teacher t, checkpoint it at `path` and return its report entry.

    The teacher is freed on return, so each process of `teachers` holds one
    at a time.
    """
    teacher = train_benchmark_teacher(spec, run, t)
    # The teacher passed the divergence check, so serialize_model accepts it.
    save_checkpoint(teacher, path)
    domain_ids = spec.teacher_domain_ids(t)
    accs = {str(d): evaluate(teacher, ts) for d, ts in sorted(test_sets.items())}
    in_domain = min(accs[str(d)] for d in domain_ids)
    return {
        "index": t,
        "trained_domains": list(domain_ids),
        "accuracy": accs,
        "in_domain_min": in_domain,
        "meets_floor": in_domain >= run.teacher_accuracy_floor,
    }


def _load_teachers(config: ExperimentConfig) -> list[MlpModel]:
    """The checkpointed teachers, once teacher_report.json shows config's settings made them."""
    path = config.output_dir / "teacher_report.json"
    missing = f"no teacher report at {path}; run `cdbench teachers` first"
    report = _read_json(path, FormatError, missing)
    recorded = report.get("settings", {})
    if not isinstance(recorded, dict):
        raise FormatError(f"{path}: settings is not a JSON object")
    for key, value in config.run.teacher_settings.items():
        if recorded.get(key) != value:
            raise ConfigError(
                f"run.{key} is {value!r}, but the teachers were trained with "
                f"{recorded.get(key)!r}; rerun `cdbench teachers`"
            )
    spec = config.scenario
    return [_read_teacher(path, spec) for path in _teacher_paths(config.output_dir, spec)]


def _filter_external_by_entropy(scenario, teachers, threshold: float, chunk: int):
    """Drop external samples whose mean teacher entropy exceeds the threshold.

    Screening candidate external data by the teachers' own predictive
    uncertainty, each teacher run over `chunk` rows at a time; internal
    samples always stay.
    """
    ds = scenario.distill_set
    if not ds.external_mask.any():
        return scenario
    ext = ds.features[ds.external_mask]
    per_teacher = [teacher_entropy(frozen_logits(t, ext, chunk), 1.0) for t in teachers]
    keep_ext = np.mean(per_teacher, axis=0) <= threshold
    keep = ~ds.external_mask
    keep[np.flatnonzero(ds.external_mask)[keep_ext]] = True
    filtered = DistillSet(ds.features[keep], ds.external_mask[keep])
    return replace(scenario, distill_set=filtered)


def _run_cell(args: tuple) -> tuple[list[dict], list[tuple]]:
    """One (method, seed) grid cell; executed possibly in a worker process."""
    scenario, method, run, seed, teachers = args
    student = new_student(scenario.spec.feature_dim, scenario.spec.n_classes, run, seed)
    rows: list[dict] = []
    curve_rows: list[tuple] = []
    for log in run_sequence(student, iter(teachers), scenario, method, run, seed=seed):
        t = log.task_index
        for d, acc in sorted(log.accuracies.items()):
            row = (seed, method.method, t, t, d, acc, log.elapsed_seconds)
            rows.append(dict(zip(RESULT_COLUMNS, row)))
        if log.epoch_accuracies is not None:
            for e, accs in enumerate(log.epoch_accuracies):
                for d, acc in sorted(accs.items()):
                    curve_rows.append((method.method, seed, t, e, d, acc))
    return rows, curve_rows


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


def run_grid(
    config: ExperimentConfig, teachers: list[MlpModel], jobs: int = 1
) -> tuple[list[dict], list[tuple]]:
    """Run config's method x seed grid on config.scenario in memory.

    The scenario is built, and its external rows screened, once for all
    cells. The cells share one FrozenTeacher per teacher, so each teacher
    runs over the distillation set once per call, not once per cell (with
    jobs > 1, each cell is pickled on its own and makes its own pass).
    Serially, a teacher's model is freed after its pass unless the caller
    holds it, as `sweep` does for its later ratios.
    Returns the result rows, keyed by RESULT_COLUMNS and sorted by
    method, seed, task and domain, and the sorted per-epoch curve rows.
    """
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    scenario = build_scenario(config.scenario)
    if config.external_entropy_max is not None:
        scenario = _filter_external_by_entropy(
            scenario, teachers, config.external_entropy_max, config.run.batch_size
        )
    frozen = [FrozenTeacher(t) for t in teachers]
    # Each FrozenTeacher drops its model after its pass; the list would keep them all.
    del teachers
    cells = [
        (scenario, m, config.run, s, frozen)
        for m in config.methods
        for s in config.run.seeds
    ]
    if jobs > 1 and len(cells) > 1:
        # Imported here, since a serial grid and the other stages never need them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Grid cells already run in parallel, so each worker takes a
        # single-threaded BLAS; spawned workers import numpy afresh under it
        # instead of inheriting the parent's thread pool as forked ones would.
        with _single_threaded_blas(), ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            done = list(pool.map(_run_cell, cells))
    else:
        done = [_run_cell(cell) for cell in cells]
    rows = [r for cell_rows, _ in done for r in cell_rows]
    rows.sort(key=lambda r: (r["method"], r["seed"], r["task"], r["domain"]))
    curves = sorted(c for _, cell_curves in done for c in cell_curves)
    return rows, curves


def _write_results_csv(path: Path, rows: list[dict], columns=RESULT_COLUMNS) -> None:
    """Write result rows; a float column prints as repr, elapsed_seconds to the microsecond."""
    _write_csv(
        path,
        columns,
        ([f"{r[c]:.6f}" if c == "elapsed_seconds" else r[c] for c in columns] for r in rows),
    )


def _write_grid(
    out: Path, config: ExperimentConfig, rows: list[dict], curves: list[tuple]
) -> Path:
    """Write one grid's results.csv, optional per-epoch curves and summary.json."""
    _write_results_csv(out / "results.csv", rows)
    if curves:
        _write_csv(
            out / "curves" / "epoch_accuracy.csv",
            ("method", "seed", "task", "epoch", "domain", "accuracy"),
            curves,
        )
    _write_json(out / "summary.json", _summarize(config, rows))
    return out / "summary.json"


def cmd_run(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Execute the full method x seed grid and write results + summary."""
    _require_manifest(config)
    rows, curves = run_grid(config, _load_teachers(config), jobs)
    return _write_grid(config.output_dir, config, rows, curves)


def _accuracy_matrices(rows: list[dict], where: str) -> dict[tuple[str, int], AccuracyMatrix]:
    """(method, seed) -> AccuracyMatrix over every domain and task in the rows.

    The rows must hold every method x seed x task x domain combination once.
    """
    acc = {}
    for r in rows:
        key = (r["method"], r["seed"], r["task"], r["domain"])
        if key in acc:
            raise FormatError(
                f"{where}: repeated result for method {key[0]}, seed {key[1]}, task {key[2]}, "
                f"domain {key[3]}"
            )
        acc[key] = r["accuracy"]
    methods, seeds, tasks, domains = (sorted({key[i] for key in acc}) for i in range(4))
    matrices = {}
    for method in methods:
        for seed in seeds:
            values = np.empty((len(domains), max(tasks) + 1))
            for (i, d), t in product(enumerate(domains), range(values.shape[1])):
                if (method, seed, t, d) not in acc:
                    raise FormatError(
                        f"{where}: no result for method {method}, seed {seed}, task {t}, domain {d}"
                    )
                values[i, t] = acc[method, seed, t, d]
            matrices[method, seed] = AccuracyMatrix(tuple(domains), values)
    return matrices


def _mean_std(values: list[float]) -> dict:
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def _seed_mean(per_seed: list[dict[int, float]]) -> dict[str, float]:
    """Per-domain mean over seeds."""
    return {str(d): float(np.mean([v[d] for v in per_seed])) for d in per_seed[0]}


def _summarize(config: ExperimentConfig, rows: list[dict]) -> dict:
    known = config.scenario.teacher_known_domains
    matrices = _accuracy_matrices(rows, "grid")
    n_tasks = max(r["task"] for r in rows) + 1
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "ed_ratio": config.scenario.ed_ratio,
        "seeds": list(config.run.seeds),
        "teacher_known_domains": list(known),
        "n_tasks": n_tasks,
        "methods": {},
    }
    for method in (m.method for m in config.methods):
        runs = [matrices[method, seed] for seed in config.run.seeds]
        summary["methods"][method] = {
            "final_accuracy": {
                str(d): _mean_std([m.final(d) for m in runs]) for d in runs[0].domain_ids
            },
            "mean_final_accuracy_known": _mean_std(
                [float(np.mean([m.final(d) for d in known])) for m in runs]
            ),
            "average_forgetting": _mean_std(
                [average_forgetting(m, domains=known) for m in runs]
            )
            if n_tasks >= 2
            else None,
        }
    return summary


def cmd_sweep(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Run the grid once per ratio of config.sweep_ratios, sharing the teachers."""
    ratios = config.sweep_ratios
    if ratios is None:  # a ratio list that is given was checked at construction
        raise ConfigError("sweep needs at least one ratio: set sweep_ratios or pass --ratio")
    _require_manifest(config)
    teachers = _load_teachers(config)
    out = config.output_dir
    swept: list[dict] = []
    for ratio in ratios:
        at_ratio = replace(config, scenario=replace(config.scenario, ed_ratio=float(ratio)))
        rows, curves = run_grid(at_ratio, teachers, jobs)
        _write_grid(out / f"ratio_{_ratio_tag(ratio)}", at_ratio, rows, curves)
        swept.extend({"ed_ratio": at_ratio.scenario.ed_ratio, **r} for r in rows)
    _write_results_csv(out / "sweep.csv", swept, SWEEP_COLUMNS)
    return out / "sweep.csv"


def _check_row(row: dict, spec: ScenarioSpec) -> None:
    """Raise ValueError for a value no grid of `spec` writes; each range check fails NaN."""
    if not 0.0 <= row["accuracy"] <= 1.0:
        raise ValueError(f"accuracy {row['accuracy']!r} lies outside [0, 1]")
    if "ed_ratio" in row and not 0.0 <= row["ed_ratio"] < 1.0:
        raise ValueError(f"ed_ratio {row['ed_ratio']!r} lies outside [0, 1)")
    for key, count in (("task", spec.n_teachers), ("domain", spec.n_domains)):
        if not 0 <= row[key] < count:
            raise ValueError(f"{key} {row[key]} is outside the scenario's [0, {count})")
    if row["teacher"] != row["task"]:
        raise ValueError(f"teacher {row['teacher']} is not the row's task {row['task']}")


def read_results_csv(
    path: Path, spec: ScenarioSpec, columns: tuple[str, ...] = RESULT_COLUMNS
) -> list[dict]:
    """Parse results.csv, or sweep.csv with SWEEP_COLUMNS, reporting the offending line.

    Every row must also fit `spec`, the scenario that made it (see _check_row).
    """
    data = _read_file(path, FormatError, f"no results at {path}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = []
    try:
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise FormatError(f"{path}: missing columns {missing}")
        for row in reader:
            rows.append({c: _CSV_TYPES.get(c, int)(row[c]) for c in columns})
            _check_row(rows[-1], spec)
    except FormatError:
        raise
    except (TypeError, ValueError, csv.Error) as exc:  # TypeError: a short row
        # The inner reader's count: DictReader's own lags a line on a csv.Error.
        raise FormatError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return rows


def cmd_analyze(results_dir: Path) -> Path:
    """Produce forgetting/transfer metrics and plot-data CSVs for a run or sweep directory."""
    results_dir = Path(results_dir)
    spec = _manifest_scenario(results_dir)
    path = results_dir / "sweep.csv"
    if path.exists():
        rows = read_results_csv(path, spec, SWEEP_COLUMNS)
    else:
        path = results_dir / "results.csv"
        rows = [{"ed_ratio": spec.ed_ratio, **r} for r in read_results_csv(path, spec)]
    blocks: dict[float, list[dict]] = {}
    for r in rows:
        blocks.setdefault(r["ed_ratio"], []).append(r)
    matrices = {
        ratio: _accuracy_matrices(block, f"{path} at ed_ratio {ratio}")
        for ratio, block in sorted(blocks.items())
    }

    known = spec.teacher_known_domains
    unseen = spec.unseen_domains
    metrics_doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "teacher_known_domains": list(known),
        "unseen_domains": list(unseen),
        "forgetting": {},
        "ukt": {},
        "entropy": [],
    }

    base = matrices.get(0.0)
    for ratio, mats in matrices.items():
        with_base = base is not None and ratio != 0.0
        runs: dict[str, list[AccuracyMatrix]] = {}
        gains: dict[str, list[dict[int, float]]] = {}
        for (method, seed), mat in mats.items():
            if mat.n_tasks >= 2:
                runs.setdefault(method, []).append(mat)
            if with_base and (method, seed) in base:
                gains.setdefault(method, []).append(ukt_gain(mat, base[method, seed], unseen))
        metrics_doc["forgetting"][repr(ratio)] = {
            method: {
                "per_domain": _seed_mean(
                    [{d: forgetting(m, d, m.n_tasks - 1) for d in m.domain_ids} for m in ms]
                ),
                "average": _mean_std([average_forgetting(m, domains=known) for m in ms]),
            }
            for method, ms in runs.items()
        }
        if with_base:
            metrics_doc["ukt"][repr(ratio)] = {
                method: {
                    "per_domain": _seed_mean(g),
                    "mean": float(np.mean([np.mean(list(x.values())) for x in g])),
                }
                for method, g in gains.items()
            }

    # Teacher entropy profiles over every domain's test split, when teachers were trained.
    if (results_dir / "checkpoints").exists():
        domains = generate_domains(spec)
        for t, path in enumerate(_teacher_paths(results_dir, spec)):
            model = _read_teacher(path, spec)
            for d, ds in sorted(domains.items()):
                profile = entropy_histogram(model, ds.test.features, 1.0, bins=20)
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

    curve_key = lambda r: (r["ed_ratio"], r["method"], r["seed"], r["domain"], r["task"])
    _write_csv(
        results_dir / "curves" / "accuracy_curves.csv",
        ("ed_ratio", "method", "seed", "domain", "task", "accuracy"),
        ([*curve_key(r), r["accuracy"]] for r in sorted(rows, key=curve_key)),
    )
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


def _comma_list(text: str, kind: type, flag: str) -> tuple:
    try:
        return tuple(kind(s) for s in text.split(",") if s)
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated {kind.__name__} list, got {text!r}")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """The config with the --out, --seeds and --ratio flags that were given applied."""
    if getattr(args, "out", None):
        config = replace(config, output_dir=Path(args.out))
    if getattr(args, "seeds", None):
        seeds = _comma_list(args.seeds, int, "--seeds")
        try:
            config = replace(config, run=replace(config.run, seeds=seeds))
        except InvalidArgumentError as exc:
            raise ConfigError(f"--seeds: {exc}") from None
    if getattr(args, "ratio", None):
        config = replace(config, sweep_ratios=_comma_list(args.ratio, float, "--ratio"))
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            print(cmd_analyze(Path(args.out)))
            return 0
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "gen":
            print(cmd_gen(config))
        elif args.command == "teachers":
            print(cmd_teachers(config))
        elif args.command == "run":
            print(cmd_run(config, jobs=args.jobs))
        elif args.command == "sweep":
            print(cmd_sweep(config, jobs=args.jobs))
        return 0
    except UsageError as exc:
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
