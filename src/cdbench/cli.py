"""Configuration-driven experiment runner.

Subcommands: `gen` materializes a scenario to CSV, `teachers` pretrains and
checkpoints the teacher sequence, `run` executes the method x seed grid,
`sweep` executes it at several external-data ratios at once, and `analyze` turns
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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import product
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .benchmark import train_benchmark_teacher
from .distill import MethodConfig, teacher_entropy
from .domains import (
    CdScenario,
    DistillSet,
    LabeledSet,
    ScenarioSpec,
    distill_pools,
    generate_domains,
    mix_rows,
    write_domain_csv,
)
from .engine import (
    KL_LIKE_METHODS,
    RunConfig,
    deserialize_model,
    evaluate,
    frozen_logits,
    new_student,
    run_sequence,
    serialize_model,
)
from .errors import ConfigError, FormatError, InvalidArgumentError
from .metrics import entropy_histogram, entropy_report, metrics_report, summary_report
from .nn_core import Matrix, MlpModel

SCHEMA_VERSION = 1
# The names under which OpenBLAS may export a function, `{}` being its
# plain name, in the order _openblas_function tries them: numpy 2's wheels
# bundle the first; the others are plain OpenBLAS's, with and without its
# 64-bit-integer suffix.
_OPENBLAS_NAMES = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")

RESULT_COLUMNS = (
    "ed_ratio", "seed", "method", "task", "teacher", "domain", "accuracy", "elapsed_seconds"
)


# Parsers of the results.csv and sweep.csv columns; the other columns are
# integers. _check_row holds the rules on their values.
_CSV_TYPES = {"ed_ratio": float, "method": str, "accuracy": float, "elapsed_seconds": float}

# Config sections are the fields of these dataclasses, under the same names
# except for this one rename.
_JSON_NAMES = {"n_classes": "classes"}


def _schema(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, field type, required) for a dataclass's fields."""
    hints = get_type_hints(cls)
    return {
        _JSON_NAMES.get(f.name, f.name): (f.name, hints[f.name], f.default is MISSING)
        for f in fields(cls)
    }


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
    for booleans, and floats must be finite. A section's object becomes its
    dataclass, a method's name its MethodConfig, and a non-empty string a
    Path.
    """
    if kind in (ScenarioSpec, RunConfig):
        kwargs = _parse_section(value, where, _schema(kind))
        try:
            return kind(**kwargs)
        except InvalidArgumentError as exc:
            raise ConfigError(f"invalid {where}: {exc}") from None
    if kind is MethodConfig and type(value) is str:
        try:  # MethodConfig's own error names the valid methods
            return MethodConfig(value)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
    if kind is Path:
        if type(value) is not str or not value:
            raise ConfigError(f"field {where} must be a non-empty string")
        return Path(value)
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
    """Constructor keywords from one config object; absent optional fields keep their defaults.

    `where` names the object, "" for the whole document, and prefixes its keys in errors.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    prefix = f"{where}." if where else ""
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown field {prefix}{key}")
    kwargs = {}
    for key, (name, kind, required) in schema.items():
        if key in doc:
            kwargs[name] = _coerce(doc[key], kind, prefix + key)
        elif required:
            raise ConfigError(f"missing required field {prefix}{key}")
    return kwargs


def _scenario_to_json(spec: ScenarioSpec) -> dict:
    """The scenario as a config writes it: JSON keys, and lists for tuples."""
    return json.loads(json.dumps({_JSON_NAMES.get(k, k): v for k, v in asdict(spec).items()}))


def _ratio_tag(ratio: float) -> str:
    # abs: -0.0 is ratio 0 and names its directory.
    return f"{abs(ratio):.4f}".rstrip("0").rstrip(".").replace(".", "_") or "0"


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
    """Validate a configuration document, rejecting unknown fields.

    The schema version is checked before any section, so a document of
    another version is refused for its version.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {raw['schema_version']!r} unsupported (expected {SCHEMA_VERSION})"
        )
    kwargs = _parse_section(raw, "", _EXPERIMENT_SCHEMA)
    del kwargs["schema_version"]
    return ExperimentConfig(**kwargs)


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
    # gen alone exports the train splits; a scenario keeps none.
    domains = generate_domains(spec)
    pools = distill_pools(spec, domains)
    external = pools.external_mask[mix_rows(pools, spec.ed_ratio)]
    domains_meta = []
    for m, ds in domains.items():
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
            "size": len(external),
            "internal": int((~external).sum()),
            "external": int(external.sum()),
        },
    }
    _write_json(out / "manifest.json", manifest)
    return out / "manifest.json"


def _manifest_scenario(results_dir: Path) -> ScenarioSpec:
    path = results_dir / "manifest.json"
    missing = f"no scenario found at {path}; run `cdbench gen` first"
    manifest = _read_json(path, FormatError, missing)
    try:
        return _coerce(manifest.get("scenario"), ScenarioSpec, "manifest.scenario")
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


def _openblas_function(names: list[str], signature: tuple):
    """The first of `names` that numpy's bundled OpenBLAS exports, through ctypes; None if absent.

    `signature` is the function's (argtypes, restype). It looks in the
    OpenBLAS that numpy's wheels bundle in numpy.libs. numpy built on
    another BLAS (MKL, Accelerate, a system OpenBLAS) has none there.
    """
    libs = []
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            libs.append(ctypes.CDLL(str(path)))
        except OSError:
            pass
    for name in names:
        for lib in libs:
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes, function.restype = signature
                return function
    return None


def _openblas_threads(action: str):
    """OpenBLAS's `action`_num_threads function, "set" or "get"; None if absent."""
    names = [name.format(f"{action}_num_threads") for name in _OPENBLAS_NAMES]
    signature = ([ctypes.c_int], None) if action == "set" else ([], ctypes.c_int)
    return _openblas_function(names, signature)


def cmd_teachers(config: ExperimentConfig) -> Path:
    """Pretrain one teacher per task and write checkpoints plus a quality report.

    With more than one usable core, each teacher trains in its own forked
    _pool_map worker, so the OS shares every core among all of them and no
    core idles behind a partial last round; with one, they train in this
    process. Both ways write the same bytes. The old report goes before the
    first teacher trains, so a stage that fails leaves no report vouching
    for checkpoints it may have replaced.
    """
    _require_manifest(config)
    (config.output_dir / "teacher_report.json").unlink(missing_ok=True)
    spec = config.scenario
    # Each teacher generates its own training rows; the report needs only the test splits.
    test_sets = {m: ds.test for m, ds in generate_domains(spec).items()}
    (config.output_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    paths = _teacher_paths(config.output_dir, spec)
    make = partial(_make_teacher, spec, test_sets, config.run)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = spec.n_teachers if cores > 1 else 1
    entries = _pool_map(make, range(spec.n_teachers), paths, jobs=jobs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "floor": config.run.teacher_accuracy_floor,
        "scenario": _scenario_to_json(spec),
        "settings": config.run.teacher_settings,
        "teachers": entries,
    }
    _write_json(config.output_dir / "teacher_report.json", report)
    return config.output_dir / "teacher_report.json"


def _pool_map(fn: Callable, *columns, jobs: int) -> list:
    """`list(map(fn, *columns))`, each call at one OpenBLAS thread, forked where that can run.

    With more than one call, `jobs` above 1 and an OpenBLAS thread setter,
    the calls run in min(jobs, calls) forked workers. Each worker inherits
    `fn`, with everything it binds, through the fork and sets its OpenBLAS
    to one thread before its first call, so a task sends only its own
    arguments. Otherwise the calls run in order, in this process, at one
    thread too, and the caller's thread count comes back after them. So
    every call computes the same way at any `jobs`, and this process's
    thread count never changes. Without a setter, the calls run in this
    process at its own count.
    """
    workers = min(jobs, len(columns[0]))
    set_threads = _openblas_threads("set")
    if set_threads is None:
        return list(map(fn, *columns))
    if workers < 2:
        before = _openblas_threads("get")()
        set_threads(1)
        try:
            return list(map(fn, *columns))
        finally:
            set_threads(before)
    # Imported here, since the serial path, `gen` and `analyze` never need
    # them. OpenBLAS stops its threads at fork, so the workers start without
    # them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(set_threads, fn),
    ) as pool:
        return list(pool.map(_call_worker_fn, *columns))


# In a forked _pool_map worker, the function its pool maps.
_worker_fn = None


def _start_worker(set_threads, fn) -> None:
    """Initialize a forked _pool_map worker: one BLAS thread, and the pool's `fn`."""
    global _worker_fn
    set_threads(1)
    _worker_fn = fn


def _call_worker_fn(*args):
    return _worker_fn(*args)


def _make_teacher(
    spec: ScenarioSpec, test_sets: dict[int, LabeledSet], run: RunConfig, t: int, path: Path
) -> dict:
    """Train teacher t, checkpoint it at `path` and return its report entry.

    The teacher is freed on return, so each process of `teachers` holds one
    at a time.
    """
    teacher = train_benchmark_teacher(spec, run, t)
    # The teacher passed the divergence check, so serialize_model accepts it.
    _atomic_write(path, serialize_model(teacher))
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


def _check_teacher_report(out_dir: Path, spec: ScenarioSpec, settings: dict) -> dict:
    """Refuse out_dir's teachers unless teacher_report.json records these settings and `spec`.

    The settings are checked first. The scenario's ed_ratio is exempt: no
    teacher reads it, since each generates only its own domains. Returns
    the settings the report records.
    """
    path = out_dir / "teacher_report.json"
    missing = f"no teacher report at {path}; run `cdbench teachers` first"
    report = _read_json(path, FormatError, missing)
    scenario = _scenario_to_json(spec)
    del scenario["ed_ratio"]
    for section, key, expected in (
        ("run", "settings", settings),
        ("scenario", "scenario", scenario),
    ):
        recorded = report.get(key, {})
        if not isinstance(recorded, dict):
            raise FormatError(f"{path}: {key} is not a JSON object")
        for name, value in expected.items():
            if recorded.get(name) != value:
                raise ConfigError(
                    f"{section}.{name} is {value!r}, but the teachers were trained with "
                    f"{recorded.get(name)!r}; rerun `cdbench teachers`"
                )
    return report.get("settings", {})


def _teacher_loaders(config: ExperimentConfig) -> list[Callable[[], MlpModel]]:
    """One loader per teacher checkpoint, `partial(_read_teacher, path, spec)`, in task order.

    The teachers must be config's (_check_teacher_report). run_grid calls
    each loader once.
    """
    spec = config.scenario
    _check_teacher_report(config.output_dir, spec, config.run.teacher_settings)
    return [partial(_read_teacher, path, spec) for path in _teacher_paths(config.output_dir, spec)]


def _teacher_pass(pools: DistillSet, chunk: int, load: Callable[[], MlpModel]) -> Matrix:
    """A teacher's logits over `pools`, from one load: a pass over the internal pool, then one
    over the external pool, `chunk` rows at a time. The model is freed on return."""
    model, n = load(), int((~pools.external_mask).sum())
    internal, external = pools.features[:n], pools.features[n:]
    return np.concatenate([frozen_logits(model, x, chunk) for x in (internal, external)])


def _run_cell(
    plans: list[tuple], run: RunConfig, index: int, methods: tuple, seed: int
) -> tuple[list[dict], list[tuple]]:
    """One seed of `methods` at plans[index], sharing run_sequence's `shared`; maybe in a worker."""
    scenario, teacher_logits = plans[index]
    ratio = scenario.spec.ed_ratio
    shared: dict = {}
    rows: list[dict] = []
    curve_rows: list[tuple] = []
    for method in methods:
        student = new_student(scenario.spec.feature_dim, scenario.spec.n_classes, run, seed)
        for log in run_sequence(student, iter(teacher_logits), scenario, method, run, seed, shared):
            t = log.task_index
            for d, acc in sorted(log.accuracies.items()):
                row = (ratio, seed, method.method, t, t, d, acc, log.elapsed_seconds)
                rows.append(dict(zip(RESULT_COLUMNS, row)))
            if log.epoch_accuracies is not None:
                for e, accs in enumerate(log.epoch_accuracies):
                    for d, acc in sorted(accs.items()):
                        curve_rows.append((ratio, method.method, seed, t, e, d, acc))
    return rows, curve_rows


def run_grid(
    config: ExperimentConfig,
    ratios: tuple[float, ...],
    teachers: list[Callable[[], MlpModel]],
    jobs: int = 1,
) -> tuple[list[dict], list[tuple]]:
    """Run config's method x seed grid at each external-data ratio of `ratios`, in memory.

    The scenario's domains are generated once, and its pools kept
    (distill_pools). `teachers` holds one zero-argument loader per
    teacher, in task order; each is called once, and its teacher runs over
    each pool (_teacher_pass) at one BLAS thread, as every grid call does.
    The entropy screen reads the external pool's logits. Each ratio's plan
    gathers its rows (mix_rows, less those the screen drops) from the
    pools and from each teacher's logits; a plan the screen empties raises
    InvalidArgumentError, naming its ratio, before any task runs. A grid
    task is one seed of a group of methods at one ratio: kl, self_distill
    and se2d (KL_LIKE_METHODS) form one group, since they share task 0,
    and every other method is its own. The tasks of every ratio, ratio by
    ratio, run through one _pool_map, whose forked workers inherit the plans.
    Returns the result rows, keyed by RESULT_COLUMNS, and the per-epoch
    curve rows, each led by its ratio, both sorted by the order of
    `ratios`, then method, seed, task and domain.
    """
    spec = config.scenario
    domains = generate_domains(spec)
    test_sets = {m: ds.test for m, ds in domains.items()}
    pools = distill_pools(spec, domains)
    del domains  # the train splits die before the first teacher pass
    logits = _pool_map(partial(_teacher_pass, pools, config.run.batch_size), teachers, jobs=1)
    # Screening drops the external rows whose mean teacher entropy exceeds the threshold.
    keep = np.ones(len(pools), dtype=bool)
    if config.external_entropy_max is not None:
        ext = pools.external_mask
        entropy = np.mean([teacher_entropy(z[ext], 1.0) for z in logits], axis=0)
        keep[ext] = entropy <= config.external_entropy_max
    plans = []
    for ratio in ratios:
        picked = mix_rows(pools, ratio)
        picked = picked[keep[picked]]
        if len(picked) == 0:
            raise InvalidArgumentError(
                f"at ed_ratio {ratio}, external_entropy_max {config.external_entropy_max} "
                "screens out every row of the distillation set"
            )
        scenario = CdScenario(replace(spec, ed_ratio=float(ratio)), test_sets, pools.take(picked))
        plans.append((scenario, [z[picked] for z in logits]))
    del pools, logits  # each plan holds copies of its rows
    kl_like = tuple(m for m in config.methods if m.method in KL_LIKE_METHODS)
    groups = ([kl_like] if kl_like else []) + [(m,) for m in config.methods if m not in kl_like]
    tasks = product(range(len(ratios)), groups, config.run.seeds)
    done = _pool_map(partial(_run_cell, plans, config.run), *zip(*tasks), jobs=jobs)
    rows = [r for cell_rows, _ in done for r in cell_rows]
    rows.sort(
        key=lambda r: (ratios.index(r["ed_ratio"]), r["method"], r["seed"], r["task"], r["domain"])
    )
    curves = [c for _, cell_curves in done for c in cell_curves]
    curves.sort(key=lambda c: (ratios.index(c[0]), c))
    return rows, curves


def _write_results_csv(path: Path, rows: list[dict]) -> None:
    """Write result rows; a float column prints as repr, elapsed_seconds to the microsecond."""
    _write_csv(
        path,
        RESULT_COLUMNS,
        ([f"{r[c]:.6f}" if c == "elapsed_seconds" else r[c] for c in RESULT_COLUMNS] for r in rows),
    )


def _write_grid(
    out: Path, config: ExperimentConfig, rows: list[dict], curves: list[tuple]
) -> Path:
    """Write the block of config's ratio: results.csv, optional per-epoch curves, summary.json."""
    ratio = config.scenario.ed_ratio
    rows = [r for r in rows if r["ed_ratio"] == ratio]
    _write_results_csv(out / "results.csv", rows)
    curves = [c[1:] for c in curves if c[0] == ratio]
    if curves:
        _write_csv(
            out / "curves" / "epoch_accuracy.csv",
            ("method", "seed", "task", "epoch", "domain", "accuracy"),
            curves,
        )
    summary = summary_report(rows, config.scenario, config.run.seeds)
    _write_json(out / "summary.json", {"schema_version": SCHEMA_VERSION, **summary})
    return out / "summary.json"


def cmd_run(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Execute the full method x seed grid and write results + summary."""
    _require_manifest(config)
    rows, curves = run_grid(config, (config.scenario.ed_ratio,), _teacher_loaders(config), jobs)
    return _write_grid(config.output_dir, config, rows, curves)


def cmd_sweep(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Run the grid at every ratio of config.sweep_ratios in one run_grid call; write each block."""
    ratios = config.sweep_ratios
    if ratios is None:  # a ratio list that is given was checked at construction
        raise ConfigError("sweep needs at least one ratio: set sweep_ratios or pass --ratio")
    _require_manifest(config)
    rows, curves = run_grid(config, ratios, _teacher_loaders(config), jobs)
    out = config.output_dir
    for ratio in ratios:
        at_ratio = replace(config, scenario=replace(config.scenario, ed_ratio=float(ratio)))
        _write_grid(out / f"ratio_{_ratio_tag(ratio)}", at_ratio, rows, curves)
    _write_results_csv(out / "sweep.csv", rows)
    return out / "sweep.csv"


def _check_row(row: dict, spec: ScenarioSpec) -> None:
    """Raise ValueError for a value no grid of `spec` writes; each range check fails NaN."""
    if not 0.0 <= row["accuracy"] <= 1.0:
        raise ValueError(f"accuracy {row['accuracy']!r} lies outside [0, 1]")
    if not 0.0 <= row["ed_ratio"] < 1.0:
        raise ValueError(f"ed_ratio {row['ed_ratio']!r} lies outside [0, 1)")
    for key, count in (("task", spec.n_teachers), ("domain", spec.n_domains)):
        if not 0 <= row[key] < count:
            raise ValueError(f"{key} {row[key]} is outside the scenario's [0, {count})")
    if row["teacher"] != row["task"]:
        raise ValueError(f"teacher {row['teacher']} is not the row's task {row['task']}")


def read_results_csv(path: Path, spec: ScenarioSpec) -> list[dict]:
    """Parse results.csv or sweep.csv, reporting the offending line.

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
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise FormatError(f"{path}: missing columns {missing}")
        for row in reader:
            rows.append({c: _CSV_TYPES.get(c, int)(row[c]) for c in RESULT_COLUMNS})
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
    # analyze has no run settings to check the teachers against, only the scenario.
    has_teachers = (results_dir / "checkpoints").exists()
    if has_teachers:
        # The teachers' batch size, which run's teacher pass also takes as its chunk.
        chunk = _check_teacher_report(results_dir, spec, {}).get("batch_size")
        if type(chunk) is not int or chunk < 1:
            raise FormatError(
                f"{results_dir / 'teacher_report.json'}: settings.batch_size "
                "is not a positive integer"
            )
    path = results_dir / "sweep.csv"
    if not path.exists():
        path = results_dir / "results.csv"
    rows = read_results_csv(path, spec)
    metrics_doc = {"schema_version": SCHEMA_VERSION, **metrics_report(rows, spec, str(path))}
    metrics_doc["entropy"] = []

    # Teacher entropy profiles over every domain's test split, `chunk` rows per pass, when
    # teachers were trained.
    if has_teachers:
        test_sets = {m: ds.test for m, ds in generate_domains(spec).items()}
        for t, path in enumerate(_teacher_paths(results_dir, spec)):
            model = _read_teacher(path, spec)
            for d, ts in sorted(test_sets.items()):
                logits = frozen_logits(model, ts.features, chunk)
                profile = entropy_report(entropy_histogram(logits, 1.0, bins=20))
                metrics_doc["entropy"].append({"teacher": t, "domain": d, **profile})
            del model  # freed before the next read, so one teacher is alive at a time

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
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=_coerce(args.out, Path, "--out"))
    if getattr(args, "seeds", None) is not None:
        seeds = _comma_list(args.seeds, int, "--seeds")
        try:
            config = replace(config, run=replace(config.run, seeds=seeds))
        except InvalidArgumentError as exc:
            raise ConfigError(f"--seeds: {exc}") from None
    if getattr(args, "ratio", None) is not None:
        config = replace(config, sweep_ratios=_comma_list(args.ratio, float, "--ratio"))
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            print(cmd_analyze(_coerce(args.out, Path, "--out")))
            return 0
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
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
