"""End-to-end benchmark of the cdbench pipeline.

    python3 perfbench/run.py --workload desk-serial --seed 1 --seconds 45 --trace 0

Each run drives `gen -> teachers -> run -> analyze` for one workload, every
stage as its own child process (`python -m cdbench.cli ...`) in a closed loop
with one client: a stage starts only after the previous one has exited.
Inputs come from `--seed`, which orders the methods of the workload's config.
The results the program writes must not depend on that order, so they are
checked against the reference values recorded in `perfbench/baseline.json`.

With `--trace 0` the pipeline repeats, at least twice, while the next repeat
is expected to end within `--seconds`, and set-up runs at least three times; the end-to-end metrics are
medians over those repeats. With `--trace 1` one untraced and one traced
pipeline run, and the per-layer metrics come from the traced one (see
`perfbench/tracer.py`).

Every run checks stage exit codes, the completeness and range of
`results.csv`, the teachers' accuracy floor, every method's numbers in
`summary.json` and `metrics.json` against the reference, and that repeats
write byte-identical artifacts. Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted` and
`failed` (counted in stages) and `metrics`. A fuller report, with the
environment block, goes to `.perfbench/reports/`.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
BASELINE_PATH = BENCH_DIR / "baseline.json"
TRACER = BENCH_DIR / "tracer.py"

RUN_BUDGET_S = 170.0  # every run must end within 180 s
MIN_PIPELINES = 2  # the determinism check compares repeats
MIN_SETUPS = 3
QUALITY_TOLERANCE = 0.02  # absolute, on accuracies and forgetting in [0, 1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CD_BENCH_THREADS")
ALL_METHODS = ["kl", "ls", "dkd", "mds", "self_distill", "se2d"]
QUALITY_METHODS = ("kl", "se2d")

# The scenario of configs/benchmark.json.
DESK_SCENARIO = {
    "classes": 4,
    "feature_dim": 8,
    "n_domains": 5,
    "shared_domains": [0],
    "teacher_exclusive_domains": [[1], [2], [3]],
    "external_domains": [4],
    "ed_ratio": 0.5,
    "samples_per_class": 200,
    "seed": 1,
    "external_relation": "related",
}
# configs/benchmark.json's run settings with fewer epochs, so that one run
# repeats the pipeline. Its teachers reach 0.83-0.88 in-domain accuracy at
# 150 epochs and 0.78-0.86 at 40, short of the default floor of 0.9, so the
# floor is set where a regression in teacher training would show.
DESK_RUN = {
    "epochs": 8,
    "batch_size": 64,
    "learning_rate": 0.01,
    "temperature": 3.0,
    "seeds": [1, 2, 3],
    "teacher_epochs": 40,
    "teacher_hidden": [128, 128],
    "student_hidden": [32, 32],
    "teacher_accuracy_floor": 0.75,
}


def _config(scenario: dict, run: dict) -> dict:
    return {
        "schema_version": 1,
        "scenario": scenario,
        "methods": ALL_METHODS,
        "run": run,
        "output_dir": "unused",
    }


# Experiment configs before the seed orders them. Both run the grid serially
# (`run --jobs 1`). `sweep --jobs 2` is left out: its forked workers each
# inherit a multi-threaded OpenBLAS, and one sweep stage took 5.5 s to 16.9 s
# from repeat to repeat on a 2-core machine, too unsteady to bound.
WORKLOADS = {
    "desk-serial": _config(DESK_SCENARIO, DESK_RUN),
    "wide-serial": _config(
        {**DESK_SCENARIO, "classes": 10, "feature_dim": 32, "samples_per_class": 150},
        {
            **DESK_RUN,
            "epochs": 4,
            "batch_size": 256,
            "seeds": [1, 2],
            "teacher_epochs": 4,
            "teacher_hidden": [512, 512],
            "student_hidden": [128, 128],
        },
    ),
}

END_TO_END = {
    "setup_s": "s",
    "grid_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "known_acc.kl": "fraction",
    "known_acc.se2d": "fraction",
    "forgetting.kl": "fraction",
    "forgetting.se2d": "fraction",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}

    def timed(name: str) -> None:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"

    for role in ("frozen", "trained", "eval"):
        timed(f"nn_core.forward.{role}")
    for name in ("backward", "optimizer_step", "cross_entropy"):
        timed(f"nn_core.{name}")
    for name in ("kl_kd_loss", "ls_kd_loss", "dkd_loss", "mds_filter", "self_distill_loss", "se2d_loss"):
        timed(f"distill.{name}")
    units["distill.mds_filter.kept_ratio"] = "fraction"
    for name in ("build_scenario", "generate_domain", "write_domain_csv"):
        timed(f"domains.{name}")
    units["domains.balance_pair_stream.batches"] = "count"
    for name in ("train_teacher", "distill_task", "evaluate", "serialize_model", "deserialize_model"):
        timed(f"engine.{name}")
    units["engine.distill_task.steps"] = "count"
    units["engine.serialize_model.bytes"] = "bytes"
    units["engine.run_sequence.s_per_cell"] = "s"
    timed("metrics.entropy_histogram")
    units["metrics.forgetting.calls"] = "count"
    for stage in ("gen", "teachers", "run", "analyze"):
        units[f"cli.cmd_{stage}.self_s"] = "s"
    units["cli.pool.idle_share"] = "fraction"
    units["bench.trace_overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------- stages


@dataclass
class StageResult:
    stage: str
    wall_s: float
    exit_code: int
    maxrss_kb: int


@dataclass
class Pipeline:
    out: Path
    stages: list[StageResult] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    def wall(self, *names: str) -> float:
        return sum(s.wall_s for s in self.stages if s.stage in names)

    @property
    def ok(self) -> bool:
        return all(s.exit_code == 0 for s in self.stages)

    @property
    def complete(self) -> bool:
        return len(self.stages) == 4 and self.ok


def seeded_config(config: dict, seed: int) -> dict:
    """The workload's config with its methods in a seed-chosen order."""
    config = copy.deepcopy(config)
    random.Random(seed).shuffle(config["methods"])
    return config


class Runner:
    """Starts stage processes one at a time and keeps the run inside its budget."""

    def __init__(self, config: dict, seed: int, run_dir: Path, deadline: float) -> None:
        self.config = seeded_config(config, seed)
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + path if path else src

    def stage_argv(self, stage: str, out: Path, traced: bool) -> list[str]:
        head = [sys.executable, str(TRACER)] if traced else [sys.executable, "-m", "cdbench.cli"]
        if stage == "analyze":
            return [*head, "analyze", "--out", str(out)]
        args = [*head, stage, "--config", str(out / "config.json"), "--out", str(out)]
        return args + ["--jobs", "1"] if stage == "run" else args

    def run_stage(self, stage: str, out: Path, traced: bool) -> StageResult:
        env = dict(self.env, PERFBENCH_TRACE_FILE=str(out / f"{stage}.trace.json")) if traced else self.env
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return StageResult(stage, 0.0, -1, 0)
        with open(out / f"{stage}.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                self.stage_argv(stage, out, traced), cwd=ROOT, env=env, stdout=log, stderr=log
            )
            timer = threading.Timer(remaining, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the peak RSS of the stage and of the children it reaped.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageResult(stage, wall, proc.returncode, usage.ru_maxrss)

    def pipeline(self, name: str, traced: bool = False, setup_only: bool = False) -> Pipeline:
        out = self.run_dir / name
        out.mkdir(parents=True)
        config = dict(self.config, output_dir=str(out))
        (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        stages = ["gen", "teachers"] if setup_only else ["gen", "teachers", "run", "analyze"]
        pipe = Pipeline(out, start=time.perf_counter())
        for stage in stages:
            result = self.run_stage(stage, out, traced)
            pipe.stages.append(result)
            if result.exit_code != 0:
                break
        pipe.end = time.perf_counter()
        return pipe


# ---------------------------------------------------------------------- checks


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def summary_values(out: Path) -> dict:
    """Every method's numbers from the run's summary.json."""
    return {
        method: {
            "known": entry["mean_final_accuracy_known"]["mean"],
            "forgetting": entry["average_forgetting"]["mean"],
            "final": {d: v["mean"] for d, v in entry["final_accuracy"].items()},
        }
        for method, entry in _read_json(out / "summary.json")["methods"].items()
    }


def analyze_values(out: Path) -> dict:
    """Every method's average forgetting as `analyze` wrote it into metrics.json."""
    (block,) = _read_json(out / "metrics.json")["forgetting"].values()
    return {method: entry["average"]["mean"] for method, entry in block.items()}


def teacher_problems(out: Path) -> list[str]:
    return [
        f"teacher {t['index']} in-domain accuracy {t['in_domain_min']} is below the floor"
        for t in _read_json(out / "teacher_report.json")["teachers"]
        if t["meets_floor"] is not True
    ]


def results_problems(out: Path, config: dict) -> list[str]:
    """Every (method, seed, task, domain) row present once, with an accuracy in [0, 1]."""
    scenario = config["scenario"]
    expected = {
        (m, s, t, d)
        for m in config["methods"]
        for s in config["run"]["seeds"]
        for t in range(len(scenario["teacher_exclusive_domains"]))
        for d in range(scenario["n_domains"])
    }
    problems = []
    seen = []
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            acc = float(row["accuracy"])
            if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"results.csv: accuracy {row['accuracy']} outside [0, 1]")
            seen.append((row["method"], int(row["seed"]), int(row["task"]), int(row["domain"])))
    if len(seen) != len(set(seen)) or set(seen) != expected:
        problems.append(
            f"results.csv: {len(seen)} rows, expected each of the {len(expected)} "
            "(method, seed, task, domain) rows once"
        )
    return problems


def reference_problems(path: str, got, want) -> list[str]:
    """Differences beyond the tolerance between a value tree and its reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: has {got!r}, the reference has keys {sorted(want)}"]
        return [p for key in want for p in reference_problems(f"{path}.{key}", got[key], want[key])]
    if isinstance(got, float) and math.isfinite(got) and abs(got - want) <= QUALITY_TOLERANCE:
        return []
    return [f"{path}: {got!r} differs from the reference {want!r}"]


@dataclass
class Ledger:
    """Stages attempted and failed across a run, with the reasons for each failure."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)  # (pipeline, stage) -> [problems]

    def fail(self, pipe: Pipeline, stage: str, problems: list[str]) -> None:
        if problems:
            self.failures.setdefault((pipe.out.name, stage), []).extend(problems)


def _log_tail(pipe: Pipeline, stage: str) -> str:
    log = pipe.out / f"{stage}.log"
    if not log.exists():
        return "not started, the run's time budget is spent"
    return " | ".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-3:])


def check_pipeline(config: dict, pipe: Pipeline, ledger: Ledger, reference: dict | None) -> dict | None:
    """Check one pipeline's outputs; returns its quality values when every stage finished."""
    ledger.attempted += len(pipe.stages)
    values = {}
    for s in pipe.stages:
        if s.exit_code != 0:
            ledger.fail(pipe, s.stage, [f"exit code {s.exit_code}: {_log_tail(pipe, s.stage)}"])
            continue
        try:
            if s.stage == "teachers":
                ledger.fail(pipe, s.stage, teacher_problems(pipe.out))
            elif s.stage == "run":
                ledger.fail(pipe, s.stage, results_problems(pipe.out, config))
                values["summary"] = summary_values(pipe.out)
            elif s.stage == "analyze":
                values["analyze"] = analyze_values(pipe.out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            ledger.fail(pipe, s.stage, [f"unreadable output: {exc!r}"])
    for stage, name in (("run", "summary"), ("analyze", "analyze")):
        if name not in values:
            continue
        if reference is None:
            ledger.fail(pipe, stage, [f"no reference {name} values recorded for this workload"])
        else:
            ledger.fail(pipe, stage, reference_problems(name, values[name], reference[name]))
    return values if len(values) == 2 else None


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".csv":
        # elapsed_seconds is wall time, so it is left out of the comparison.
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        col = rows[0].index("elapsed_seconds")
        data = "\n".join(",".join(r[:col] + r[col + 1 :]) for r in rows).encode()
    return hashlib.sha256(data).hexdigest()


def artifact_digests(pipe: Pipeline) -> dict[str, str]:
    names = ("summary.json", "metrics.json", "results.csv", "checkpoints/*.ckpt")
    paths = sorted(p for name in names for p in pipe.out.glob(name))
    return {str(p.relative_to(pipe.out)): _digest(p) for p in paths}


def check_determinism(pipes: list[Pipeline], ledger: Ledger) -> None:
    """Repeats must write identical artifacts; a mismatch fails the stage that wrote it."""
    writers = {".ckpt": "teachers", "metrics.json": "analyze"}
    first = artifact_digests(pipes[0])
    for pipe in pipes[1:]:
        for rel, digest in artifact_digests(pipe).items():
            if rel in first and first[rel] != digest:
                stage = next((st for suffix, st in writers.items() if rel.endswith(suffix)), "run")
                ledger.fail(pipe, stage, [f"{rel} differs from {pipes[0].out.name}"])


# ---------------------------------------------------------------------- metrics


def describe(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with at least ten samples above it."""
    values = sorted(values)
    n = len(values)
    doc = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        doc.update(q1=q1, q3=q3)
    if n >= 11:
        doc[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return doc


def end_to_end_metrics(pipes: list[Pipeline], setups: list[Pipeline], quality: dict) -> tuple[dict, dict]:
    full = [p for p in pipes if p.complete]
    samples = {
        "setup_s": [p.wall("gen", "teachers") for p in setups],
        "grid_s": [p.wall("run") for p in full],
        "pipeline_s": [p.end - p.start for p in full],
        # One value per run: the largest peak of any stage process.
        "peak_rss_mb": [max(s.maxrss_kb for p in setups for s in p.stages) / 1024.0],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    for method in QUALITY_METHODS:
        metrics[f"known_acc.{method}"] = quality["summary"][method]["known"]
        metrics[f"forgetting.{method}"] = quality["summary"][method]["forgetting"]
    return metrics, {name: describe(v) for name, v in samples.items()}


def merge_traces(out: Path) -> tuple[dict, dict, list]:
    """Sum the trace files of the traced stages."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    cells: list[dict] = []
    for path in sorted(out.glob("*.trace.json")):
        doc = _read_json(path)
        for name, (calls, self_s) in doc["stats"].items():
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        cells.extend(doc["cells"])
    return stats, counts, cells


def per_layer_metrics(traced: Pipeline, plain: Pipeline) -> tuple[dict, dict]:
    stats, counts, cells = merge_traces(traced.out)
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = stats.get(span, (0, 0.0))
            metrics[name] = calls if kind == "calls" else self_s
    for name in (
        "domains.balance_pair_stream.batches",
        "engine.distill_task.steps",
        "engine.serialize_model.bytes",
    ):
        metrics[name] = counts.get(name, 0.0)
    seen = counts.get("distill.mds_filter.seen", 0.0)
    kept = counts.get("distill.mds_filter.kept", 0.0)
    metrics["distill.mds_filter.kept_ratio"] = kept / seen if seen else 0.0
    walls = [c["wall_s"] for c in cells]
    metrics["engine.run_sequence.s_per_cell"] = statistics.mean(walls)
    traced_grid, plain_grid = traced.wall("run"), plain.wall("run")
    # With one job this is the share of the grid stage spent outside grid cells.
    metrics["cli.pool.idle_share"] = 1.0 - sum(walls) / traced_grid
    metrics["bench.trace_overhead_ratio"] = traced_grid / plain_grid - 1.0

    by_method: dict[str, list[float]] = {}
    for c in cells:
        by_method.setdefault(c["method"], []).append(c["wall_s"])
    details = {
        "cells": len(cells),
        "s_per_cell_by_method": {m: statistics.mean(v) for m, v in sorted(by_method.items())},
        # Self times of the spans inside cells over the cells' wall time; the rest is
        # run_sequence's own time, that is unwrapped glue code and timer overhead.
        "cell_self_sum_over_wall": sum(c["self_sum_s"] for c in cells) / sum(walls),
        "mds_filter_share_of_mds_cells": stats["distill.mds_filter"][1] / sum(by_method["mds"]),
        "traced_grid_s": traced_grid,
        "untraced_grid_s": plain_grid,
    }
    return metrics, details


# ---------------------------------------------------------------------- environment


ENV_PROBE = f"""
import json, os, platform
import numpy as np
blas = np.show_config(mode="dicts").get("Build Dependencies", {{}}).get("blas", {{}})
print(json.dumps({{
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas": f"{{blas.get('name')}} {{blas.get('version')}}",
    "nproc": len(os.sched_getaffinity(0)),
    "thread_env": {{k: os.environ.get(k) for k in {THREAD_VARS!r}}},
}}))
"""


def probe_env(env: dict) -> dict:
    """Versions and thread settings as the stage processes see them."""
    out = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        return {"error": out.stderr.strip()[-500:]}
    return json.loads(out.stdout)


# ---------------------------------------------------------------------- driver


def load_reference(name: str) -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return _read_json(BASELINE_PATH).get("workloads", {}).get(name, {}).get("reference")


def run_benchmark(
    name: str, config: dict, seed: int, seconds: float, trace: bool, reference: dict | None, run_dir: Path
) -> dict:
    start = time.monotonic()
    runner = Runner(config, seed, run_dir, start + RUN_BUDGET_S)
    ledger = Ledger()
    quality: dict | None = None

    def checked(pipe: Pipeline) -> Pipeline:
        nonlocal quality
        values = check_pipeline(runner.config, pipe, ledger, reference)
        quality = quality or values
        return pipe

    report: dict = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "env": probe_env(runner.env),
        "config": runner.config,
    }
    metrics: dict = {}
    if trace:
        runs = [checked(runner.pipeline("plain")), checked(runner.pipeline("traced", traced=True))]
        if all(p.complete for p in runs):
            # Tracing must not change what the program writes.
            check_determinism(runs, ledger)
            metrics, report["trace_details"] = per_layer_metrics(runs[1], runs[0])
        units = PER_LAYER
    else:
        pipes: list[Pipeline] = []
        while not pipes or pipes[-1].complete:
            # Start another repeat while the last one's duration says it will end in time.
            ends = time.monotonic() - start + (pipes[-1].end - pipes[-1].start if pipes else 0.0)
            if (len(pipes) >= MIN_PIPELINES and ends > seconds) or ends > RUN_BUDGET_S:
                break
            pipes.append(checked(runner.pipeline(f"p{len(pipes)}")))
        runs = list(pipes)
        while len(runs) < MIN_SETUPS and all(p.complete for p in pipes):
            runs.append(checked(runner.pipeline(f"s{len(runs)}", setup_only=True)))
        if all(p.ok for p in runs):
            check_determinism(runs, ledger)
            if quality:
                metrics, report["samples"] = end_to_end_metrics(pipes, runs, quality)
        units = END_TO_END
    failed = len(ledger.failures)
    report.update(
        attempted=ledger.attempted,
        failed=failed,
        failed_stage_ratio=failed / ledger.attempted if ledger.attempted else 1.0,
        failures={f"{p}/{s}": problems for (p, s), problems in sorted(ledger.failures.items())},
        quality=quality,
        stages=[
            {"pipeline": p.out.name, "stage": s.stage, "wall_s": s.wall_s, "exit_code": s.exit_code,
             "maxrss_kb": s.maxrss_kb}
            for p in runs
            for s in p.stages
        ],
        metrics={
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    )
    report["correct"] = failed == 0 and len(report["metrics"]) == len(units)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, entry in report["metrics"].items():
        line = f"  {name} = {entry['value']:.6g} {entry['unit']}"
        stats = report.get("samples", {}).get(name)
        if stats and stats["n"] > 1:
            pct = [k for k in stats if k[0] == "p" and k[1:].isdigit()]
            tail = f", {pct[0]} {stats[pct[0]]:.6g}" if pct else "; no percentile has 10 samples above it"
            line += f"  (median of {stats['n']} samples{tail})"
        print(line)
    print(
        f"  failed_stage_ratio = {report['failed_stage_ratio']:.4g} ratio"
        f" ({report['failed']} of {report['attempted']} stages)"
    )
    for where, problems in report["failures"].items():
        for problem in problems[:5]:
            print(f"  FAILED {where}: {problem}")
    for key, value in report.get("trace_details", {}).items():
        print(f"  trace {key}: {json.dumps(value)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the handlers that stop the running stage.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cdbench" / "cli.py").is_file():
        print(f"error: no cdbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK_DIR / "runs" / f"{tag}-{os.getpid()}"
    try:
        report = run_benchmark(
            args.workload,
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            load_reference(args.workload),
            run_dir,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    reports = WORK_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    print_report(report)
    result = {
        "correct": report["correct"],
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
