"""Smoke test of the benchmark harness on a tiny workload; it does not gate on timings.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

TINY = bench._config(
    {**bench.DESK_SCENARIO, "samples_per_class": 12},
    {
        **bench.DESK_RUN,
        "epochs": 1,
        "seeds": [1],
        "teacher_epochs": 2,
        "teacher_hidden": [16, 16],
        "student_hidden": [8, 8],
        "teacher_accuracy_floor": 0.0,
    },
)


def _run(tmp_path: Path, name: str, trace: bool, reference: dict | None) -> dict:
    return bench.run_benchmark("tiny", TINY, 7, 0.0, trace, reference, tmp_path / name)


def _assert_metrics(report: dict, units: dict) -> None:
    assert set(report["metrics"]) == set(units)
    for name, entry in report["metrics"].items():
        assert entry["unit"] == units[name], name
        assert isinstance(entry["value"], (int, float)), name


def test_every_metric_is_emitted_with_its_unit(tmp_path):
    first = _run(tmp_path, "unreferenced", False, None)
    # Without reference values the run and analyze stages of both pipelines fail.
    assert not first["correct"] and first["failed"] == 4
    reference = first["quality"]
    assert reference["summary"].keys() == reference["analyze"].keys() == set(bench.ALL_METHODS)

    plain = _run(tmp_path, "plain", False, reference)
    assert plain["correct"], plain["failures"]
    assert plain["failed"] == 0 and plain["attempted"] == 10
    _assert_metrics(plain, bench.END_TO_END)
    assert plain["samples"]["setup_s"]["n"] == 3
    assert plain["env"]["nproc"] >= 1 and "OPENBLAS_NUM_THREADS" in plain["env"]["thread_env"]

    traced = _run(tmp_path, "traced", True, reference)
    assert traced["correct"], traced["failures"]
    _assert_metrics(traced, bench.PER_LAYER)
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["engine.run_sequence.s_per_cell"] > 0
    assert metrics["distill.mds_filter.calls"] > 0
    assert 0 < metrics["distill.mds_filter.kept_ratio"] <= 1
    assert metrics["engine.distill_task.steps"] == metrics["nn_core.optimizer_step.calls"] - metrics[
        "nn_core.cross_entropy.calls"
    ]
    assert 0.5 < traced["trace_details"]["cell_self_sum_over_wall"] < 1.0


def _pipeline(tmp_path: Path, name: str) -> tuple[bench.Runner, bench.Pipeline]:
    runner = bench.Runner(TINY, 7, tmp_path / "runs", time.monotonic() + 120)
    pipe = runner.pipeline(name)
    assert pipe.complete
    return runner, pipe


def test_corrupted_outputs_count_as_failed_stages(tmp_path):
    runner, pipe = _pipeline(tmp_path, "a")
    unreferenced = bench.Ledger()
    reference = bench.check_pipeline(runner.config, pipe, unreferenced, None)
    assert unreferenced.attempted == 4 and list(unreferenced.failures) == [("a", "run"), ("a", "analyze")]

    clean = bench.Ledger()
    bench.check_pipeline(runner.config, pipe, clean, reference)
    assert clean.failures == {}

    results = pipe.out / "results.csv"
    lines = results.read_text().splitlines()
    results.write_text("\n".join(lines[:-1]) + "\n")
    broken = bench.Ledger()
    bench.check_pipeline(runner.config, pipe, broken, reference)
    assert list(broken.failures) == [("a", "run")]

    _, other = _pipeline(tmp_path, "b")
    ckpt = other.out / "checkpoints" / "teacher_0.ckpt"
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 1
    ckpt.write_bytes(bytes(data))
    repeat = bench.Ledger()
    bench.check_determinism([_pipeline(tmp_path, "c")[1], other], repeat)
    assert list(repeat.failures) == [("b", "teachers")]
