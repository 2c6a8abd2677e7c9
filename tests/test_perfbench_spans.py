"""The benchmark tracer wraps cdbench functions by name; each must exist."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdbench.cli import main, parse_config
from cdbench.domains import distill_pools, generate_domains

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _spans() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{layer}.{fn}" for layer, names in module.SPANS.items() for fn in names]


@pytest.mark.parametrize("span", _spans())
def test_traced_span_exists(span):
    layer, fn = span.split(".")
    assert callable(getattr(importlib.import_module(f"cdbench.{layer}"), fn, None))


def test_tracer_reads_its_positional_arguments(tmp_path):
    # The tracer takes distill_task's student from args[0], to tell trained
    # from frozen forwards, and run_sequence's method from args[3].method.
    doc = json.loads((ROOT / "configs" / "quick.json").read_text())
    doc.update(methods=["se2d"], output_dir=str(tmp_path / "out"))
    doc["run"]["seeds"] = [1]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["teachers", "--config", str(config)]) == 0
    trace = tmp_path / "run.trace.json"
    subprocess.run(
        [sys.executable, str(TRACER), "run", "--config", str(config), "--jobs", "1"],
        env=dict(os.environ, PERFBENCH_TRACE_FILE=str(trace)),
        check=True,
        capture_output=True,
    )
    got = json.loads(trace.read_text())
    assert [cell["method"] for cell in got["cells"]] == ["se2d"]
    steps = got["counts"]["engine.distill_task.steps"]
    assert steps > 0
    # One trained forward per step. The tracer labels a forward frozen only
    # under distill_task, where se2d's checkpoint runs, so it counts the
    # teacher passes made before the grid, one forward per chunk of each
    # pool, as trained too.
    spec = parse_config(doc).scenario
    pools = distill_pools(spec, generate_domains(spec))
    n_external = int(pools.external_mask.sum())
    chunks = sum(math.ceil(n / doc["run"]["batch_size"]) for n in (len(pools) - n_external, n_external))
    assert got["stats"]["nn_core.forward.trained"][0] == steps + spec.n_teachers * chunks
    assert got["stats"]["nn_core.forward.frozen"][0] > 0
