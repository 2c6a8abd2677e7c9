"""Record the benchmark's baseline into perfbench/baseline.json from run reports.

    python3 perfbench/record_baseline.py references   # quality reference values
    python3 perfbench/record_baseline.py measured     # medians and quartiles of the runs

Both read the reports that `perfbench/run.py` writes to `.perfbench/reports/`.
`references` takes each workload's quality values from its untraced reports,
which must all agree, because the program's results do not depend on the
seed. `measured` summarizes every report per workload: end-to-end metrics
from the untraced runs, per-layer metrics from the traced ones.
"""

from __future__ import annotations

import json
import sys

import run as bench


def _reports(workload: str, trace: int) -> list[dict]:
    paths = sorted((bench.WORK_DIR / "reports").glob(f"{workload}-seed*-trace{trace}.json"))
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def _summary(values: list[float]) -> dict:
    doc = bench.describe(values)
    if "q1" in doc and doc["median"]:
        doc["iqr_over_median"] = (doc["q3"] - doc["q1"]) / doc["median"]
    return doc


def _metric_table(reports: list[dict]) -> dict:
    names = sorted({name for r in reports for name in r["metrics"]})
    return {
        name: {
            "unit": reports[0]["metrics"][name]["unit"],
            **_summary([r["metrics"][name]["value"] for r in reports if name in r["metrics"]]),
        }
        for name in names
    }


def record(mode: str) -> None:
    path = bench.BASELINE_PATH
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entries = baseline.setdefault("workloads", {})
    benchmark = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in benchmark["workloads"]}
    for name, config in bench.WORKLOADS.items():
        entry = entries.setdefault(name, {})
        entry["why"] = whys[name]
        entry["config"] = config
        plain = _reports(name, 0)
        if mode == "references":
            values = [r["quality"] for r in plain if r["quality"]]
            if not values or any(v != values[0] for v in values):
                raise SystemExit(f"{name}: reports missing or disagreeing on quality values")
            entry["reference"] = values[0]
        else:
            traced = _reports(name, 1)
            entry["measured"] = {
                "seeds": [r["seed"] for r in plain],
                "correct": all(r["correct"] for r in plain + traced),
                "env": plain[0]["env"] if plain else None,
                "end_to_end": _metric_table(plain),
                "per_layer": _metric_table(traced),
                "trace_details": [r.get("trace_details") for r in traced],
            }
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("references", "measured"):
        raise SystemExit(__doc__)
    record(sys.argv[1])
