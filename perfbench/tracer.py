"""Traced entry point for one cdbench CLI stage.

Run as `python perfbench/tracer.py <cdbench cli arguments>`. It wraps the
public functions of each cdbench module from outside the package, runs
`cdbench.cli.main`, and writes the totals as JSON to the file named by the
PERFBENCH_TRACE_FILE environment variable.

Spans are aggregated in memory per name: calls and self seconds (the span's
duration minus that of its wrapped children). Each `run_sequence` call is
also kept as one grid-cell record. Only this process is traced, so `run` and
`sweep` must be given `--jobs 1`: forked pool workers would record spans that
are never written out.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_FILE_ENV = "PERFBENCH_TRACE_FILE"

# (defining module, function) pairs wrapped in every cdbench module that binds them.
SPANS = {
    "nn_core": ("forward", "backward", "optimizer_step", "cross_entropy"),
    "distill": (
        "kl_kd_loss",
        "ls_kd_loss",
        "dkd_loss",
        "mds_filter",
        "self_distill_loss",
        "se2d_loss",
    ),
    "domains": ("build_scenario", "generate_domain", "write_domain_csv"),
    "engine": (
        "train_teacher",
        "distill_task",
        "evaluate",
        "serialize_model",
        "deserialize_model",
        "run_sequence",
    ),
    "metrics": ("entropy_histogram", "forgetting"),
    "cli": ("cmd_gen", "cmd_teachers", "cmd_run", "cmd_sweep", "cmd_analyze"),
}
EVAL_PARENTS = ("engine.evaluate", "metrics.entropy_histogram")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.cells: list[dict] = []
        self.stack: list[list] = []  # [name, child seconds]
        self.student = None
        self.in_cell = False
        self.cell_self = 0.0  # self seconds of the spans nested in the current grid cell

    def _bump(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _span_name(self, name: str, args: tuple) -> str:
        if name != "nn_core.forward":
            return name
        parent = self.stack[-1][0] if self.stack else ""
        if parent in EVAL_PARENTS:
            return "nn_core.forward.eval"
        if parent == "engine.distill_task" and args[0] is not self.student:
            return "nn_core.forward.frozen"
        return "nn_core.forward.trained"

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._span_name(name, args)
            parent = tracer.stack[-1][0] if tracer.stack else ""
            outer_student = tracer.student
            if name == "engine.distill_task":
                tracer.student = args[0]
            elif name == "engine.run_sequence":
                tracer.in_cell = True
            frame = [span, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.student = outer_student
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                entry = tracer.stats.setdefault(span, [0, 0.0])
                entry[0] += 1
                entry[1] += dt - frame[1]
                if tracer.in_cell and name != "engine.run_sequence":
                    tracer.cell_self += dt - frame[1]
            tracer._observe(name, parent, args, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, parent: str, args: tuple, result, dt: float) -> None:
        if name == "nn_core.optimizer_step" and parent == "engine.distill_task":
            self._bump("engine.distill_task.steps")
        elif name == "distill.mds_filter":
            self._bump("distill.mds_filter.kept", float(result.sum()))
            self._bump("distill.mds_filter.seen", float(result.size))
        elif name == "engine.serialize_model":
            self._bump("engine.serialize_model.bytes", float(len(result)))
        elif name == "engine.run_sequence":
            self.cells.append(
                {"method": args[3].method, "wall_s": dt, "self_sum_s": self.cell_self}
            )
            self.in_cell = False
            self.cell_self = 0.0

    def wrap_stream(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            for batch in fn(*args, **kwargs):
                tracer._bump("domains.balance_pair_stream.batches")
                yield batch

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: Path) -> None:
        doc = {"stats": self.stats, "counts": self.counts, "cells": self.cells}
        path.write_text(json.dumps(doc), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Replace each traced function in every cdbench module that looks it up by name."""
    from cdbench import benchmark, cli, distill, domains, engine, metrics, nn_core

    modules = {
        "nn_core": nn_core,
        "distill": distill,
        "domains": domains,
        "engine": engine,
        "metrics": metrics,
        "cli": cli,
    }
    bound = [benchmark, *modules.values()]
    replacements = []
    for layer, names in SPANS.items():
        for fn_name in names:
            original = getattr(modules[layer], fn_name)
            replacements.append((original, tracer.wrap(f"{layer}.{fn_name}", original)))
    original = domains.balance_pair_stream
    replacements.append((original, tracer.wrap_stream(original)))
    for original, wrapper in replacements:
        for mod in bound:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    path = Path(os.environ[TRACE_FILE_ENV])
    sys.path.insert(0, str(ROOT / "src"))
    from cdbench import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
