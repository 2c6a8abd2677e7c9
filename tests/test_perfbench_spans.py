"""The benchmark tracer wraps cdbench functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{layer}.{fn}" for layer, names in module.SPANS.items() for fn in names]


@pytest.mark.parametrize("span", _spans())
def test_traced_span_exists(span):
    layer, fn = span.split(".")
    assert callable(getattr(importlib.import_module(f"cdbench.{layer}"), fn, None))
