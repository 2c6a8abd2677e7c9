"""Byte identity of a whole pipeline against committed SHA-256 digests.

The pipeline runs `configs/quick.json` with all six methods through `gen`,
`teachers`, `run`, `run --jobs 2`, `sweep --ratio 0,0.5 --jobs 2` and
`analyze` in one output directory. The `elapsed_seconds` column is wall
time and is blanked before hashing.

A change that means to alter an artifact's bytes regenerates the digests
in the same commit and says why:

    PYTHONPATH=src python tests/test_pipeline_digests.py

Float64 BLAS results can differ between CPU kernels and library builds, so
the digests carry the Python, numpy and BLAS versions and the OpenBLAS
kernel that made them.
"""

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from cdbench.cli import main
from cdbench.distill import METHODS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "pipeline_digests.json"
WALL_TIME_COLUMN = "elapsed_seconds"
# OpenBLAS's core-name function, in the order blas_kernel tries them: numpy
# 2's wheels bundle the first; the others are plain OpenBLAS's names, with
# and without its 64-bit-integer suffix.
CORENAME_FUNCTIONS = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def blas_kernel() -> str | None:
    """The kernel of the OpenBLAS in numpy.libs, such as "SkylakeX"; None without one."""
    libs = []
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            libs.append(ctypes.CDLL(str(path)))
        except OSError:
            pass
    for name in CORENAME_FUNCTIONS:
        for lib in libs:
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return None


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": blas_kernel(),
    }


def _canonical(path: Path) -> bytes:
    """The file's bytes, with a CSV's wall-time column blanked."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    lines = data.decode().split("\n")
    header = lines[0].split(",")
    if WALL_TIME_COLUMN not in header:
        return data
    col = header.index(WALL_TIME_COLUMN)
    for i in range(1, len(lines)):
        if lines[i]:
            fields = lines[i].split(",")
            fields[col] = ""
            lines[i] = ",".join(fields)
    return "\n".join(lines).encode()


def _tree_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(_canonical(p)).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def run_pipeline(tmp: Path) -> dict[str, dict[str, str]]:
    """Stage name -> digests of the whole output directory after that stage."""
    doc = json.loads((ROOT / "configs" / "quick.json").read_text())
    doc["methods"] = list(METHODS)
    config = tmp / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp / "out"
    common = ["--config", str(config), "--out", str(out)]
    stages = {
        "gen": ["gen", *common],
        "teachers": ["teachers", *common],
        "run": ["run", *common],
        "run --jobs 2": ["run", *common, "--jobs", "2"],
        "sweep --ratio 0,0.5 --jobs 2": ["sweep", *common, "--ratio", "0,0.5", "--jobs", "2"],
        "analyze": ["analyze", "--out", str(out)],
    }
    trees = {}
    for stage, argv in stages.items():
        assert main(argv) == 0, f"stage `{stage}` failed"
        trees[stage] = _tree_digests(out)
    return trees


def test_pipeline_artifacts_match_committed_digests(tmp_path):
    trees = run_pipeline(tmp_path)
    assert trees["run --jobs 2"] == trees["run"], "`run --jobs 2` wrote other bytes than `run`"

    recorded = json.loads(DIGESTS.read_text())
    actual = trees["analyze"]
    expected = recorded["artifacts"]
    differing = sorted(p for p in expected.keys() & actual.keys() if expected[p] != actual[p])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    now = versions()
    if differing or missing or extra:
        lines = [
            f"artifact bytes differ from {DIGESTS.name}:",
            f"  changed: {differing}",
            f"  missing: {missing}",
            f"  new: {extra}",
        ]
        if recorded["versions"] != now:
            lines.append(
                f"  the digests were recorded under {recorded['versions']}, this run uses {now}; "
                "the difference may come from the environment rather than the code"
            )
        lines.append(
            "  if the change is meant, regenerate with "
            "`PYTHONPATH=src python tests/test_pipeline_digests.py` and say why"
        )
        raise AssertionError("\n".join(lines))
    if recorded["versions"] != now:
        warnings.warn(
            f"{DIGESTS.name} was recorded under {recorded['versions']}; "
            f"the artifacts still match under {now}"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        trees = run_pipeline(Path(tmp))
    if trees["run --jobs 2"] != trees["run"]:
        sys.exit("`run --jobs 2` wrote other bytes than `run`; no digests written")
    document = {"versions": versions(), "artifacts": trees["analyze"]}
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(document['artifacts'])} digests to {DIGESTS}")
