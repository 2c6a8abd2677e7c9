"""Byte identity of a whole pipeline against committed SHA-256 digests.

The pipeline runs `configs/quick.json` with all six methods through `gen`,
`teachers`, `run`, `run --jobs 2`, `sweep --ratio 0,0.5 --jobs 2` and
`analyze` in one output directory. The `elapsed_seconds` column is wall
time and is blanked before hashing.

Float64 BLAS results can differ between CPU kernels and library builds, so
the file keeps one digest set per OpenBLAS kernel, each with the Python,
numpy and BLAS versions that made it. The test compares the set of the
kernel it runs on, exactly; on a kernel with no recorded set it fails and
names the kernels that have one.

A change that means to alter an artifact's bytes regenerates the digests
in the same commit and says why:

    PYTHONPATH=src python tests/test_pipeline_digests.py

It records this machine's kernel, then each of RECORDED_KERNELS in a
child process whose environment alone sets OPENBLAS_CORETYPE, and rewrites
the file with those sets alone. A set is filed under the kernel OpenBLAS
reports, which for Prescott is Katmai.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
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
# The kernels recorded besides this machine's, as OPENBLAS_CORETYPE names them.
RECORDED_KERNELS = ("Haswell", "Sandybridge", "Prescott")
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

    kernels = json.loads(DIGESTS.read_text())
    now = versions()
    recorded = kernels.get(str(now["blas_kernel"]))
    if recorded is None:
        raise AssertionError(
            f"{DIGESTS.name} holds no digests for the OpenBLAS kernel {now['blas_kernel']!r}, "
            f"only for {sorted(kernels)}; record them with "
            "`PYTHONPATH=src python tests/test_pipeline_digests.py`"
        )
    actual = trees["analyze"]
    expected = recorded["artifacts"]
    differing = sorted(p for p in expected.keys() & actual.keys() if expected[p] != actual[p])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    if differing or missing or extra:
        lines = [
            f"artifact bytes differ from the {now['blas_kernel']} digests in {DIGESTS.name}:",
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


def record() -> dict:
    """This process's digest set: its versions and the artifacts after `analyze`.

    The stages' own output is dropped, so a child's stdout is its set alone.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        trees = run_pipeline(Path(tmp))
    if trees["run --jobs 2"] != trees["run"]:
        sys.exit("`run --jobs 2` wrote other bytes than `run`; no digests written")
    return {"versions": versions(), "artifacts": trees["analyze"]}


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(record()))
        sys.exit()
    sets = [record()]
    for kernel in RECORDED_KERNELS:
        child = subprocess.run(
            [sys.executable, __file__, "--print"],
            env=dict(os.environ, OPENBLAS_CORETYPE=kernel),
            check=True,
            capture_output=True,
            text=True,
        )
        sets.append(json.loads(child.stdout))
    document = {str(s["versions"]["blas_kernel"]): s for s in sets}
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote digests for the kernels {sorted(document)} to {DIGESTS}")
