"""Byte identity of a whole pipeline against committed SHA-256 digests.

The pipeline runs `configs/quick.json` with all six methods through `gen`,
`teachers`, `run`, `run --jobs 2`, `sweep --ratio 0,0.5 --jobs 2` and
`analyze` in one output directory. The `elapsed_seconds` column is wall
time and is blanked before hashing.

Float64 BLAS results can differ in their last bits between OpenBLAS's CPU
kernels. No artifact of this pipeline prints those bits: `metrics.json`
prints its entropy statistics at 10 significant digits, and under the
kernels checked every other artifact came out the same too. So the file
keeps one digest set, with the Python, numpy and BLAS versions that made
it, and the test compares it on any kernel. A second test runs the pipeline
in a child process whose environment alone sets OPENBLAS_CORETYPE=Prescott,
a kernel that any x86-64 CPU runs, and compares its bytes with the same set.

A change that means to alter an artifact's bytes regenerates the digests
in the same commit and says why:

    PYTHONPATH=src python tests/test_pipeline_digests.py

It records the set on this machine's kernel and reruns the pipeline under
each of CHECKED_KERNELS in a child process whose environment alone sets
OPENBLAS_CORETYPE. It writes the file only if every kernel wrote the same
bytes; otherwise it exits non-zero, naming each kernel and artifact that
differs.
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
import pytest

import cdbench
from cdbench.cli import _OPENBLAS_NAMES, _openblas_function, main
from cdbench.distill import METHODS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "pipeline_digests.json"
WALL_TIME_COLUMN = "elapsed_seconds"
# The kernels the recording checks besides this machine's, as
# OPENBLAS_CORETYPE names them; OpenBLAS reports Prescott as Katmai.
CHECKED_KERNELS = ("Haswell", "Sandybridge", "Prescott")


def blas_kernel() -> str | None:
    """The kernel of the OpenBLAS in numpy.libs, such as "SkylakeX"; None without one."""
    names = [name.format("get_corename") for name in _OPENBLAS_NAMES]
    corename = _openblas_function(names, ([], ctypes.c_char_p))
    return None if corename is None else corename().decode()


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


def record() -> dict:
    """This process's digest set: its versions and the artifacts after `analyze`.

    The stages' own output is dropped, so a child's stdout is its set alone.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        trees = run_pipeline(Path(tmp))
    if trees["run --jobs 2"] != trees["run"]:
        sys.exit("`run --jobs 2` wrote other bytes than `run`; no digests written")
    return {"versions": versions(), "artifacts": trees["analyze"]}


def record_under(kernel: str) -> dict:
    """The digest set of a child process whose environment alone sets OPENBLAS_CORETYPE."""
    src = str(Path(cdbench.__file__).resolve().parent.parent)  # the tree under test
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path),
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(child.stdout)


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The artifacts whose digests differ, or that one side lacks."""
    return sorted(p for p in expected.keys() | actual.keys() if expected.get(p) != actual.get(p))


def check_against_committed(digests: dict) -> None:
    """Fail, naming the kernel and artifacts, unless `digests` holds the committed bytes."""
    committed = json.loads(DIGESTS.read_text())
    now, expected, actual = digests["versions"], committed["artifacts"], digests["artifacts"]
    changed = sorted(p for p in expected.keys() & actual.keys() if expected[p] != actual[p])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    if changed or missing or extra:
        lines = [
            f"artifact bytes under the {now['blas_kernel']} kernel differ from {DIGESTS.name}:",
            f"  changed: {changed}",
            f"  missing: {missing}",
            f"  new: {extra}",
        ]
        if committed["versions"] != now:
            lines.append(
                f"  the digests were recorded under {committed['versions']}, this run uses "
                f"{now}; the difference may come from the environment rather than the code"
            )
        lines.append(
            "  if the change is meant, regenerate with "
            "`PYTHONPATH=src python tests/test_pipeline_digests.py` and say why"
        )
        raise AssertionError("\n".join(lines))
    # The set serves every kernel, so only the other versions are worth a warning.
    recorded = {k: v for k, v in committed["versions"].items() if k != "blas_kernel"}
    if recorded != {k: v for k, v in now.items() if k != "blas_kernel"}:
        warnings.warn(
            f"{DIGESTS.name} was recorded under {committed['versions']}; "
            f"the artifacts still match under {now}"
        )


def test_pipeline_artifacts_match_committed_digests(tmp_path):
    trees = run_pipeline(tmp_path)
    assert trees["run --jobs 2"] == trees["run"], "`run --jobs 2` wrote other bytes than `run`"
    check_against_committed({"versions": versions(), "artifacts": trees["analyze"]})


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS's Prescott kernel is an x86-64 kernel",
)
def test_prescott_kernel_writes_the_committed_bytes():
    check_against_committed(record_under("Prescott"))


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(record()))
        sys.exit()
    digests = record()
    problems = [
        f"{kernel}: {path}"
        for kernel in CHECKED_KERNELS
        for path in differing(digests["artifacts"], record_under(kernel)["artifacts"])
    ]
    if problems:
        sys.exit(
            f"these artifacts differ from the bytes under {digests['versions']['blas_kernel']}, "
            "so no digests were written:\n  " + "\n  ".join(problems)
        )
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}; {', '.join(CHECKED_KERNELS)} wrote the same bytes")
