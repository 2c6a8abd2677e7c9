"""numpy is the package's only runtime dependency; everything else it imports is stdlib."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cdbench").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    outside = absolute_imports(path) - {"numpy"} - sys.stdlib_module_names
    assert not outside, f"{path.name} imports {sorted(outside)}"
