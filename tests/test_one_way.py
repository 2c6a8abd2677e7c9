"""Facts the README gives one home keep it: each is checked on the source's syntax tree.

`forward` runs only in the two training loops and in `frozen_logits`, the
one way to run a frozen model; `_mix_selection` is reached only through
`mix_rows`, the one mixing rule; `generate_domain` is the one generator,
so it alone draws a domain's transform and, outside the spec's own
checks, reads the spec's `external_relation`; and a stage writes a file
only through `cli._atomic_write`, so an interrupted stage leaves no
partial file. The one exception is `gen`'s CSV export, which no stage
reads back. Every worker pool is built by `cli._pool_map`, which sets
each worker to one BLAS thread.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cdbench"

# How the package could write a file: `open(...)`, these methods of a path, and
# these functions of `os`.
PATH_WRITES = {"open", "write_bytes", "write_text", "touch"}
OS_WRITES = {"replace", "rename"}


def functions(tree: ast.Module):
    """(name, node) for each function of the module, methods as Class.method;
    the statements outside any function come as one "<module>" node each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        else:
            yield "<module>", node


def nodes(kind: type):
    """(file, function, node) for every syntax node of this kind in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for where, node in functions(ast.parse(path.read_text(encoding="utf-8"))):
            for sub in ast.walk(node):
                if isinstance(sub, kind):
                    yield path.name, where, sub


def calls():
    """(file, function, call) for every call in the package."""
    return nodes(ast.Call)


def callers(name: str) -> set[tuple[str, str]]:
    """(file, function) of every call of `name`, plain or as an attribute."""
    return {
        (file, where)
        for file, where, call in calls()
        if name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }


def test_forward_runs_only_in_the_training_loops_and_frozen_logits():
    assert callers("forward") == {
        ("engine.py", "frozen_logits"),
        ("engine.py", "train_teacher"),
        ("engine.py", "distill_task"),
    }


def test_only_mix_rows_selects_rows_at_a_ratio():
    assert callers("_mix_selection") == {("domains.py", "mix_rows")}


def test_only_generate_domain_reads_the_external_relation():
    readers = {
        (file, where)
        for file, where, node in nodes(ast.Attribute)
        if node.attr == "external_relation" and not where.startswith("ScenarioSpec.")
    }
    assert readers == {("domains.py", "generate_domain")}


def test_only_generate_domain_draws_a_domain_transform():
    assert callers("_domain_transform") == {("domains.py", "generate_domain")}


def test_only_pool_map_builds_a_process_pool():
    assert callers("ProcessPoolExecutor") == {("cli.py", "_pool_map")}


def writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if isinstance(func, ast.Attribute):
        on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
        return func.attr in PATH_WRITES or on_os and func.attr in OS_WRITES
    return False


def test_files_are_written_only_through_atomic_write():
    writers = {(file, where) for file, where, call in calls() if writes(call)}
    assert writers == {("cli.py", "_atomic_write"), ("domains.py", "write_domain_csv")}
