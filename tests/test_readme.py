"""The README's library example runs as written, on the quick config."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs_on_the_quick_config(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "configs/benchmark.json" in code
    monkeypatch.chdir(ROOT)
    exec(code.replace("configs/benchmark.json", "configs/quick.json"), {})
    assert capsys.readouterr().out
