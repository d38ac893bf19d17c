"""Every demo script and README's quick start run to completion against the current library."""

import re
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # Demos that write artifacts put them in a temporary directory and
    # remove it before they finish.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir()), sorted(p.name for p in tmp_path.iterdir())


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start.*?```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    iterations, error = capsys.readouterr().out.split()
    assert scope["report"].iterations == int(iterations) == 3
    assert float(error) < 2e-5
