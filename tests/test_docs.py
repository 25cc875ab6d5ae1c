"""The README's library quickstart and the demos run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def write_season(path, n_events=2000, seed=0):
    """Events CSV: 8 matches of 4 teams, passes spread over the field."""
    rng = np.random.default_rng(seed)
    match = rng.integers(8, size=n_events)
    x = rng.uniform(0, 115, size=(n_events, 2))
    y = rng.uniform(0, 74, size=(n_events, 2))
    lines = ["replicate_id,team,minutes,x_o,y_o,x_d,y_d"] + [
        f"m{m},t{m % 4},90,{xo:.2f},{yo:.2f},{xd:.2f},{yd:.2f}"
        for m, (xo, xd), (yo, yd) in zip(match, x, y)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    write_season(tmp_path / "season.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
