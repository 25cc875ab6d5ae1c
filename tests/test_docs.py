"""The README's quickstart, its CLI block and the demos run as written."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrtensor.cli import build_parser, main

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
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    write_season(tmp_path / "season.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text,
                                          flags=re.DOTALL)
             for line in block.splitlines() if line.startswith("mrtensor ")]
    assert len(lines) == 6
    write_season(tmp_path / "season.csv")
    # One usage rate per term (the fit line's -H 12) and match.
    header = "term," + ",".join(f"m{k}" for k in range(8))
    rows = [f"{h + 1}," + ",".join(["20"] * 8) for h in range(12)]
    (tmp_path / "rates.csv").write_text("\n".join([header] + rows) + "\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = Path(argv[argv.index("--out") + 1])
        assert out.is_file() or any(out.iterdir()), line


def test_readme_names_only_real_flags():
    # Inline code of the CLI section and every mrtensor line; other
    # sections name other programs' flags, such as pytest's -s.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (section,) = re.findall(r"^## CLI\n(.*?)^## ", text,
                            flags=re.DOTALL | re.MULTILINE)
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    named = re.findall(r"`([^`\n]+)`", prose) + re.findall(
        r"^mrtensor .*$", text, flags=re.MULTILINE)
    options = {flag for span in named
               for flag in re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", span)}
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for sub in commands.choices.values()
             for action in sub._actions for flag in action.option_strings}
    assert options and options <= flags, options - flags


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", "-W", "error::UserWarning",
         str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
