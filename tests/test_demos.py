"""Smoke test: every demo script runs to completion at a small size, and so
does every Python block of the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "autodiff_basics.py": [],
    "causal_overestimation_walkthrough.py": [],
    "click_simulation_basics.py": ["--sessions", "2000"],
    # A 10% weak fraction gives the weak policy five labeled queries out of 50.
    "offline_comparison.py": ["--steps", "20", "--queries", "50", "--weak-fraction", "0.1"],
    "online_propensity_race.py": ["--steps", "20"],
    "propensity_two_step_anatomy.py": [],
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run_demo(name, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    _run_demo(name, DEMOS[name])


def test_offline_comparison_with_49_queries():
    """The demo raises the weak fraction to 1/49, and (1/49) * 49 rounds below 1."""
    out = _run_demo("offline_comparison.py", ["--steps", "10", "--queries", "49"])
    assert "weak fraction raised" in out


def test_every_python_block_of_the_readme_runs(capsys):
    """The documented import paths and calls work as written."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
