"""The experiment scripts in scripts/ run to completion on a small run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, header",
    [
        ("attack_comparison.py", "rounds=200  p_cm=0.5  seed=7"),
        ("leakage_study.py", "strategy=bell-substitution  rounds=200  seed=5"),
    ],
)
def test_script_runs(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--rounds", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == header
    assert lines[1].split()[0] == "protocol"
