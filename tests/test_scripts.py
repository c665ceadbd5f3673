"""The experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        (
            "run_benchmark.py",
            ["--nets", "8", "--train-sizes", "60", "--test-size", "20", "--instances", "2",
             "--samples", "10", "--iters", "2", "--workers", "2", "--seed", "1"],
        ),
        (
            "sampler_diagnostics.py",
            ["--vars", "3", "--rows", "60", "--budgets", "20", "--seeds", "1", "--seed", "1"],
        ),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
