"""The demos run end to end against the library they illustrate."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, last_line_start",
    [
        ("worked_example.py", "divergence check |div T + tr C|: "),
        ("riccati_portrait.py", "  t=0.500  raised RiccatiBlowupError: "),
    ],
    ids=["worked_example", "riccati_portrait"],
)
def test_demo_runs(script, last_line_start):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line_start)
