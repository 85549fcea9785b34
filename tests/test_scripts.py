"""The experiment scripts run to completion on small inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, shown",
    [
        ("plan_demo.py", ["--shots", "200"], r"^plan: 2 steps$"),
        ("collapse_frequency.py", ["--trials", "50"], r"^greatest-first outcomes"),
        (
            "degenerate_fuzz.py",
            ["--trials", "30"],
            r"^by exit code:\n(  exit \d +\d+\n)+exit 1 by class:\n  completeness +\d+$"
            r"(.|\n)*^answers sha256 [0-9a-f]{64}\n\Z",
        ),
        # Each cell's third column is the median margin of its refusals.
        (
            "ladder_feasibility_scan.py",
            ["--trials", "20", "--alphas", "1.0"],
            r"median refusal margin\):$(.|\n)*^  16 +[\d.]+ / +[\d.]+ / -\d\.\d{3}e-\d\d ",
        ),
    ],
)
def test_script_exits_zero(script, args, shown):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(shown, proc.stdout, re.MULTILINE), proc.stdout
