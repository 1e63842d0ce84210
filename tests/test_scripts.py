"""Smoke runs of the scripts with small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


RUNS = {  # script: (small arguments, how its output ends)
    "two_loop_tables.py": (["--dim", "2"], "motivic class: L^6 + L^5"),
    "order_dependence.py": (["--dim", "2"], "multiplicity=1"),
    "grassmannian_scan.py": (["--max-framing", "3"], "all agree"),
    "basis_frontier.py": (["--max-degree", "10"], "all agree"),
}


@pytest.mark.parametrize("script", RUNS)
def test_script_runs(script):
    args, ending = RUNS[script]
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith(ending)
