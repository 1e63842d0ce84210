"""Smoke runs of the scripts with small arguments."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import D3_MULTIPLICITIES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


RUNS = {  # script: (small arguments, how its output ends)
    "two_loop_tables.py": (["--dim", "2"], "motivic class: L^6 + L^5"),
    "basis_frontier.py": (["--max-degree", "10"], "all agree"),
}


def test_every_script_has_a_smoke_run():
    assert set(RUNS) == {path.name for path in SCRIPTS.glob("*.py")}


def test_readme_lists_every_script():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`scripts/([\w.]+\.py)`", section))
    assert named == {path.name for path in SCRIPTS.glob("*.py")}


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


def test_two_loop_tables_prints_the_d3_multiplicity_tables():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "two_loop_tables.py"), "--dim", "3", "--multiplicities"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tables, timed = {}, []
    for line in done.stdout.splitlines():
        words = line.split()
        if line.startswith("-- ") and words[2] == "multiplicities:":
            table = tables.setdefault(words[1], {})
        elif line.startswith("-- "):
            assert words[2:4] == ["multiplicities", "took"] and words[-1] == "s"
            timed.append((words[1], float(words[4])))
        elif len(words) == 4 and words[1] == "in":
            table[(words[0], words[2])] = None if words[3] == "None" else int(words[3])
    assert tables == D3_MULTIPLICITIES
    assert [kind for kind, _ in timed] == ["shortlex", "lex"]


@pytest.mark.parametrize(
    "args", [["--loops", "6"], ["--loops", "5", "--framing", "2"], ["--loops", "9"]]
)
def test_two_loop_tables_refuses_a_quiver_it_cannot_build(args):
    # a sixth loop is named f, like the framing arrow; there are eight loop names
    assert_refused("two_loop_tables.py", args)


def test_script_refuses_a_negative_size():
    assert_refused("basis_frontier.py", ["--max-degree", "-1"])


def assert_refused(script, args):
    """The script exits 1 with one error: line and no output."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: ")
