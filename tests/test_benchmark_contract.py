"""The benchmark's traced mode wraps cohalab functions and methods by name
(perfbench/layers.py).  A rename or removal there would otherwise only
surface when someone runs ``perfbench/run.py --trace 1``.

The check runs in a subprocess because ``layers.install`` patches the
package it is given, and this test process shares its cohalab with the
rest of the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src"]

import cohalab
from layers import install, layer_metrics
from tracing import Tracer
from workloads import WORKLOADS

tracer = Tracer()
install(tracer, cohalab)
for name, build in WORKLOADS.items():
    items = build(cohalab, 1)
    first = items[0]
    tracer.active = True
    out = first.run()
    tracer.active = False
    problems = first.check(out)
    if problems:
        sys.exit(f"{name} / {first.name}: {problems}")
    print(name, len(items), "items; first traced item passed")
layer_metrics(tracer, 1.0)
"""


def test_traced_benchmark_installs_and_first_items_pass():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("first traced item passed") == 3
