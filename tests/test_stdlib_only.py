"""The package needs nothing beyond the standard library at run time.

The check runs in a fresh interpreter, since this test process has already
imported pytest, hypothesis and their plugins.  Modules loaded before the
import (site hooks such as _distutils_hack) are left out of the count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cohalab, cohalab.cli, cohalab.checks
for name in sorted(set(sys.modules) - before):
    top = name.partition(".")[0]
    print(name, top == "cohalab", top in sys.stdlib_module_names)
"""


def test_package_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = [line.split() for line in done.stdout.splitlines()]
    assert any(ours == "True" for _, ours, _ in loaded)
    assert [name for name, ours, std in loaded if ours == std == "False"] == []
