"""The package needs nothing beyond the standard library at run time.

The check runs in a fresh interpreter, since this test process has already
imported pytest, hypothesis and their plugins.  Modules loaded before the
import (site hooks such as _distutils_hack) are left out of the count.
What the import exports is pinned as a literal list of names.
"""

import subprocess
import sys
from pathlib import Path

import cohalab

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


PUBLIC_NAMES = [
    "Arrow", "BasisReport", "CellError", "CohaError", "CriticalSet", "FramedQuiver",
    "GradedSubspace", "LEX", "LaurentPoly", "MultiPartition", "NumericRep", "Path",
    "PathOrder", "Quiver", "QuiverError", "ROOT", "SHORTLEX", "Subtree", "SymPoly",
    "WSHORTLEX", "betti_numbers", "cell_dim", "cell_labels", "cells", "chart_coordinates",
    "charts", "classify", "coha", "critical_set", "elementary", "enumerate_partitions",
    "enumerate_trees", "euler_form", "format_partition", "format_path", "format_tree",
    "framing_idempotent", "gaussian_binomial", "in_cell", "in_degeneracy_locus",
    "kernel_graded_piece", "linalg", "make_chart", "make_partition", "make_rep",
    "make_subtree", "membership_minors", "monomial_symmetric", "motivic_class",
    "multiplicity_power", "parse_partition", "parse_path", "parse_quiver_file",
    "parse_rep_file", "parse_tree", "partition_cell_dim", "partition_to_tree",
    "partitions", "paths", "polys", "q_multinomial", "quiver", "random_stable_rep",
    "rep_from_chart", "satisfies_phi", "serialize_quiver_file", "series",
    "shuffle_product", "slice_basis", "symbolic_vector", "tautological_monomial",
    "top_degree", "tree_key", "tree_leq", "tree_to_partition", "udim", "unit",
    "verify_basis",
]


def test_public_names():
    # a new public name can only arrive as a visible change to this list
    assert sorted(cohalab.__all__) == PUBLIC_NAMES


def test_package_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = [line.split() for line in done.stdout.splitlines()]
    assert any(ours == "True" for _, ours, _ in loaded)
    assert [name for name, ours, std in loaded if ours == std == "False"] == []
