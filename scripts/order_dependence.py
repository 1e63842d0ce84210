#!/usr/bin/env python3
"""Order dependence of cell-closure classes on the two-loop quiver.

For every pair of equal-dimension cell labels (target, chart) with the
target below the chart, extracts the multiplicity of the chart's cell
closure in the target's degeneracy locus under both path orders.  The
shortlex/lex disagreement in the d=3 pair exhibits the dependence of
closure classes on the chosen order.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohalab import (
    PathOrder,
    cell_dim,
    enumerate_trees,
    format_tree,
    multiplicity_power,
    tree_key,
)
from cohalab.checks import framed_loops


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    args = parser.parse_args()
    if args.dim < 0:
        sys.exit("error: --dim must be non-negative")

    fq = framed_loops(2, 1)
    d = (args.dim,)

    for label, order in [("shortlex", PathOrder.shortlex()), ("lex", PathOrder.lex())]:
        print(f"== {label}")
        trees = enumerate_trees(fq, d, order)
        for target in trees:
            for chart in trees:
                if cell_dim(fq, target, order) != cell_dim(fq, chart, order):
                    continue
                if tree_key(order, chart) < tree_key(order, target):
                    continue
                power = multiplicity_power(fq, target, chart, order)
                shown = "indeterminate" if power is None else power
                print(
                    f"  target={format_tree(fq, target):14s}"
                    f" chart={format_tree(fq, chart):14s}"
                    f" multiplicity={shown}"
                )


if __name__ == "__main__":
    main()
