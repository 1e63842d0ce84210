#!/usr/bin/env python3
"""Print the cell tables of the two-loop quiver side by side.

For each path order, lists the cell labels of a given dimension in their
total order with cell dimensions and partition labels, then the motivic
class.  Defaults reproduce the d=3 tables.  The quiver is the shared
fixture checks.framed_loops; arguments it refuses (more loops than loop
names, or a loop named like a framing arrow) end in a one-line error.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohalab import (
    PathOrder,
    QuiverError,
    cell_dim,
    enumerate_trees,
    format_partition,
    format_tree,
    motivic_class,
    tree_to_partition,
)
from cohalab.checks import framed_loops


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--loops", type=int, default=2)
    parser.add_argument("--framing", type=int, default=1)
    args = parser.parse_args()
    if args.dim < 0:
        sys.exit("error: --dim must be non-negative")

    try:
        fq = framed_loops(args.loops, args.framing)
    except QuiverError as exc:
        sys.exit(f"error: {exc}")
    d = (args.dim,)

    for label, order in [("shortlex", PathOrder.shortlex()), ("lex", PathOrder.lex())]:
        print(f"== {label} order, d={args.dim}")
        for s in enumerate_trees(fq, d, order):
            lam = tree_to_partition(fq, s, order)
            print(
                f"  {format_tree(fq, s):24s} d(S)={cell_dim(fq, s, order):3d}"
                f"  partition={format_partition(lam)}"
            )
    print("motivic class:", motivic_class(fq, d))


if __name__ == "__main__":
    main()
