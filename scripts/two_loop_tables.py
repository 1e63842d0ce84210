#!/usr/bin/env python3
"""Print the cell tables of the two-loop quiver side by side.

For each path order, lists the cell labels of a given dimension in their
total order with cell dimensions and partition labels, then the motivic
class.  Defaults reproduce the d=3 tables.  With --multiplicities, each
order's table is followed by the closure multiplicity of every
equal-dimension pair (target in chart), as multiplicity_power returns it,
and the seconds all the pairs (their minors included) took: the chart
frontier's timing harness, and at d=3 the order dependence of closure
classes (a multiplicity 2 under shortlex, 4 under lex).  The quiver is the
shared fixture checks.framed_loops; arguments it refuses (more loops than
loop names, or a loop named like a framing arrow) end in a one-line error.
"""

import argparse
import sys
import time
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
    multiplicity_power,
    tree_to_partition,
)
from cohalab.checks import framed_loops


def print_multiplicities(fq, trees, order, label):
    """Time the multiplicity of every equal-dimension pair, then print one
    line per pair and the seconds."""
    dims = [cell_dim(fq, s, order) for s in trees]
    start = time.perf_counter()
    rows = []
    for a, da in zip(trees, dims):
        for b, db in zip(trees, dims):
            if da == db:
                rows.append((a, b, multiplicity_power(fq, a, b, order)))
    seconds = time.perf_counter() - start
    print(f"-- {label} multiplicities: {len(rows)} equal-dimension pairs, target in chart")
    for a, b, power in rows:
        print(f"  {format_tree(fq, a):24s} in {format_tree(fq, b):24s} {power}")
    print(f"-- {label} multiplicities took {seconds:.2f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--loops", type=int, default=2)
    parser.add_argument("--framing", type=int, default=1)
    parser.add_argument(
        "--multiplicities",
        action="store_true",
        help="also time and print the equal-dimension multiplicity table",
    )
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
        trees = enumerate_trees(fq, d, order)
        for s in trees:
            lam = tree_to_partition(fq, s, order)
            print(
                f"  {format_tree(fq, s):24s} d(S)={cell_dim(fq, s, order):3d}"
                f"  partition={format_partition(lam)}"
            )
        if args.multiplicities:
            print_multiplicities(fq, trees, order, label)
    print("motivic class:", motivic_class(fq, d))


if __name__ == "__main__":
    main()
