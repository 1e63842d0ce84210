#!/usr/bin/env python3
"""Cross-check the no-arrow quiver series against q-binomials.

Scans all 0 <= d <= w up to a bound and compares the motivic class of the
moduli space (one L^(cell dimension) per cell of its decomposition) with
the brute-force Gaussian binomial, printing the polynomial for each pair.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohalab import gaussian_binomial, motivic_class
from cohalab.checks import vertex_only


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-framing", type=int, default=7)
    args = parser.parse_args()
    if args.max_framing < 0:
        sys.exit("error: --max-framing must be non-negative")

    bad = 0
    for w in range(args.max_framing + 1):
        fq = vertex_only(w)
        for d in range(w + 1):
            mot = motivic_class(fq, (d,))
            gauss = gaussian_binomial(w, d)
            status = "ok" if mot.as_dict() == gauss.as_dict() else "MISMATCH"
            bad += status != "ok"
            print(f"w={w} d={d}: {mot}  [{status}]")
    if bad:
        sys.exit(f"{bad} mismatches")
    print("all agree")


if __name__ == "__main__":
    main()
