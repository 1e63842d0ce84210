#!/usr/bin/env python3
"""Time the basis theorem on the frontier sweeps and check their dimensions.

Runs verify_basis degree by degree on the two-loop quiver at d=7
(n=0..21) and d=8 (n=0..28, its top degree), on the Grassmannian
Gr(5,10), the no-arrow quiver framed 10 at d=5 (n=0..26), and on the
complete flag variety Fl(5), the linear quiver 0 -> 1 -> 2 -> 3 framed 5
at d=(4,3,2,1) (n=0..10).  Each degree prints its kernel and quotient dimensions, PASS
or FAIL, and the seconds it took.  The kernel dimensions are checked
against the stored values below, the Gr(5,10) quotients against the
coefficients of the Gaussian binomial [10 choose 5], and the Fl(5)
quotients against those of the q-multinomial [5; 1,1,1,1,1].  Exits 1 on
a mismatch or a FAIL.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cohalab import gaussian_binomial, q_multinomial, verify_basis
from cohalab.checks import framed_an, framed_loops, vertex_only

# kernel dimensions by degree n, from complete sweeps
CASES = {
    "fl-5": (
        framed_an(4, 5),
        (4, 3, 2, 1),
        [0, 0, 4, 19, 60, 148, 319, 621, 1132, 1960, 3269],
        q_multinomial([1] * 5).as_dict(),
    ),
    "two-loop-d7": (
        framed_loops(2, 1),
        (7,),
        [0, 0, 0, 0, 0, 0, 0, 2, 3, 6, 10, 17, 28, 42, 61, 88, 124, 166, 223, 285, 358, 435],
        None,
    ),
    "two-loop-d8": (
        framed_loops(2, 1),
        (8,),
        [0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 6, 10, 17, 26, 43, 61, 90, 124, 175, 234, 316, 410,
         536, 678, 854, 1049, 1276, 1520, 1800],
        None,
    ),
    "gr-5-10": (
        vertex_only(10),
        (5,),
        [0, 0, 0, 0, 0, 0, 1, 2, 4, 7, 12, 18, 27, 37, 51, 66, 85, 105, 130, 155, 185,
         216, 252, 289, 332, 376, 427],
        gaussian_binomial(10, 5).as_dict(),
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, help="stop after this degree")
    args = parser.parse_args()
    if args.max_degree is not None and args.max_degree < 0:
        sys.exit("error: --max-degree must be non-negative")

    bad = 0
    for name in sorted(CASES):
        fq, d, kernel_dims, quotients = CASES[name]
        top = len(kernel_dims) - 1
        if args.max_degree is not None:
            top = min(top, args.max_degree)
        total = 0.0
        for n in range(top + 1):
            start = time.perf_counter()
            r = verify_basis(fq, d, n)
            seconds = time.perf_counter() - start
            total += seconds
            wrong = r.kernel_dim != kernel_dims[n]
            wrong |= quotients is not None and r.quotient_dim != quotients.get(n, 0)
            bad += wrong or not r.independent
            print(
                f"{name} n={n}: kernel={r.kernel_dim} quotient={r.quotient_dim} "
                f"{'PASS' if r.independent else 'FAIL'}{'  MISMATCH' if wrong else ''} {seconds:.2f} s",
                flush=True,
            )
        print(f"{name}: degrees 0..{top} in {total:.2f} s", flush=True)
    if bad:
        sys.exit(f"{bad} degrees failed or mismatched")
    print("all agree")


if __name__ == "__main__":
    main()
