"""The built-in property suite: named, seeded checks at acceptance sizes.

``CHECKS`` maps a name to a check.  A check takes a ``Random`` and returns
the failures it found, so an empty list means it passed.  The acceptance
tests run every entry under a wall-clock budget and ``coha-lab check``
prints one PASS/FAIL line per entry.  The fixture builders here are the
test suite's too.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb
from random import Random
from typing import Callable

from .cells import cell_dim, classify, enumerate_trees, format_tree, in_cell
from .cells import in_degeneracy_locus, random_stable_rep, tree_leq
from .coha import top_degree, verify_basis
from .partitions import enumerate_partitions, format_partition
from .partitions import partition_to_tree, tree_to_partition
from .paths import PathOrder
from .quiver import DimVector, FramedQuiver, Quiver, QuiverError
from .series import betti_numbers, gaussian_binomial, motivic_class, q_multinomial

DEFAULT_SEED = 20240808

SHORTLEX = PathOrder.shortlex()
LEX = PathOrder.lex()


# -- fixtures ----------------------------------------------------------------------


def loop_quiver(loops: int) -> Quiver:
    names = "abcdefgh"
    if not 0 <= loops <= len(names):
        raise QuiverError(f"the loop quiver has 0 to {len(names)} loops, not {loops}")
    return Quiver.make(1, [(names[i], 0, 0) for i in range(loops)])


def framed_loops(loops: int, w: int) -> FramedQuiver:
    # single framing arrow is called f; two are e < f, as in the worked examples
    names = {1: ["f"], 2: ["e", "f"]}.get(w)
    return FramedQuiver(loop_quiver(loops), (w,), names)


def vertex_only(w: int) -> FramedQuiver:
    return FramedQuiver(Quiver.make(1, []), (w,))


def framed_an(n: int, w: int) -> FramedQuiver:
    """The linear quiver 0 -> 1 -> ... -> n-1 (arrows a, b, ...) framed w
    at vertex 0; its moduli spaces are partial flag varieties."""
    names = {1: ["f"], 2: ["e", "f"], 3: ["e", "f", "g"]}.get(w)
    arrows = [("abcdefgh"[i], i, i + 1) for i in range(n - 1)]
    return FramedQuiver(Quiver.make(n, arrows), (w,) + (0,) * (n - 1), names)


def framed_a2(w0: int) -> FramedQuiver:
    return framed_an(2, w0)


def roundtrip_fixtures() -> list[tuple[FramedQuiver, DimVector]]:
    """The grid of the bijection roundtrip (acceptance criterion 3)."""
    loops = [
        (framed_loops(m, w), (d,)) for m in (1, 2, 3) for w in (1, 2) for d in range(1, 6)
    ]
    points = [(vertex_only(w), (d,)) for w in range(1, 7) for d in range(1, 5)]
    a2 = [(framed_a2(w), d) for w in (1, 2, 3) for d in product(range(4), repeat=2) if any(d)]
    return loops + points + a2


def _where(fq: FramedQuiver, d: DimVector) -> str:
    return f"{len(fq.base.arrows)} arrows, framing {fq.framing}, d={d}"


# -- checks ------------------------------------------------------------------------


def bijection_roundtrip(rng: Random) -> list[str]:
    """Trees and labels agree in number and the bijection inverts itself."""
    failures = []
    for fq, d in roundtrip_fixtures():
        labels = enumerate_partitions(fq, d)
        for order in (SHORTLEX, LEX):
            where = f"{_where(fq, d)}, {order.kind}"
            trees = enumerate_trees(fq, d, order)
            if len(trees) != len(labels):
                failures.append(f"{where}: {len(trees)} trees, {len(labels)} labels")
            for s in trees:
                lam = tree_to_partition(fq, s, order)
                if partition_to_tree(fq, lam, order).path_set != s.path_set:
                    failures.append(f"{where}: tree {format_tree(fq, s)} moved")
            for lam in labels:
                s = partition_to_tree(fq, lam, order)
                if tree_to_partition(fq, s, order).parts != lam.parts:
                    failures.append(f"{where}: label {format_partition(lam)} moved")
    return failures


def order_independence(rng: Random) -> list[str]:
    """Cell dimensions under either order, the motivic class and the Betti
    numbers all match the sizes of the brute-force labels."""
    failures = []
    for fq, d in roundtrip_fixtures():
        sizes = Counter(lam.size for lam in enumerate_partitions(fq, d))
        want = {fq.hilb_dim(d) - n: count for n, count in sizes.items()}
        if motivic_class(fq, d).as_dict() != want:
            failures.append(f"{_where(fq, d)}: motivic class differs")
        if betti_numbers(fq, d) != sorted((2 * n, c) for n, c in sizes.items()):
            failures.append(f"{_where(fq, d)}: Betti numbers differ")
        for order in (SHORTLEX, LEX):
            got = Counter(cell_dim(fq, s, order) for s in enumerate_trees(fq, d, order))
            if got != want:
                failures.append(f"{_where(fq, d)}, {order.kind}: cell dimensions differ")
    return failures


def q_binomial_oracle(rng: Random) -> list[str]:
    """The no-arrow quiver series is the q-binomial (acceptance criterion 4)."""
    failures = []
    for w in range(8):
        fq = vertex_only(w)
        for d in range(w + 1):
            mot = motivic_class(fq, (d,))
            if mot.as_dict() != gaussian_binomial(w, d).as_dict():
                failures.append(f"w={w} d={d}: {mot} is not the q-binomial")
            if mot.evaluate_at_one() != comb(w, d):
                failures.append(f"w={w} d={d}: {mot.evaluate_at_one()} cells")
    return failures


def flag_parts(w: int, d: DimVector) -> list[int]:
    """The parts w-d_0, d_0-d_1, ..., d_{n-1} of the flag variety's
    q-multinomial; a negative part means the moduli space is empty."""
    return [w - d[0]] + [d[k] - d[k + 1] for k in range(len(d) - 1)] + [d[-1]]


def flag_oracle(rng: Random) -> list[str]:
    """Linear quivers framed at vertex 0: the series is the q-multinomial
    of the partial flag variety, and the tautological monomials of Fl(4)
    base every quotient slice (ROADMAP item 3)."""
    cases = [(2, w, d) for w in (3, 4) for d in product(range(w + 2), repeat=2)]
    cases += [(3, 4, (3, 2, 1)), (3, 5, (4, 2, 1)), (3, 5, (3, 3, 1)), (4, 5, (4, 3, 2, 1))]
    failures = []
    for n, w, d in cases:
        fq = framed_an(n, w)
        mot = motivic_class(fq, d)
        if mot.as_dict() != q_multinomial(flag_parts(w, d)).as_dict():
            failures.append(f"{_where(fq, d)}: {mot} is not the q-multinomial")
    fq, d = framed_an(3, 4), (3, 2, 1)  # Fl(4)
    cells = q_multinomial(flag_parts(4, d)).as_dict()
    for n in range(top_degree(fq, d) + 2):
        report = verify_basis(fq, d, n)
        if not report.independent or report.quotient_dim != cells.get(fq.hilb_dim(d) - n, 0):
            failures.append(f"{_where(fq, d)}, n={n}: {report}")
    return failures


def tautological_basis(rng: Random) -> list[str]:
    """Tautological monomials base every quotient slice (criterion 8)."""
    fixtures = (
        [(vertex_only(w), (d,)) for w in (1, 2, 3, 4) for d in (1, 2)]
        + [(framed_loops(1, w), (d,)) for w in (1, 2) for d in (1, 2, 3)]
        + [(framed_loops(2, 1), (d,)) for d in (1, 2, 3)]
        + [(framed_a2(2), d) for d in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]]
    )
    failures = []
    for fq, d in fixtures:
        sizes = Counter(lam.size for lam in enumerate_partitions(fq, d))
        upper = top_degree(fq, d) + 1  # one past the top: quotient must die
        for n in range(max(upper, 1) + 1):
            report = verify_basis(fq, d, n)
            if not report.independent or report.quotient_dim != sizes[n]:
                failures.append(f"{_where(fq, d)}, n={n}: {report}")
    return failures


def cell_partition(rng: Random) -> list[str]:
    """Random stable reps lie in exactly their classified cell and in no
    degeneracy locus above it (acceptance criterion 10)."""
    failures = []
    for fq, d in [(framed_loops(2, 1), (3,)), (vertex_only(4), (2,))]:
        trees = enumerate_trees(fq, d, SHORTLEX)
        for k in range(100):
            where = f"{_where(fq, d)}, rep {k}"
            m = random_stable_rep(fq, d, rng)
            s = classify(fq, m, SHORTLEX)
            hits = [t for t in trees if in_cell(fq, m, t, SHORTLEX)]
            if [t.path_set for t in hits] != [s.path_set]:
                failures.append(f"{where}: in {len(hits)} cells")
            for t in trees:
                if in_degeneracy_locus(fq, m, t, SHORTLEX) and not tree_leq(SHORTLEX, t, s):
                    failures.append(f"{where}: in the locus of {format_tree(fq, t)}")
    return failures


CHECKS: dict[str, Callable[[Random], list[str]]] = {
    "bijection-roundtrip": bijection_roundtrip,
    "order-independence": order_independence,
    "q-binomial-oracle": q_binomial_oracle,
    "tautological-basis": tautological_basis,
    "cell-partition": cell_partition,
    "flag-oracle": flag_oracle,
}
