"""The benchmark's workloads: timed items and the checks on their results.

A workload's set-up takes a freshly imported ``cohalab`` package and the
seed, builds the quivers and inputs, and returns its items in a fixed
order.  An item's ``run`` is the timed call into the package; its
``check`` runs untimed afterwards and returns the problems it found.

basis-sweep and cell-census are fixed ladders and ignore the seed;
cell-membership draws its representations from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Callable


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def loop_quiver(lab, loops: int):
    """m-loop quiver with one framing arrow named f."""
    base = lab.Quiver.make(1, [("abcdefgh"[i], 0, 0) for i in range(loops)])
    return lab.FramedQuiver(base, (1,), ["f"])


def point_quiver(lab, w: int):
    """One vertex, no arrows, framing w: the Grassmannian Gr(d, w)."""
    return lab.FramedQuiver(lab.Quiver.make(1, []), (w,))


# -- basis-sweep ------------------------------------------------------------------

TWO_LOOP_D5_KERNEL = (0, 0, 0, 0, 0, 2, 3, 6, 12, 19, 29, 37)
TWO_LOOP_D6_N12_KERNEL = 44


def basis_sweep(lab, seed: int) -> list[Item]:
    """verify_basis slices: looped (no division) and loopless (Vandermonde,
    exact_div) quivers, consecutive degrees of one quiver, and the two-loop
    d=6 frontier slice."""
    two = loop_quiver(lab, 2)
    point = point_quiver(lab, 7)
    a2 = lab.FramedQuiver(lab.Quiver.make(2, [("a", 0, 1)]), (2, 0))
    ladder = [
        ("two-loop", two, (5,), range(12)),
        ("point-w7", point, (4,), range(14)),
        ("two-loop", two, (6,), [12]),
        ("a2", a2, (2, 1), range(3)),
        ("a2", a2, (2, 2), range(2)),
    ]
    shortlex = lab.PathOrder.shortlex()
    cell_counts: dict[tuple, Counter] = {}

    def cells_by_degree(fq, d) -> Counter:
        # an oracle from tree enumeration, independent of the phi-enumeration
        # that verify_basis uses for its labels
        key = (fq, d)
        if key not in cell_counts:
            top = fq.hilb_dim(d)
            cell_counts[key] = Counter(
                top - lab.cell_dim(fq, s, shortlex)
                for s in lab.enumerate_trees(fq, d, shortlex)
            )
        return cell_counts[key]

    def expected_kernel(label, d, n):
        if label == "two-loop" and d == (5,):
            return TWO_LOOP_D5_KERNEL[n]
        if label == "two-loop" and d == (6,) and n == 12:
            return TWO_LOOP_D6_N12_KERNEL
        return None

    def make_check(label, fq, d, n):
        def check(report) -> list[str]:
            problems = []
            if not report.independent:
                problems.append("tautological monomials are not a basis")
            cells = cells_by_degree(fq, d)[n]
            if report.quotient_dim != cells:
                problems.append(f"quotient_dim {report.quotient_dim} != {cells} cells")
            want = expected_kernel(label, d, n)
            if want is not None and report.kernel_dim != want:
                problems.append(f"kernel_dim {report.kernel_dim} != {want}")
            if label == "point-w7":
                coeff = lab.gaussian_binomial(7, 4).as_dict().get(n, 0)
                if report.quotient_dim != coeff:
                    problems.append(f"quotient_dim {report.quotient_dim} != q-binomial {coeff}")
            return problems

        return check

    return [
        Item(
            f"{label} d={d} n={n}",
            lambda fq=fq, d=d, n=n: lab.verify_basis(fq, d, n),
            make_check(label, fq, d, n),
        )
        for label, fq, d, ns in ladder
        for n in ns
    ]


# -- cell-census ------------------------------------------------------------------


def fuss_catalan(m: int, d: int) -> int:
    """Cells of the m-loop quiver with framing 1 at dimension d (Reineke 2005)."""
    return comb(m * d, d) // ((m - 1) * d + 1)


def cell_census(lab, seed: int) -> list[Item]:
    """Trees, labels, both directions of the bijection and the series, per
    (quiver, d); never touches coha, linalg or polys."""
    orders = (lab.PathOrder.shortlex(), lab.PathOrder.lex())
    ladder = [(2, d) for d in (5, 6, 7)] + [(3, d) for d in (4, 5, 6)]

    def run(fq, d):
        out = {"labels": lab.enumerate_partitions(fq, d)}
        for order in orders:
            trees = lab.enumerate_trees(fq, d, order)
            to_labels = [lab.tree_to_partition(fq, s, order) for s in trees]
            out[order.kind] = {
                "trees": trees,
                "tree_trips": [lab.partition_to_tree(fq, lam, order) for lam in to_labels],
                "to_trees": [lab.partition_to_tree(fq, lam, order) for lam in out["labels"]],
                "dims": [lab.cell_dim(fq, s, order) for s in trees],
            }
            out[order.kind]["label_trips"] = [
                lab.tree_to_partition(fq, s, order) for s in out[order.kind]["to_trees"]
            ]
        out["motivic"] = lab.motivic_class(fq, d)
        out["betti"] = lab.betti_numbers(fq, d)
        return out

    def make_check(fq, m, d):
        def check(out) -> list[str]:
            want = fuss_catalan(m, d[0])
            problems = []
            if len(out["labels"]) != want:
                problems.append(f"{len(out['labels'])} labels != Fuss-Catalan {want}")
            motivic = out["motivic"].as_dict()
            top = fq.hilb_dim(d)
            betti = {top - deg // 2: rank for deg, rank in out["betti"]}
            if betti != motivic:
                problems.append("betti numbers disagree with the motivic class")
            for order in orders:
                r = out[order.kind]
                if len(r["trees"]) != want:
                    problems.append(f"{order.kind}: {len(r['trees'])} trees != {want}")
                if r["tree_trips"] != r["trees"]:
                    problems.append(f"{order.kind}: tree round trip changed a tree")
                if r["label_trips"] != out["labels"]:
                    problems.append(f"{order.kind}: label round trip changed a label")
                if Counter(r["dims"]) != Counter(motivic):
                    problems.append(f"{order.kind}: cell dims != motivic exponents")
            return problems

        return check

    items = []
    for m, dim in ladder:
        fq, d = loop_quiver(lab, m), (dim,)
        items.append(Item(f"{m}-loop d={dim}", lambda fq=fq, d=d: run(fq, d), make_check(fq, m, d)))
    return items


# -- cell-membership ----------------------------------------------------------------

REPS_PER_QUIVER = 20


def cell_membership(lab, seed: int) -> list[Item]:
    """Seeded stable reps classified and tested against every cell, then
    chart minors and closure multiplicities over equal-dimension pairs."""
    rng = Random(seed)
    shortlex, lex = lab.PathOrder.shortlex(), lab.PathOrder.lex()
    two = loop_quiver(lab, 2)
    point = point_quiver(lab, 5)
    items = []

    for label, fq, d in (("two-loop", two, (5,)), ("point-w5", point, (2,))):
        trees = lab.enumerate_trees(fq, d, shortlex)
        for k in range(REPS_PER_QUIVER):
            rep = lab.random_stable_rep(fq, d, rng)
            items.append(Item(
                f"rep {label} d={d} #{k}",
                lambda fq=fq, rep=rep, trees=trees: _classify_rep(lab, fq, rep, trees, shortlex),
                lambda out: _check_rep(lab, shortlex, out),
            ))

    for order, multiplicity in ((shortlex, 2), (lex, 4)):
        trees = lab.enumerate_trees(two, (4,), order)
        dims = [lab.cell_dim(two, s, order) for s in trees]
        pairs = [
            (a, b)
            for a, da in zip(trees, dims)
            for b, db in zip(trees, dims)
            if da == db
        ]
        items.append(Item(
            f"charts two-loop d=4 {order.kind}",
            lambda order=order, pairs=pairs: [
                (a, b, lab.membership_minors(two, a, b, order),
                 lab.multiplicity_power(two, a, b, order))
                for a, b in pairs
            ],
            lambda out, order=order, multiplicity=multiplicity: _check_charts(
                lab, two, order, multiplicity, out),
        ))
    return items


def _classify_rep(lab, fq, rep, trees, order):
    return {
        "cell": lab.classify(fq, rep, order),
        "hits": [s for s in trees if lab.in_cell(fq, rep, s, order)],
        "locus": [s for s in trees if lab.in_degeneracy_locus(fq, rep, s, order)],
    }


def _check_rep(lab, order, out) -> list[str]:
    problems = []
    if out["hits"] != [out["cell"]]:
        problems.append(f"{len(out['hits'])} in_cell hits, expected only the classified cell")
    if not all(lab.tree_leq(order, s, out["cell"]) for s in out["locus"]):
        problems.append("a degeneracy locus lies above the classified cell")
    return problems


# d=3 pairs of the worked example: closure multiplicity 2 under shortlex, 4 under lex
D3_PAIRS = {"shortlex": ("f,af,baf", "f,bf,abf"), "lex": ("f,af,bf", "f,bf,abf")}


def _check_charts(lab, fq, order, multiplicity, out) -> list[str]:
    problems = [
        "diagonal multiplicity is not 1"
        for a, b, _, power in out
        if a == b and power != 1
    ]
    target, chart = (lab.parse_tree(fq, order, t) for t in D3_PAIRS[order.kind])
    got = lab.multiplicity_power(fq, target, chart, order)
    if got != multiplicity:
        problems.append(f"d=3 multiplicity {got} != {multiplicity}")
    return problems


WORKLOADS = {
    "basis-sweep": basis_sweep,
    "cell-census": cell_census,
    "cell-membership": cell_membership,
}
