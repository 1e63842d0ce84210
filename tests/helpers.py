"""Polynomial and path helpers that only the tests use, and the earlier
implementations of the cells layer kept as oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

from cohalab.cells import CellError, NumericRep, Subtree, critical_set, make_subtree, udim
from cohalab.checks import framed_a2, framed_loops, vertex_only
from cohalab.linalg import Span
from cohalab.partitions import MultiPartition
from cohalab.paths import ROOT, WSHORTLEX, Path, PathOrder, children, path_target
from cohalab.polys import Poly, det_bareiss
from cohalab.quiver import FramedQuiver, Quiver


def substitute(p: Poly, values: Mapping[int, Poly]) -> Poly:
    """Substitute polynomials for some variables; the rest stay."""
    result = Poly.zero(p.nvars)
    for exp, c in p.terms.items():
        term = Poly.const(p.nvars, c)
        rest = [0] * p.nvars
        for i, e in enumerate(exp):
            if e == 0:
                continue
            if i in values:
                term = term * values[i] ** e
            else:
                rest[i] = e
        term = term * Poly.monomial(p.nvars, tuple(rest))
        result = result + term
    return result


def evaluate(p: Poly, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for exp, c in p.terms.items():
        v = c
        for i, e in enumerate(exp):
            if e:
                v *= point[i] ** e
        total += v
    return total


def var_degree(p: Poly, index: int) -> int:
    """Largest exponent of one variable; -1 for the zero polynomial."""
    if not p.terms:
        return -1
    return max(exp[index] for exp in p.terms)


def minors(rows: list[list[Poly]], size: int) -> list[Poly]:
    """All size x size minors, row sets then column sets in lex order."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    out = []
    for rset in combinations(range(nrows), size):
        for cset in combinations(range(ncols), size):
            sub = [[rows[r][c] for c in cset] for r in rset]
            out.append(det_bareiss(sub))
    return out


def is_prefix(u: Path, v: Path) -> bool:
    """True iff u is a right factor of v (u precedes v in the tree order)."""
    return len(u) <= len(v) and v[: len(u)] == u


# -- oracles: the cells layer before greedy growth was shared ------------------------


def path_vector_from_root(m: NumericRep, u: Path) -> tuple[Fraction, ...]:
    """The vector of the path: matrices applied to the unit framing vector."""
    v = (Fraction(1),)
    for idx in u:
        mat = m.matrices[idx]
        v = tuple(
            sum((row[j] * v[j] for j in range(len(v))), Fraction(0))
            for row in mat
        )
    return v


def in_cell_pairwise(
    fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder
) -> bool:
    """Exact membership test for the cell of the label s.

    Requires the path vectors over s to form a basis and every critical
    vector to lie in the span of the strictly smaller basis vectors at its
    vertex.
    """
    if udim(fq, s) != m.d:
        return False
    spans = [Span(di) for di in m.d]
    for u in s.nonroot:
        if not spans[path_target(fq, u)].add(path_vector_from_root(m, u)):
            return False
    crit = critical_set(fq, s, order)
    for v, kv in zip(crit.paths, crit.k):
        i = path_target(fq, v)
        below = Span(m.d[i])
        for u in crit.slices[i][:kv]:
            below.add(path_vector_from_root(m, u))
        if not below.contains(path_vector_from_root(m, v)):
            return False
    return True


def partition_to_tree_by_nominees(
    fq: FramedQuiver, lam: MultiPartition, order: PathOrder
) -> Subtree:
    """Inverse direction of the bijection, built inductively.

    Maintains a growing tree; at each step, every vertex i whose current
    m-statistic is below c(beta)_i nominates the (m+1)-st element of its
    critical slice, and the order-minimal nominee joins the tree.  Stalls
    exactly when the partition fails the labelling condition.
    """
    d = lam.shape()
    total = sum(d)
    chain: list[Path] = [ROOT]
    counts = [0] * fq.vertex_count
    crit: list[Path] = order.sort(children(fq, ROOT))
    while len(chain) - 1 < total:
        beta = tuple(counts)
        c = fq.critical_dim_vector(beta)
        nominee: Path | None = None
        nominee_vertex = None
        for i in range(fq.vertex_count):
            m = lam.entry(i, d[i] - beta[i])
            if m is None or m >= c[i]:
                continue
            crit_i = [v for v in crit if path_target(fq, v) == i]
            candidate = crit_i[m]
            if nominee is None or order.compare(candidate, nominee) < 0:
                nominee = candidate
                nominee_vertex = i
        if nominee is None:
            raise CellError("partition does not label a cell (construction stalls)")
        chain.append(nominee)
        counts[nominee_vertex] += 1
        crit = order.sort(
            [w for w in crit if w != nominee] + children(fq, nominee)
        )
    tree = make_subtree(fq, order, chain)
    return tree


def oracle_fixtures() -> list[tuple[str, FramedQuiver, list[tuple[int, ...]]]]:
    """Quivers and dimension vectors on which the oracles are compared."""
    a2_11 = FramedQuiver(Quiver.make(2, [("a", 0, 1)]), (1, 1), ["f", "g"])
    a2_dims = list(product(range(4), repeat=2))
    return [
        ("two-loop", framed_loops(2, 1), [(d,) for d in range(6)]),
        ("a2-w20", framed_a2(2), a2_dims),
        ("a2-w11", a2_11, a2_dims),
        ("point-w4", vertex_only(4), [(d,) for d in range(5)]),
    ]


def oracle_orders(fq: FramedQuiver) -> tuple[PathOrder, ...]:
    """shortlex, lex, and a weighted shortlex that differs from both."""
    weights = tuple(Fraction(a + 2, 2) for a in range(len(fq.arrows)))
    return (PathOrder.shortlex(), PathOrder.lex(), PathOrder(WSHORTLEX, weights))
