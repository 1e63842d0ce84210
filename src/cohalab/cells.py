"""Cell labels of non-commutative Hilbert schemes and numeric membership.

A cell label is a finite lower-closed path set (a subtree of the path
tree) with prescribed per-vertex counts.  This module enumerates labels,
computes critical sets and cell dimensions, classifies explicit rational
representations into cells, and tests degeneracy-locus membership, all in
exact arithmetic.  Classification here and the partition-to-tree direction
of the bijection are both greedy growth by grow_subtree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .linalg import Span, rank, vec
from .paths import (
    ROOT,
    Path,
    PathOrder,
    children,
    format_path,
    parent,
    parse_path,
    path_target,
)
from .quiver import INF_VERTEX, DimVector, FramedQuiver, QuiverError, check_dim
from .quiver import parse_number


class CellError(ValueError):
    """Violated precondition in a cell computation."""


@dataclass(frozen=True)
class Subtree:
    """Lower-closed path set, root first, ascending in the defining order."""

    paths: tuple[Path, ...]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)

    def __contains__(self, u: Path):
        return u in self.path_set

    @property
    def path_set(self) -> frozenset:
        return frozenset(self.paths)

    @property
    def nonroot(self) -> tuple[Path, ...]:
        return tuple(u for u in self.paths if u)


def make_subtree(fq: FramedQuiver, order: PathOrder, paths) -> Subtree:
    """Sort, adjoin the root, and check lower-closure."""
    pool = {tuple(p) for p in paths}
    pool.add(ROOT)
    for u in pool:
        if u and parent(u) not in pool:
            raise CellError(
                f"not lower-closed: {format_path(fq, u)} without its parent"
            )
    return Subtree(tuple(order.sort(pool)))


def udim(fq: FramedQuiver, s: Subtree) -> DimVector:
    counts = [0] * fq.vertex_count
    for u in s.nonroot:
        counts[path_target(fq, u)] += 1
    return tuple(counts)


@dataclass(frozen=True)
class CriticalSet:
    """Minimal paths outside a subtree, interleaved with the subtree.

    paths is ascending in the order.  slices[i] is the ascending tuple of
    subtree elements at vertex i, and k[j] counts those below paths[j] at
    its target vertex; the cell dimension is sum(k).  Everything a cell
    needs from the order is a prefix of a slice: the subtree elements at
    vertex i below a critical v there are slices[i][:k_v], so the
    degeneracy family of v is slices[i][:k_v] + (v,).
    """

    paths: tuple[Path, ...]
    k: tuple[int, ...]
    slices: tuple[tuple[Path, ...], ...]


def critical_paths(fq: FramedQuiver, members: frozenset) -> list[Path]:
    out = []
    for u in members:
        for c in children(fq, u):
            if c not in members:
                out.append(c)
    return out


def critical_set(fq: FramedQuiver, s: Subtree, order: PathOrder) -> CriticalSet:
    """One ascending sweep over the subtree and its critical paths.

    The subtree may be stored in another order, so both are sorted
    together once; each critical path then takes as k the length its
    vertex's slice has reached.
    """
    members = s.path_set
    slices: list[list[Path]] = [[] for _ in range(fq.vertex_count)]
    crit, ks = [], []
    for u in order.sort(list(s.nonroot) + critical_paths(fq, members)):
        slice_u = slices[path_target(fq, u)]
        if u in members:
            slice_u.append(u)
        else:
            crit.append(u)
            ks.append(len(slice_u))
    return CriticalSet(tuple(crit), tuple(ks), tuple(map(tuple, slices)))


def cell_dim(fq: FramedQuiver, s: Subtree, order: PathOrder) -> int:
    return sum(critical_set(fq, s, order).k)


def tree_key(order: PathOrder, s: Subtree):
    return tuple(order.key(u) for u in s.paths)


def tree_leq(order: PathOrder, a: Subtree, b: Subtree) -> bool:
    """Tree total order: compare sorted member lists at the first difference."""
    return tree_key(order, a) <= tree_key(order, b)


def adjoin(fq: FramedQuiver, order: PathOrder, crit: list[Path], v: Path) -> list[Path]:
    """The ascending critical list once v joins the tree.

    crit is the ascending critical list without v; the children of v are
    new critical paths and are merged in, so nothing is re-sorted.
    """
    new = sorted(children(fq, v), key=order.key)
    return list(heapq.merge(crit, new, key=order.key))


def grow_subtree(fq: FramedQuiver, order: PathOrder, total: int, accept) -> Subtree | None:
    """Greedy growth from the root by total steps; None when a step stalls.

    Each step walks the ascending critical list and adjoins the first v
    with accept(v, i, seen), where i is the target of v and seen counts
    the critical paths at i before v.  The first True adjoins v, so accept
    may record the choice whenever it returns True.
    """
    chain = [ROOT]
    crit = adjoin(fq, order, [], ROOT)
    for _ in range(total):
        seen = [0] * fq.vertex_count
        for idx, v in enumerate(crit):
            i = path_target(fq, v)
            if accept(v, i, seen[i]):
                break
            seen[i] += 1
        else:
            return None
        chain.append(v)
        crit = adjoin(fq, order, crit[:idx] + crit[idx + 1 :], v)
    return Subtree(tuple(order.sort(chain)))


def enumerate_trees(
    fq: FramedQuiver, d: DimVector, order: PathOrder
) -> list[Subtree]:
    """All subtrees with the given per-vertex counts, ascending in tree order.

    Depth-first extension: grow by one critical element at a time, always
    larger than the last one added, pruning when a vertex count would
    exceed its budget.  Iterating candidates in ascending order yields the
    trees already sorted.
    """
    d = check_dim(fq.base, d)
    if any(x < 0 for x in d):
        raise CellError("dimension vector must be non-negative")
    total = sum(d)
    results: list[Subtree] = []

    def extend(chain: list[Path], counts: list[int], crit: list[Path]):
        if len(chain) - 1 == total:
            results.append(Subtree(tuple(chain)))
            return
        for idx, v in enumerate(crit):
            i = path_target(fq, v)
            if counts[i] >= d[i]:
                continue
            counts[i] += 1
            chain.append(v)
            # later critical elements of the old set stay critical; the
            # children of v are new and all exceed v in any admissible order
            extend(chain, counts, adjoin(fq, order, crit[idx + 1 :], v))
            chain.pop()
            counts[i] -= 1

    extend([ROOT], [0] * fq.vertex_count, adjoin(fq, order, [], ROOT))
    return results


def format_tree(fq: FramedQuiver, s: Subtree) -> str:
    return ",".join(format_path(fq, u) for u in s.nonroot)


def parse_tree(fq: FramedQuiver, order: PathOrder, text: str) -> Subtree:
    parts = [p for p in text.split(",") if p.strip()]
    return make_subtree(fq, order, (parse_path(fq, p) for p in parts))


# -- numeric representations -----------------------------------------------------


@dataclass(frozen=True)
class NumericRep:
    """Stable-candidate framed representation with rational matrices.

    matrices[idx] is the matrix of the framed arrow idx; framing arrows
    (source at the framing vertex, which carries a fixed one-dimensional
    space) get d_target x 1 columns, base arrows i->j get d_j x d_i blocks.
    Matrices are tuples of row tuples of Fractions.
    """

    fq: FramedQuiver
    d: DimVector
    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dim(self.fq.base, self.d)
        if len(self.matrices) != len(self.fq.arrows):
            raise CellError("one matrix per framed arrow required")
        for idx, a in enumerate(self.fq.arrows):
            rows = self.d[a.target]
            cols = 1 if a.source == INF_VERTEX else self.d[a.source]
            m = self.matrices[idx]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise CellError(
                    f"matrix for arrow {a.name!r} must be {rows}x{cols}"
                )

    def path_vector(self, u: Path) -> tuple[Fraction, ...]:
        """The vector of the path: the matrix of its last arrow applied to
        the vector of its parent; the root carries the unit framing vector.
        Memoised per path."""
        if not u:
            return (Fraction(1),)
        v = self._vectors.get(u)
        if v is None:
            w = self.path_vector(u[:-1])
            v = tuple(
                sum((row[j] * w[j] for j in range(len(w))), Fraction(0))
                for row in self.matrices[u[-1]]
            )
            self._vectors[u] = v
        return v


def make_rep(fq: FramedQuiver, d: DimVector, entries) -> NumericRep:
    """Build a NumericRep from {arrow name: rows}; missing arrows are zero."""
    d = check_dim(fq.base, d)
    mats = []
    named = {k: v for k, v in entries.items()}
    for a in fq.arrows:
        rows = d[a.target]
        cols = 1 if a.source == INF_VERTEX else d[a.source]
        block = named.pop(a.name, None)
        if block is None:
            mats.append(tuple((Fraction(0),) * cols for _ in range(rows)))
        else:
            mats.append(tuple(vec(r) for r in block))
    if named:
        raise CellError(f"unknown arrow names in rep: {sorted(named)}")
    return NumericRep(fq, d, tuple(mats))


def classify(fq: FramedQuiver, m: NumericRep, order: PathOrder) -> Subtree:
    """The unique cell label of a stable representation.

    Greedy growth (grow_subtree): adjoin the order-minimal critical path
    whose vector falls outside the span of the vectors collected so far at
    its vertex, while that vertex's span is short of d_i.  Only monomial
    orders make the greedy step valid.
    """
    if not order.is_monomial:
        raise CellError("classify requires a monomial order (shortlex kinds)")
    spans = [Span(di) for di in m.d]

    def accept(v: Path, i: int, seen: int) -> bool:
        return spans[i].rank < m.d[i] and spans[i].add(m.path_vector(v))

    tree = grow_subtree(fq, order, sum(m.d), accept)
    if tree is None:
        raise CellError("not stable: framing does not generate the representation")
    return tree


def in_cell(fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder) -> bool:
    """Exact membership test for the cell of the label s.

    Requires the path vectors over s to form a basis and the representation
    to lie in the degeneracy locus of s: given that basis, a critical v lies
    in the span of the smaller basis vectors at its vertex exactly when its
    critical family is dependent.
    """
    if udim(fq, s) != m.d:
        return False
    spans = [Span(di) for di in m.d]
    for u in s.nonroot:
        if not spans[path_target(fq, u)].add(m.path_vector(u)):
            return False
    return in_degeneracy_locus(fq, m, s, order)


def in_degeneracy_locus(
    fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder
) -> bool:
    """True iff every critical family {vectors at u <= v, same vertex} is dependent."""
    if udim(fq, s) != m.d:
        raise CellError("subtree counts do not match the representation")
    crit = critical_set(fq, s, order)
    for v, kv in zip(crit.paths, crit.k):
        family = crit.slices[path_target(fq, v)][:kv] + (v,)
        if rank([m.path_vector(u) for u in family]) == kv + 1:
            return False
    return True


def random_rep(
    fq: FramedQuiver, d: DimVector, rng: Random, bound: int = 9
) -> NumericRep:
    """Random small-integer representation; not necessarily stable."""
    d = check_dim(fq.base, d)
    mats = []
    for a in fq.arrows:
        rows = d[a.target]
        cols = 1 if a.source == INF_VERTEX else d[a.source]
        mats.append(
            tuple(
                tuple(Fraction(rng.randint(-bound, bound)) for _ in range(cols))
                for _ in range(rows)
            )
        )
    return NumericRep(fq, d, tuple(mats))


def random_stable_rep(
    fq: FramedQuiver, d: DimVector, rng: Random, tries: int = 100
) -> NumericRep:
    order = PathOrder.shortlex()
    for _ in range(tries):
        m = random_rep(fq, d, rng)
        try:
            classify(fq, m, order)
            return m
        except CellError:
            continue
    raise CellError(f"no stable representation found for d={d}")


# -- representation file format ---------------------------------------------------
#
#   rep <d_0> ... <d_{n-1}>
#   matrix <arrowname>
#   <row of rationals p/q>            (d_target rows, d_source columns)
#   framing <vertex> <slot>
#   <one row of d_vertex rationals>   (the column vector of that slot)
#
# Omitted blocks default to zero.


def parse_rep_file(fq: FramedQuiver, text) -> NumericRep:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows: list[list[str]] = [ln.split() for ln in lines if ln]
    if not rows or rows[0][0] != "rep":
        raise QuiverError("representation file must start with a 'rep' line")
    d = check_dim(fq.base, [parse_number(x, int) for x in rows[0][1:]])
    if any(x < 0 for x in d):
        raise QuiverError("dimension entries must be non-negative")

    def block(start: int, count: int) -> list[list[Fraction]]:
        if start + count > len(rows):
            head = " ".join(rows[start - 1])
            raise QuiverError(f"file ends inside block {head!r}")
        return [[parse_number(x) for x in row] for row in rows[start : start + count]]

    entries: dict[str, list[list[Fraction]]] = {}
    pos = 1
    while pos < len(rows):
        head = rows[pos]
        if head[0] == "matrix":
            if len(head) != 2:
                raise QuiverError("expected: matrix <arrowname>")
            name = head[1]
            idx = fq.arrow_index(name)
            a = fq.arrows[idx]
            if a.source == INF_VERTEX:
                raise QuiverError(
                    f"{name!r} is a framing arrow; use a 'framing' block"
                )
            nrows = d[a.target]
            entries[name] = block(pos + 1, nrows)
            pos += 1 + nrows
        elif head[0] == "framing":
            if len(head) != 3:
                raise QuiverError("expected: framing <vertex> <slot>")
            vertex, slot = (parse_number(x, int) for x in head[1:])
            if not 0 <= vertex < fq.vertex_count:
                raise QuiverError(f"framing vertex {vertex} out of range")
            if not 1 <= slot <= fq.framing[vertex]:
                raise QuiverError(f"framing slot {slot} out of range")
            offset = sum(fq.framing[:vertex]) + slot - 1
            name = fq.arrows[offset].name
            (column,) = block(pos + 1, 1)
            entries[name] = [[c] for c in column]
            pos += 2
        else:
            raise QuiverError(f"unknown block {head[0]!r} in representation file")
    return make_rep(fq, d, entries)
