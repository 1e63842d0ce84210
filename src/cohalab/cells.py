"""Cell labels of non-commutative Hilbert schemes and numeric membership.

A cell label is a finite lower-closed path set (a subtree of the path
tree) with prescribed per-vertex counts.  This module enumerates labels,
computes critical sets and cell dimensions, classifies explicit rational
representations into cells, and tests degeneracy-locus membership, all in
exact arithmetic.  The non-root members and the critical paths of a
subtree are together exactly the children of its members, so every tree
question is one walk (_walk) that meets those children in ascending
order and asks once whether each joins: make_subtree, critical_set,
cell_dim, in_cell, in_degeneracy_locus and partitions.tree_to_partition
ask whether it is a member (the membership tests also test each critical
path against the members passed at its vertex), classify and
partitions.partition_to_tree whether it joins the label they grow.  One
rule (adjoin) places the children of a path among the paths still to
meet, and enumerate_trees backtracks over the critical lists it keeps,
so nothing is sorted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .linalg import Span, Vector, vec
from .paths import (
    LEX,
    ROOT,
    SHORTLEX,
    Path,
    PathOrder,
    format_path,
    parent,
    parse_path,
    validate_path,
)
from .quiver import INF_VERTEX, DimVector, FramedQuiver, QuiverError, check_dim
from .quiver import parse_number, _utf8_text


class CellError(ValueError):
    """Violated precondition in a cell computation."""


@dataclass(frozen=True)
class Subtree:
    """Lower-closed path set, root first, ascending in the defining order."""

    paths: tuple[Path, ...]

    @property
    def path_set(self) -> frozenset:
        return frozenset(self.paths)

    @property
    def nonroot(self) -> tuple[Path, ...]:
        return tuple(u for u in self.paths if u)


def make_subtree(fq: FramedQuiver, order: PathOrder, paths) -> Subtree:
    """Check each path, adjoin the root, and check lower-closure: the walk
    from the root meets the pool ascending, and reaches all of it exactly
    when it is lower-closed."""
    pool = {validate_path(fq, tuple(p)) for p in paths}
    pool.add(ROOT)
    members = _walk(fq, order, lambda c, i: c in pool)
    if len(members) < len(pool):
        u = next(u for u in pool if u and parent(u) not in pool)
        raise CellError(f"not lower-closed: {format_path(fq, u)} without its parent")
    return Subtree(members)


def udim(fq: FramedQuiver, s: Subtree) -> DimVector:
    counts, targets = [0] * fq.vertex_count, fq.targets
    for u in s.nonroot:
        counts[targets[u[-1]]] += 1
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


def critical_set(fq: FramedQuiver, s: Subtree, order: PathOrder) -> CriticalSet:
    """One walk over the children of the members (_walk), asking whether
    each is a member: a member joins its vertex's slice, and any other
    child is critical and takes as k the length its vertex's slice has
    reached.

    The set is rebuilt on each call and never stored on the Subtree: on
    the three-loop quiver at d=6, the critical sets of the 8,568 trees a
    cell census holds at once take 12.7 MB (tracemalloc), against a peak
    resident size of 27.2 MB for the whole census.
    """
    members = s.path_set
    slices: list[list[Path]] = [[] for _ in range(fq.vertex_count)]
    crit, ks = [], []

    def take(c: Path, i: int) -> bool:
        if c in members:
            slices[i].append(c)
            return True
        crit.append(c)
        ks.append(len(slices[i]))
        return False

    _walk(fq, order, take)
    return CriticalSet(tuple(crit), tuple(ks), tuple(map(tuple, slices)))


def cell_dim(fq: FramedQuiver, s: Subtree, order: PathOrder) -> int:
    """The cell dimension sum(critical_set(fq, s, order).k), from the same
    walk: each critical path adds the members already passed at its vertex."""
    members, passed, dim = s.path_set, [0] * fq.vertex_count, 0

    def take(c: Path, i: int) -> bool:
        nonlocal dim
        if c in members:
            passed[i] += 1
            return True
        dim += passed[i]
        return False

    _walk(fq, order, take)
    return dim


def tree_key(order: PathOrder, s: Subtree):
    """The member keys ascending, whatever order s was stored under."""
    return tuple(sorted(map(order.key, s.paths)))


def tree_leq(order: PathOrder, a: Subtree, b: Subtree) -> bool:
    """Tree total order: compare sorted member lists at the first difference."""
    return tree_key(order, a) <= tree_key(order, b)


def _walk(fq: FramedQuiver, order: PathOrder, take) -> tuple[Path, ...]:
    """The lower-closed set grown from the root by take, ascending.

    Meets the children of the members in ascending order and asks
    take(c, i) once whether the child c, at vertex i, joins; the children
    of a child that joins are met in their turn.  Shortlex runs breadth
    first, the members list being the queue; the other orders keep the
    children still to meet in one ascending frontier, where adjoin places
    the children of each new member.  The members come out ascending.
    """
    out_arrows, targets = fq.out_arrows, fq.targets
    members = [ROOT]
    if order.kind == SHORTLEX:
        for u in members:  # the loop also reaches the members it appends
            for a in out_arrows[targets[u[-1]] if u else INF_VERTEX]:
                c = u + (a,)
                if take(c, targets[a]):
                    members.append(c)
        return tuple(members)
    frontier = adjoin(order, [], -1, [(a,) for a in out_arrows[INF_VERTEX]])
    for j, c in enumerate(frontier):  # the loop also reaches what adjoin inserts
        i = targets[c[-1]]
        if take(c, i):
            members.append(c)
            adjoin(order, frontier, j, [c + (a,) for a in out_arrows[i]])
    return tuple(members)


def adjoin(order: PathOrder, frontier: list[Path], j: int, kids: list[Path]) -> list[Path]:
    """Place kids, the children of frontier[j] in arrow order, into the
    ascending frontier, in place, and return it.

    The paths up to j precede the kids, and each path above j has a parent
    that precedes frontier[j].  So under shortlex the kids follow every
    path above j, under lex (they extend frontier[j]) they precede them
    all, and weighted shortlex inserts each kid at its place by bisection.
    With j = -1, enumerate_trees adjoins the children of its new critical
    path v to the critical paths above v.
    """
    if order.kind == SHORTLEX:
        frontier.extend(kids)
    elif order.kind == LEX:
        frontier[j + 1 : j + 1] = kids
    else:
        for c in kids:
            bisect.insort(frontier, c, lo=j + 1, key=order.key)
    return frontier


def enumerate_trees(
    fq: FramedQuiver, d: DimVector, order: PathOrder
) -> list[Subtree]:
    """All subtrees with the given per-vertex counts, ascending in tree order.

    Depth-first extension: grow by one critical element at a time, always
    larger than the last one added, pruning when a vertex count would
    exceed its budget.  Iterating candidates in ascending order yields the
    trees already sorted.  Each critical list is the part of its parent's
    above the adjoined path v, with the children of v placed by adjoin.
    The search keeps its own stack, one frame per adjoined path, so the
    depth is not bounded by the interpreter's recursion limit.
    """
    d = check_dim(fq.base, d)
    if any(x < 0 for x in d):
        raise CellError("dimension vector must be non-negative")
    total = sum(d)
    if total == 0:
        return [Subtree((ROOT,))]
    out_arrows, targets = fq.out_arrows, fq.targets
    results: list[Subtree] = []
    chain, counts = [ROOT], [0] * fq.vertex_count
    # frame: the critical list of chain and the iterator over its candidates
    root_crit = adjoin(order, [], -1, [(a,) for a in out_arrows[INF_VERTEX]])
    stack = [(root_crit, enumerate(root_crit))]
    while stack:
        crit, candidates = stack[-1]
        for idx, v in candidates:
            i = targets[v[-1]]
            if counts[i] < d[i]:
                break
        else:
            stack.pop()
            u = chain.pop()
            if u:
                counts[targets[u[-1]]] -= 1
            continue
        if len(chain) == total:
            results.append(Subtree((*chain, v)))
            continue
        counts[i] += 1
        chain.append(v)
        # later critical elements of the old set stay critical; the
        # children of v are new and all exceed v in any admissible order
        new_crit = adjoin(order, crit[idx + 1 :], -1, [v + (a,) for a in out_arrows[i]])
        stack.append((new_crit, enumerate(new_crit)))
    return results


def format_tree(fq: FramedQuiver, s: Subtree) -> str:
    return ",".join(format_path(fq, u) for u in s.nonroot)


def parse_tree(fq: FramedQuiver, order: PathOrder, text: str) -> Subtree:
    parts = [p for p in text.split(",") if p.strip()]
    return make_subtree(fq, order, (parse_path(fq, p) for p in parts))


# -- numeric representations -----------------------------------------------------


def _block_shape(a, d: DimVector) -> tuple[int, int]:
    """(rows, columns) of arrow a's matrix over d; a framing arrow has one column."""
    return d[a.target], 1 if a.source == INF_VERTEX else d[a.source]


@dataclass(frozen=True)
class NumericRep:
    """Stable-candidate framed representation with rational matrices.

    matrices[idx] is the matrix of the framed arrow idx; framing arrows
    (source at the framing vertex, which carries a fixed one-dimensional
    space) get d_target x 1 columns, base arrows i->j get d_j x d_i blocks.
    d is stored as check_dim normalises it, a tuple of ints.  Matrices are
    tuples of row tuples of exact numbers, int where integral; an entry
    that is neither an int nor a Fraction raises TypeError.
    """

    fq: FramedQuiver
    d: DimVector
    matrices: tuple[tuple[Vector, ...], ...]
    _vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d", check_dim(self.fq.base, self.d))
        if len(self.matrices) != len(self.fq.arrows):
            raise CellError("one matrix per framed arrow required")
        for a, m in zip(self.fq.arrows, self.matrices):
            rows, cols = _block_shape(a, self.d)
            if len(m) != rows or any(len(r) != cols for r in m):
                raise CellError(
                    f"matrix for arrow {a.name!r} must be {rows}x{cols}"
                )
            inexact = [x for r in m for x in r if not isinstance(x, (int, Fraction))]
            if inexact:
                raise TypeError(f"inexact entry {inexact[0]!r} for arrow {a.name!r}")

    def path_vector(self, u: Path) -> Vector:
        """The vector of the path: the matrix of its last arrow applied to
        the vector of its parent; the root carries the unit framing vector.
        Memoised per path."""
        if not u:
            return (1,)
        v = self._vectors.get(u)
        if v is None:
            w = self.path_vector(u[:-1])
            v = tuple(
                sum(row[j] * w[j] for j in range(len(w)))
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
        rows, cols = _block_shape(a, d)
        block = named.pop(a.name, None)
        if block is None:
            mats.append(tuple((0,) * cols for _ in range(rows)))
        else:
            mats.append(tuple(vec(r) for r in block))
    if named:
        raise CellError(f"unknown arrow names in rep: {sorted(named)}")
    return NumericRep(fq, d, tuple(mats))


def classify(fq: FramedQuiver, m: NumericRep, order: PathOrder) -> Subtree:
    """The unique cell label of a stable representation.

    One walk (_walk) from the root: a child joins when its vertex i is
    short of d_i and its vector falls outside the span of the vectors
    collected so far at i.  A rejected child stays rejected, as its vertex
    stays full or its vector inside a span that only grows, so meeting
    each child once, in ascending order, grows the greedy label.  Only
    monomial orders make the greedy step valid.
    """
    if not order.is_monomial:
        raise CellError("classify requires a monomial order (shortlex kinds)")
    d, spans = m.d, [Span(di) for di in m.d]

    def take(c: Path, i: int) -> bool:
        return spans[i].rank < d[i] and spans[i].add(m.path_vector(c))

    members = _walk(fq, order, take)
    if len(members) <= sum(d):
        raise CellError("not stable: framing does not generate the representation")
    return Subtree(members)


def in_cell(fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder) -> bool:
    """Exact membership test for the cell of the label s: the counts of s
    are those of m, the path vectors over s form a basis, and m lies in the
    degeneracy locus of s.  Given that basis, a critical v lies in the span
    of the smaller basis vectors at its vertex exactly when its critical
    family is dependent, so one walk (_membership_walk) tests both."""
    return udim(fq, s) == m.d and _membership_walk(fq, m, s, order, basis=True)


def in_degeneracy_locus(
    fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder
) -> bool:
    """True iff every critical family {vectors at u <= v, same vertex} is
    dependent, in one walk (_membership_walk)."""
    if udim(fq, s) != m.d:
        raise CellError("subtree counts do not match the representation")
    return _membership_walk(fq, m, s, order, basis=False)


def _membership_walk(
    fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder, basis: bool
) -> bool:
    """One walk (_walk) over the children of the members of s, one Span per
    vertex.  A member's vector joins its vertex's span when the walk meets
    it, while the members met there are independent (free).  The walk
    meets children ascending, so the span at a critical v holds the family
    of v but for v itself: the members below v at its vertex.  A member
    that fails to enlarge its span makes every later family there
    dependent; otherwise the family is dependent exactly when v lies in
    the span.  take expands nothing more once the answer is settled: at
    the first independent family, with basis at the first dependent
    member, and for the locus test once no vertex is free.
    """
    members, spans = s.path_set, [Span(di) for di in m.d]
    free = [True] * len(m.d)
    answer = None

    def take(c: Path, i: int) -> bool:
        nonlocal answer
        if answer is not None:
            return False
        if c not in members:
            if free[i] and not spans[i].contains(m.path_vector(c)):
                answer = False  # an independent family
            return False
        if free[i]:
            free[i] = spans[i].add(m.path_vector(c))
            if not free[i] and (basis or not any(free)):
                answer = not basis  # no basis; or, no vertex left free
        return answer is None

    _walk(fq, order, take)
    return answer is not False


def random_rep(
    fq: FramedQuiver, d: DimVector, rng: Random, bound: int = 9
) -> NumericRep:
    """Random small-integer representation; not necessarily stable."""
    d = check_dim(fq.base, d)
    mats = []
    for a in fq.arrows:
        rows, cols = _block_shape(a, d)
        mats.append(
            tuple(
                tuple(rng.randint(-bound, bound) for _ in range(cols))
                for _ in range(rows)
            )
        )
    return NumericRep(fq, d, tuple(mats))


def random_stable_rep(fq: FramedQuiver, d: DimVector, rng: Random) -> NumericRep:
    order = PathOrder.shortlex()
    for _ in range(100):
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
    text = _utf8_text(text)
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
            value = block(pos + 1, nrows)
            size = 1 + nrows
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
            value = [[c] for c in column]
            size = 2
        else:
            raise QuiverError(f"unknown block {head[0]!r} in representation file")
        if name in entries:
            raise QuiverError(f"repeated block for arrow {name!r}")
        entries[name] = value
        pos += size
    return make_rep(fq, d, entries)
