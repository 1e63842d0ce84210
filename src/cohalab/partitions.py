"""Multipartitions labelling cells, and the bijection with subtrees.

A multipartition assigns to each vertex a weakly decreasing tuple of
naturals of length d_i (trailing zeros kept internally, suppressed in
display).  Production labels are read off the shortlex subtrees through
the bijection (cell_labels).  Both directions of the bijection are one
walk of the path tree (cells._walk), counting the critical paths it
passes at each vertex: tree_to_partition asks whether each child is a
member, partition_to_tree whether it joins.  enumerate_partitions
brute-forces the labels from the box-counting condition alone, tested on
raw tuples against a per-box table that satisfies_phi reads as well, and
never touches trees: it is the independent phi oracle of checks.py, the
tests and the benchmark.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .cells import CellError, Subtree, _walk, enumerate_trees
from .paths import Path, PathOrder
from .quiver import DimVector, FramedQuiver, check_dim, parse_number


@dataclass(frozen=True)
class MultiPartition:
    """Per-vertex weakly decreasing tuples, padded with zeros to length d_i."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for lam in self.parts:
            if any(map(operator.lt, lam, lam[1:])):
                raise CellError(f"not weakly decreasing: {lam}")
            if lam and lam[-1] < 0:
                raise CellError("negative part")

    @property
    def size(self) -> int:
        return sum(sum(lam) for lam in self.parts)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(lam) for lam in self.parts)


def make_partition(fq: FramedQuiver, d: DimVector, parts) -> MultiPartition:
    d = check_dim(fq.base, d)
    try:
        parts = [tuple(map(operator.index, lam)) for lam in parts]
    except TypeError:
        raise CellError("partition parts must be integers") from None
    if len(parts) != fq.vertex_count:
        raise CellError("one partition per vertex required")
    padded = []
    for i, lam in enumerate(parts):
        if len(lam) > d[i]:
            raise CellError(f"more than {d[i]} parts at vertex {i}")
        padded.append(lam + (0,) * (d[i] - len(lam)))
    return MultiPartition(tuple(padded))


def satisfies_phi(fq: FramedQuiver, d: DimVector, lam: MultiPartition) -> bool:
    """Condition on a multipartition to label a cell: the phi oracle's filter.

    For every vector b with 0 <= b < d componentwise and b != d, some
    vertex i must satisfy lambda^{(i)}_{d_i - b_i} < c(b)_i, where the
    index-0 entry is treated as +infinity (never smaller than anything).
    """
    d = check_dim(fq.base, d)
    if lam.shape() != d:
        raise CellError("partition shape does not match the dimension vector")
    return _phi_holds(_phi_table(fq, d), lam.parts)


def _phi_holds(table: tuple, parts: tuple[tuple[int, ...], ...]) -> bool:
    """The phi condition on raw per-vertex tuples of the box's shape."""
    for witnesses in table:
        for i, j, c in witnesses:
            if parts[i][j] < c:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _phi_table(fq: FramedQuiver, d: DimVector) -> tuple:
    """Per beta in the box 0 <= beta <= d, beta != d, its possible witnesses.

    Vertex i witnesses beta when parts[i][j] < c(beta)_i with j = d_i -
    beta_i - 1, so beta holds the triples (i, j, c(beta)_i); a vertex with
    beta_i = d_i has the +infinity entry and is left out.  c(beta) does not
    depend on the partition under test, so the table is built once per box.
    """
    table = []
    for beta in product(*(range(x + 1) for x in d)):
        if beta != d:
            c = fq.critical_dim_vector(beta)
            table.append(
                tuple((i, x - b - 1, c[i]) for i, (x, b) in enumerate(zip(d, beta)) if b < x)
            )
    return tuple(table)


def partition_sort_key(lam: MultiPartition):
    """Canonical order: per-vertex reversed tuples, compared across vertices.

    For one-vertex quivers this is exactly the order transported from the
    tree total order through the bijection, independent of the path order.
    """
    return tuple(tuple(reversed(p)) for p in lam.parts)


def enumerate_partitions(fq: FramedQuiver, d: DimVector) -> list[MultiPartition]:
    """All cell labels in the canonical order, by the phi brute force kept
    for checks.py, the tests and the benchmark (production uses cell_labels).

    The bounded box (weakly decreasing tuples at vertex i with parts capped
    by max(0, c(d)_i)) filtered by the phi table on the raw tuples; only
    accepted labels become MultiPartitions.  Never touches trees, so it
    checks them.
    """
    d = check_dim(fq.base, d)
    if any(x < 0 for x in d):
        raise CellError("dimension vector must be non-negative")
    c = fq.critical_dim_vector(d)
    table = _phi_table(fq, d)
    box = (
        combinations_with_replacement(range(max(0, c[i]), -1, -1), d[i])
        for i in range(fq.vertex_count)
    )
    found = [MultiPartition(parts) for parts in product(*box) if _phi_holds(table, parts)]
    found.sort(key=partition_sort_key)
    return found


def tree_to_partition(
    fq: FramedQuiver, s: Subtree, order: PathOrder
) -> MultiPartition:
    """Forward direction of the bijection.

    lambda^{(i)}_{d_i - k} counts the critical paths at vertex i below the
    (k+1)-st subtree element there.  One walk over the children of the
    members (cells._walk), asking whether each is a member, counts the
    critical paths passed at each vertex and records that count at each
    member; reversed, the counts recorded at vertex i are lambda^{(i)}.
    """
    members, passed = s.path_set, [0] * fq.vertex_count
    below: list[list[int]] = [[] for _ in range(fq.vertex_count)]

    def take(c: Path, i: int) -> bool:
        if c in members:
            below[i].append(passed[i])
            return True
        passed[i] += 1
        return False

    _walk(fq, order, take)
    return MultiPartition(tuple(tuple(b[::-1]) for b in below))


def cell_labels(fq: FramedQuiver, d: DimVector) -> list[MultiPartition]:
    """The cell labels of d in the canonical order, one per shortlex subtree
    (sorted: the tree order is not the label order on the two-cycle quiver).

    The labels of one (fq, d) are enumerated once and kept; every call
    returns a fresh list of them, so a verify-basis sweep over the degrees
    of d enumerates the trees of d once.
    """
    return list(_cell_labels(fq, check_dim(fq.base, d)))


@lru_cache(maxsize=64)
def _cell_labels(fq: FramedQuiver, d: DimVector) -> tuple[MultiPartition, ...]:
    order = PathOrder.shortlex()
    labels = (tree_to_partition(fq, s, order) for s in enumerate_trees(fq, d, order))
    return tuple(sorted(labels, key=partition_sort_key))


def partition_to_tree(
    fq: FramedQuiver, lam: MultiPartition, order: PathOrder
) -> Subtree:
    """Inverse direction of the bijection, by one walk of the path tree.

    The walk (cells._walk) meets the children of the growing tree in
    ascending order, counting the critical paths passed at each vertex.
    With beta_i members at vertex i so far, a child there joins exactly
    when i is not full and that count equals lambda^{(i)}_{d_i - beta_i},
    which is what tree_to_partition reads back.  The count grows by one per
    critical path and the next entry is no smaller, so a vertex that is
    still short when the walk ends can never fill: the partition fails the
    labelling condition.
    """
    d = check_dim(fq.base, lam.shape())
    parts, left, passed = lam.parts, list(d), [0] * len(d)

    def take(c: Path, i: int) -> bool:
        n = left[i]
        if n and passed[i] == parts[i][n - 1]:
            left[i] = n - 1
            return True
        passed[i] += 1
        return False

    members = _walk(fq, order, take)
    if any(left):
        raise CellError("partition does not label a cell (construction stalls)")
    return Subtree(members)


def partition_cell_dim(fq: FramedQuiver, d: DimVector, lam: MultiPartition) -> int:
    """Cell dimension from the partition: ambient dimension minus |lambda|."""
    return fq.hilb_dim(d) - lam.size


def format_partition(lam: MultiPartition) -> str:
    """Bracket groups per vertex, trailing zeros suppressed: "[2,1][0]"."""
    groups = []
    for p in lam.parts:
        trimmed = tuple(x for x in p if x != 0)
        groups.append("[" + ",".join(str(x) for x in trimmed) + "]")
    return "".join(groups)


_PARTITION = re.compile(r"(?:\s*\[\s*(?:\d+\s*(?:,\s*\d+\s*)*)?\])+\s*")


def parse_partition(fq: FramedQuiver, d: DimVector, text: str) -> MultiPartition:
    """Exactly ('[' (natural (',' natural)*)? ']')+, whitespace between tokens."""
    if _PARTITION.fullmatch(text) is None:
        raise CellError(f"cannot parse partition {text!r}")
    groups = [re.findall(r"\d+", group) for group in re.findall(r"\[[^\]]*\]", text)]
    return make_partition(fq, d, [[parse_number(x, int) for x in g] for g in groups])
