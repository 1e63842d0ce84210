"""Multipartitions labelling cells, and the bijection with subtrees.

A multipartition assigns to each vertex a weakly decreasing tuple of
naturals of length d_i (trailing zeros kept internally, suppressed in
display).  Membership in the label set is the box-counting condition
checked by satisfies_phi; enumeration works directly from that condition,
independently of any tree enumeration, so the two counts cross-check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product

from .cells import CellError, Subtree, critical_set, grow_subtree
from .paths import Path, PathOrder, path_target
from .quiver import DimVector, FramedQuiver, check_dim


@dataclass(frozen=True)
class MultiPartition:
    """Per-vertex weakly decreasing tuples, padded with zeros to length d_i."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for lam in self.parts:
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise CellError(f"not weakly decreasing: {lam}")
            if lam and lam[-1] < 0:
                raise CellError("negative part")

    @property
    def size(self) -> int:
        return sum(sum(lam) for lam in self.parts)

    def entry(self, i: int, k: int) -> int | None:
        """lambda^{(i)}_k with index 0 meaning the +infinity sentinel (None)."""
        if k == 0:
            return None
        lam = self.parts[i]
        return lam[k - 1] if k <= len(lam) else 0

    def shape(self) -> tuple[int, ...]:
        return tuple(len(lam) for lam in self.parts)


def make_partition(fq: FramedQuiver, d: DimVector, parts) -> MultiPartition:
    d = check_dim(fq.base, d)
    parts = [tuple(int(x) for x in lam) for lam in parts]
    if len(parts) != fq.vertex_count:
        raise CellError("one partition per vertex required")
    padded = []
    for i, lam in enumerate(parts):
        if len(lam) > d[i]:
            raise CellError(f"more than {d[i]} parts at vertex {i}")
        padded.append(lam + (0,) * (d[i] - len(lam)))
    return MultiPartition(tuple(padded))


def satisfies_phi(fq: FramedQuiver, d: DimVector, lam: MultiPartition) -> bool:
    """Condition on a multipartition to label a cell.

    For every vector b with 0 <= b < d componentwise and b != d, some
    vertex i must satisfy lambda^{(i)}_{d_i - b_i} < c(b)_i, where the
    index-0 entry is treated as +infinity (never smaller than anything).
    """
    d = check_dim(fq.base, d)
    if lam.shape() != d:
        raise CellError("partition shape does not match the dimension vector")
    for beta in product(*(range(x + 1) for x in d)):
        if beta == d:
            continue
        c = fq.critical_dim_vector(beta)
        ok = False
        for i in range(fq.vertex_count):
            e = lam.entry(i, d[i] - beta[i])
            if e is not None and e < c[i]:
                ok = True
                break
        if not ok:
            return False
    return True


def partition_sort_key(lam: MultiPartition):
    """Canonical order: per-vertex reversed tuples, compared across vertices.

    For one-vertex quivers this is exactly the order transported from the
    tree total order through the bijection, independent of the path order.
    """
    return tuple(tuple(reversed(p)) for p in lam.parts)


def compare_partitions(lam: MultiPartition, mu: MultiPartition) -> int:
    """-1/0/1; smaller means smaller at the largest index where they differ."""
    if lam.shape() != mu.shape():
        raise CellError("partition shapes differ")
    a, b = partition_sort_key(lam), partition_sort_key(mu)
    return -1 if a < b else (0 if a == b else 1)


def _vertex_partitions(max_part: int, length: int):
    """Weakly decreasing tuples of the given length with parts <= max_part."""
    if length == 0:
        yield ()
        return

    def rec(prefix, remaining, cap):
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(cap, -1, -1):
            prefix.append(p)
            yield from rec(prefix, remaining - 1, p)
            prefix.pop()

    yield from rec([], length, max_part)


def enumerate_partitions(fq: FramedQuiver, d: DimVector) -> list[MultiPartition]:
    """All multipartitions labelling cells, in the canonical order.

    Brute force over the bounded box (first parts at vertex i capped by
    max(0, c(d)_i)) filtered by satisfies_phi.  This path never touches
    trees, giving an independent count for the bijection.
    """
    d = check_dim(fq.base, d)
    c = fq.critical_dim_vector(d)
    per_vertex = [
        list(_vertex_partitions(max(0, c[i]), d[i]))
        for i in range(fq.vertex_count)
    ]
    found = []
    for combo in product(*per_vertex):
        lam = MultiPartition(tuple(combo))
        if satisfies_phi(fq, d, lam):
            found.append(lam)
    found.sort(key=partition_sort_key)
    return found


def tree_to_partition(
    fq: FramedQuiver, s: Subtree, order: PathOrder
) -> MultiPartition:
    """Forward direction of the bijection.

    lambda^{(i)}_{d_i - k} counts the critical elements at vertex i below
    the (k+1)-st subtree element at that vertex.  A critical v at vertex i
    lies below slices[i][k] exactly when k_v <= k, so the entry is the
    number of critical v at vertex i with k_v <= k.
    """
    crit = critical_set(fq, s, order)
    at_k = [[0] * (len(slice_i) + 1) for slice_i in crit.slices]
    for v, kv in zip(crit.paths, crit.k):
        at_k[path_target(fq, v)][kv] += 1
    return MultiPartition(tuple(tuple(accumulate(c[:-1]))[::-1] for c in at_k))


def partition_to_tree(
    fq: FramedQuiver, lam: MultiPartition, order: PathOrder
) -> Subtree:
    """Inverse direction of the bijection, by greedy growth.

    With counts beta adjoined so far, vertex i accepts its critical path
    of index m = lambda^{(i)}_{d_i - beta_i} (counted from 0), and
    grow_subtree adjoins the order-minimal accepted path.  Vertex i has
    exactly c(beta)_i critical paths, so an index m >= c(beta)_i is never
    reached; a full vertex (index 0, the sentinel) accepts nothing.  The
    growth stalls exactly when the partition fails the labelling condition.
    """
    d = lam.shape()
    counts = [0] * fq.vertex_count

    def accept(v: Path, i: int, seen: int) -> bool:
        if seen != lam.entry(i, d[i] - counts[i]):
            return False
        counts[i] += 1
        return True

    tree = grow_subtree(fq, order, sum(d), accept)
    if tree is None:
        raise CellError("partition does not label a cell (construction stalls)")
    return tree


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


def parse_partition(fq: FramedQuiver, d: DimVector, text: str) -> MultiPartition:
    text = text.strip()
    if not text.startswith("["):
        raise CellError(f"cannot parse partition {text!r}")
    groups = []
    for chunk in text.strip("]").split("]"):
        chunk = chunk.lstrip("[")
        try:
            groups.append(tuple(int(x) for x in chunk.split(",") if x.strip()))
        except ValueError:
            raise CellError(f"cannot parse partition {text!r}") from None
    if len(groups) == 1 and fq.vertex_count > 1:
        raise CellError("one bracket group per vertex required")
    return make_partition(fq, d, groups)
