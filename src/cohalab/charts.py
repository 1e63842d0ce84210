"""Symbolic affine charts, degeneracy minors, and multiplicity extraction.

A chart is labelled by a subtree whose path vectors form a basis; every
other path vector expands in that basis with polynomial coordinates
c[u,v].  Minors of those expansions cut out degeneracy loci, and
specializing the coordinates toward a smaller cell reads off the
multiplicity with which the locus meets its closure.

Each chart is built once per (quiver, tree, order): make_chart is
memoised, and the chart memoises the minors of each critical family it is
asked about.  The minors of a target depend on the chart and on the
target's critical families only, so membership_minors,
multiplicity_power and the charts command share every determinant.  Path
vectors are not kept: the families of one target build their columns
through one memo that lives for that target's minors.  The minors memo
holds tuples, and the public functions hand out fresh lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .cells import CellError, CriticalSet, NumericRep, Subtree, critical_set
from .paths import Path, PathOrder, format_path, parent, path_target
from .polys import Coeff, Poly, det_bareiss, normal
from .quiver import INF_VERTEX, FramedQuiver


def _pair_name(fq: FramedQuiver, pair: tuple[Path, Path]) -> str:
    u, v = pair
    return f"c[{format_path(fq, u)},{format_path(fq, v)}]"


@dataclass(frozen=True)
class Chart:
    """Affine chart of a basis subtree, read off its critical set once.

    coords lists the (basis path, critical path) pairs at a common vertex,
    by vertex, then critical path; var_of indexes them, read-only.  The
    memo _minors (per critical family) holds tuples, so what it hands out
    cannot be changed under the next caller.  vector and minors build path
    vectors through a memo their caller must pass, and drop them with it.
    """

    fq: FramedQuiver
    tree: Subtree
    order: PathOrder
    coords: tuple[tuple[Path, Path], ...]
    crit: CriticalSet = field(compare=False, repr=False)
    var_of: MappingProxyType = field(compare=False, repr=False)
    _minors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def var_index(self, u: Path, v: Path) -> int:
        k = self.var_of.get((u, v))
        if k is None:
            raise CellError(f"{_pair_name(self.fq, (u, v))} is not a chart coordinate")
        return k

    def coord_name(self, index: int) -> str:
        return _pair_name(self.fq, self.coords[index])

    def format_poly(self, p: Poly) -> str:
        return p.format(self.coord_name)

    def vector(self, v: Path, memo: dict) -> tuple[Poly, ...]:
        """Coordinates of the path vector of v in the chart basis at its
        vertex: units on the basis, c[u,v] on critical paths.  Built
        through memo, the caller's dict of the vectors built so far; the
        chart keeps nothing."""
        out = memo.get(v)
        if out is not None:
            return out
        i = path_target(self.fq, v)
        if i == INF_VERTEX:
            raise CellError("path ends at the framing vertex")
        basis = self.crit.slices[i]
        n = self.nvars
        if v in basis:
            out = [Poly.const(n, 1) if u == v else Poly.zero(n) for u in basis]
        elif v in self.crit.paths:
            out = [Poly.variable(n, self.var_of[(u, v)]) for u in basis]
        else:
            u, a = parent(v), v[-1]
            inner = self.vector(u, memo)
            out = [Poly.zero(n) for _ in basis]
            for k, u_k in enumerate(self.crit.slices[path_target(self.fq, u)]):
                if inner[k].is_zero():
                    continue
                column = self.vector(u_k + (a,), memo)
                for j in range(len(out)):
                    if not column[j].is_zero():
                        out[j] = out[j] + inner[k] * column[j]
        memo[v] = out = tuple(out)
        return out

    def minors(self, family: tuple[Path, ...], memo: dict) -> tuple[Poly, ...]:
        """The maximal minors of the columns vector(u), u in family, by row
        set; none when the family outnumbers its vertex's slice.  Memoised
        per family: a critical family slices[i][:k_v] + (v,) of any target
        with this chart's counts.  The columns are built through memo, the
        caller's vector memo, which the chart does not keep."""
        out = self._minors.get(family)
        if out is not None:
            return out
        size = len(family)
        dim = len(self.crit.slices[path_target(self.fq, family[-1])])
        out = ()
        if size <= dim:  # otherwise the rank bound is the ambient dimension
            columns = [self.vector(u, memo) for u in family]
            out = tuple(
                det_bareiss([[column[r] for column in columns] for r in rows])
                for rows in combinations(range(dim), size)
            )
        self._minors[family] = out
        return out


@lru_cache(maxsize=64)
def make_chart(fq: FramedQuiver, s: Subtree, order: PathOrder) -> Chart:
    """The chart of the basis subtree s, one per (fq, s, order) while it
    stays among the 64 most recently used."""
    crit = critical_set(fq, s, order)
    coords = tuple(
        (u, v)
        for i, basis_i in enumerate(crit.slices)
        for v in crit.paths
        if path_target(fq, v) == i
        for u in basis_i
    )
    var_of = MappingProxyType({pair: k for k, pair in enumerate(coords)})
    return Chart(fq, s, order, coords, crit, var_of)


def chart_coordinates(
    fq: FramedQuiver, s: Subtree, order: PathOrder
) -> list[tuple[Path, Path]]:
    """All (basis path, critical path) pairs at a common vertex.

    The count equals the chart dimension, which is the moduli dimension.
    """
    return list(make_chart(fq, s, order).coords)


def symbolic_vector(
    fq: FramedQuiver, s: Subtree, order: PathOrder, v: Path
) -> list[Poly]:
    """Coordinates of the path vector of v in the chart basis at its
    vertex, built through a fresh vector memo."""
    return list(make_chart(fq, s, order).vector(v, {}))


def _target_minors(fq: FramedQuiver, target: CriticalSet, chart: Chart) -> list[Poly]:
    """The minors of membership_minors, from the target's critical set."""
    if [len(b) for b in target.slices] != [len(b) for b in chart.crit.slices]:
        raise CellError("target and chart subtrees have different counts")
    minors, memo = [], {}  # one vector memo for all the target's families
    for v, kv in zip(target.paths, target.k):
        minors += chart.minors(target.slices[path_target(fq, v)][:kv] + (v,), memo)
    return minors


def membership_minors(
    fq: FramedQuiver, target: Subtree, chart_tree: Subtree, order: PathOrder
) -> list[Poly]:
    """Minor equations for membership of chart points in the target locus.

    For every critical path v of the target, the maximal minors of the
    matrix whose columns are the expansions of the family {u < v at the
    same vertex} plus v itself; their common zero locus is the degeneracy
    locus of the target inside the chart.  Ordered by v, then row set.
    """
    chart = make_chart(fq, chart_tree, order)
    return _target_minors(fq, make_chart(fq, target, order).crit, chart)


def multiplicity_power(
    fq: FramedQuiver, target: Subtree, chart_tree: Subtree, order: PathOrder
) -> int | None:
    """Multiplicity of the chart's cell closure inside the target locus.

    Specializes the membership minors along the passage to the chart's
    cell: the cell is cut out by the coordinates c[u,v] with u > v, and
    each such coordinate in turn is kept alive while the others are set to
    zero.  Minors that vanish identically under a specialization impose
    nothing; each survivor must become a single power of the distinguished
    coordinate times a factor in the free coordinates, and the candidate
    multiplicity for that coordinate is the total power.  The result is
    the smallest candidate over the distinguished choices, or None when no
    specialization yields pure powers.  Diagonal pairs give 1.

    One pass over each minor's terms answers every choice: a term using no
    vanishing coordinate survives every specialization with power 0, so
    every choice fails; a term using exactly one survives only when that
    one is kept, at its power; a term using more survives none.
    """
    chart = make_chart(fq, chart_tree, order)
    target_crit = make_chart(fq, target, order).crit
    if sum(target_crit.k) != sum(chart.crit.k):
        raise CellError("multiplicity needs cells of equal dimension")
    minors = _target_minors(fq, target_crit, chart)
    if not minors:
        return 1  # no conditions at all: empty obstruction
    vanishing = [
        k
        for k, (u, v) in enumerate(chart.coords)
        if order.compare(u, v) > 0
    ]
    # each choice's total power so far (0: no survivor yet), None once it fails
    totals: dict[int, int | None] = dict.fromkeys(vanishing, 0)
    for det in minors:
        survivors: dict[int, set[int]] = {}
        for exp in det.terms:
            used = [k for k in vanishing if exp[k]]
            if not used:
                return None
            if len(used) == 1:
                survivors.setdefault(used[0], set()).add(exp[used[0]])
        for star, exps in survivors.items():
            if totals[star] is not None:
                totals[star] = totals[star] + exps.pop() if len(exps) == 1 else None
    return min(filter(None, totals.values()), default=None)


def rep_from_chart(
    fq: FramedQuiver,
    s: Subtree,
    order: PathOrder,
    values: dict[tuple[Path, Path], Fraction],
) -> NumericRep:
    """Reconstruct the representation of a rational chart point.

    Basis paths become unit vectors in their sorted slice; the matrix of
    each arrow sends a basis vector either to the next basis vector or to
    the column of chart values at the corresponding critical path.
    """
    chart = make_chart(fq, s, order)
    for pair in values:
        if pair not in chart.var_of:
            raise CellError(f"{_pair_name(fq, pair)} is not a chart coordinate")
    slices = chart.crit.slices
    d = tuple(map(len, slices))
    position = {u: j for slice_i in slices for j, u in enumerate(slice_i)}

    def column_for(path: Path) -> list[Coeff]:
        # path is one arrow beyond the tree: a basis path or a critical one
        i = path_target(fq, path)
        col = [0] * d[i]
        if path in position:
            col[position[path]] = 1
        else:
            for j, u in enumerate(slices[i]):
                col[j] = normal(values.get((u, path), 0))
        return col

    mats = []
    for idx, a in enumerate(fq.arrows):
        if a.source == INF_VERTEX:
            mats.append(tuple((c,) for c in column_for((idx,))))
        else:
            cols = [column_for(u + (idx,)) for u in slices[a.source]]
            mats.append(tuple(tuple(col[r] for col in cols) for r in range(d[a.target])))
    return NumericRep(fq, d, tuple(mats))
