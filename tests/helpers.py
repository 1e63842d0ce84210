"""Polynomial and path helpers that only the tests use (the path tree and
the monomial-axiom search among them), golden tables that more than one
test module reads, and the earlier implementations of the cells, linalg
and shuffle algebra layers kept as oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod
from typing import Mapping

from cohalab.cells import (
    CellError,
    NumericRep,
    Subtree,
    critical_set,
    make_subtree,
    udim,
)
from cohalab.checks import framed_a2, framed_loops, vertex_only
from cohalab.coha import CohaError, SymPoly, block_offsets
from cohalab.linalg import Span, dense, rref
from cohalab.partitions import MultiPartition, satisfies_phi
from cohalab.paths import ROOT, WSHORTLEX, Path, PathOrder, path_target
from cohalab.polys import Poly, det_bareiss
from cohalab.quiver import INF_VERTEX, FramedQuiver, Quiver, euler_form, unit_vector


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


def embed(p: Poly, nvars: int, positions: list[int]) -> Poly:
    """View p in a larger ring, variable i going to slot positions[i]."""
    out = {}
    for exp, c in p.terms.items():
        new = [0] * nvars
        for i, e in enumerate(exp):
            new[positions[i]] = e
        out[tuple(new)] = c
    return Poly(nvars, out)


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


def det_laplace(rows: list[list[Poly]]) -> Poly:
    """Determinant by cofactor expansion along the first row: no pivots,
    no row swaps and no divisions."""
    if len(rows) == 1:
        return rows[0][0]
    out = Poly.zero(rows[0][0].nvars)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        term = entry * det_laplace([r[:j] + r[j + 1 :] for r in rows[1:]])
        out = out - term if j % 2 else out + term
    return out


def is_prefix(u: Path, v: Path) -> bool:
    """True iff u is a right factor of v (u precedes v in the tree order)."""
    return len(u) <= len(v) and v[: len(u)] == u


def children(fq: FramedQuiver, u: Path) -> list[Path]:
    """Paths a.u over arrows a starting at target(u); framing arrows at the root."""
    return [u + (a,) for a in fq.out_arrows[path_target(fq, u)]]


def paths_up_to_length(fq: FramedQuiver, bound: int) -> list[Path]:
    out = [ROOT]
    frontier = [ROOT]
    for _ in range(bound):
        frontier = [c for u in frontier for c in children(fq, u)]
        out.extend(frontier)
    return out


def monomial_axiom_check(
    fq: FramedQuiver, order: PathOrder, length_bound: int
) -> tuple[int, Path, Path] | None:
    """Search for a violation of left-composition stability.

    Scans pairs u < v with a common target, both of length <= length_bound,
    in ascending (key(u), key(v)) order, and arrows in arrow order; returns
    the first (a, u, v) with a.u > a.v, or None.  shortlex and
    weighted-shortlex never produce one.
    """
    pool = order.sort(paths_up_to_length(fq, length_bound))
    for i, u in enumerate(pool):
        tu = path_target(fq, u)
        if tu == INF_VERTEX:
            continue
        for v in pool[i + 1 :]:
            if path_target(fq, v) != tu:
                continue
            for a in fq.out_arrows[tu]:
                if order.compare(u + (a,), v + (a,)) >= 0:
                    return (a, u, v)
    return None


# -- oracles: Gauss-Jordan over Fraction, before elimination went fraction-free ------


def rref_fraction(rows) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form with unit pivots over Fraction; zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]]


def rank_fraction(rows) -> int:
    return len(rref_fraction(rows))


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


def classify_by_restart(fq: FramedQuiver, m: NumericRep, order: PathOrder) -> Subtree:
    """The unique cell label of a stable representation, by greedy growth
    that restarts each step at the least critical path.

    Each step walks the ascending critical list (re-sorted after each
    step) and adjoins the first path whose vector falls outside the span
    of the vectors collected so far at its vertex, while that vertex's
    span is short of d_i.
    """
    if not order.is_monomial:
        raise CellError("classify requires a monomial order (shortlex kinds)")
    spans = [Span(di) for di in m.d]
    chain = [ROOT]
    crit = order.sort(children(fq, ROOT))
    for _ in range(sum(m.d)):
        for idx, v in enumerate(crit):
            i = path_target(fq, v)
            if spans[i].rank < m.d[i] and spans[i].add(m.path_vector(v)):
                break
        else:
            raise CellError("not stable: framing does not generate the representation")
        chain.append(v)
        crit = order.sort(crit[:idx] + crit[idx + 1 :] + children(fq, v))
    return Subtree(tuple(chain))


def in_degeneracy_locus_by_rank(
    fq: FramedQuiver, m: NumericRep, s: Subtree, order: PathOrder
) -> bool:
    """True iff every critical family {vectors at u <= v, same vertex} is
    dependent, each family's rank computed from scratch."""
    crit = critical_set(fq, s, order)
    for v, kv in zip(crit.paths, crit.k):
        family = crit.slices[path_target(fq, v)][:kv] + (v,)
        if rank_fraction([path_vector_from_root(m, u) for u in family]) == kv + 1:
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

    def entry(i: int, k: int) -> int | None:
        """lambda^{(i)}_k with index 0 meaning the +infinity sentinel (None)."""
        if k == 0:
            return None
        parts = lam.parts[i]
        return parts[k - 1] if k <= len(parts) else 0

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
            m = entry(i, d[i] - beta[i])
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


def enumerate_trees_recursive(
    fq: FramedQuiver, d: tuple[int, ...], order: PathOrder
) -> list[Subtree]:
    """All subtrees with per-vertex counts d, ascending in tree order, by
    recursive depth-first extension (one call per adjoined path); each
    critical list is re-sorted instead of updated."""
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
            extend(chain, counts, order.sort(crit[idx + 1 :] + children(fq, v)))
            chain.pop()
            counts[i] -= 1

    extend([ROOT], [0] * fq.vertex_count, order.sort(children(fq, ROOT)))
    return results


# -- golden tables: two-loop closure multiplicities --------------------------------


# closure multiplicities of every equal-dimension pair at two-loop d=3,
# (target, chart): None where no specialization yields pure powers
D3_MULTIPLICITIES = {
    "shortlex": {
        ("f,af,bf", "f,af,bf"): 1,
        ("f,af,aaf", "f,af,aaf"): 1,
        ("f,af,baf", "f,af,baf"): 1,
        ("f,af,baf", "f,bf,abf"): 2,
        ("f,bf,abf", "f,af,baf"): None,
        ("f,bf,abf", "f,bf,abf"): 1,
        ("f,bf,bbf", "f,bf,bbf"): 1,
    },
    "lex": {
        ("f,af,aaf", "f,af,aaf"): 1,
        ("f,af,baf", "f,af,baf"): 1,
        ("f,af,bf", "f,af,bf"): 1,
        ("f,af,bf", "f,bf,abf"): 4,
        ("f,bf,abf", "f,af,bf"): None,
        ("f,bf,abf", "f,bf,abf"): 1,
        ("f,bf,bbf", "f,bf,bbf"): 1,
    },
}


# the same at d=4, where the minors are 2x2 to 4x4: the Laplace step of
# det_bareiss finds a zero column in some and leaves cores of 0x0, 2x2 and
# 3x3 in the others
D4_MULTIPLICITIES = {
    "shortlex": {
        ("f,af,bf,aaf", "f,af,bf,aaf"): 1,
        ("f,af,bf,baf", "f,af,bf,baf"): 1,
        ("f,af,bf,abf", "f,af,bf,abf"): 1,
        ("f,af,bf,abf", "f,af,aaf,baf"): 1,
        ("f,af,bf,bbf", "f,af,bf,bbf"): 1,
        ("f,af,bf,bbf", "f,af,aaf,aaaf"): 2,
        ("f,af,bf,bbf", "f,bf,abf,bbf"): 4,
        ("f,af,aaf,baf", "f,af,bf,abf"): None,
        ("f,af,aaf,baf", "f,af,aaf,baf"): 1,
        ("f,af,aaf,aaaf", "f,af,bf,bbf"): None,
        ("f,af,aaf,aaaf", "f,af,aaf,aaaf"): 1,
        ("f,af,aaf,aaaf", "f,bf,abf,bbf"): 3,
        ("f,af,aaf,baaf", "f,af,aaf,baaf"): 1,
        ("f,af,aaf,baaf", "f,af,baf,abaf"): 1,
        ("f,af,aaf,baaf", "f,bf,abf,aabf"): 3,
        ("f,af,baf,abaf", "f,af,aaf,baaf"): None,
        ("f,af,baf,abaf", "f,af,baf,abaf"): 1,
        ("f,af,baf,abaf", "f,bf,abf,aabf"): 2,
        ("f,af,baf,bbaf", "f,af,baf,bbaf"): 1,
        ("f,af,baf,bbaf", "f,bf,abf,babf"): 2,
        ("f,af,baf,bbaf", "f,bf,bbf,abbf"): 3,
        ("f,bf,abf,bbf", "f,af,bf,bbf"): None,
        ("f,bf,abf,bbf", "f,af,aaf,aaaf"): None,
        ("f,bf,abf,bbf", "f,bf,abf,bbf"): 1,
        ("f,bf,abf,aabf", "f,af,aaf,baaf"): None,
        ("f,bf,abf,aabf", "f,af,baf,abaf"): None,
        ("f,bf,abf,aabf", "f,bf,abf,aabf"): 1,
        ("f,bf,abf,babf", "f,af,baf,bbaf"): None,
        ("f,bf,abf,babf", "f,bf,abf,babf"): 1,
        ("f,bf,abf,babf", "f,bf,bbf,abbf"): 1,
        ("f,bf,bbf,abbf", "f,af,baf,bbaf"): None,
        ("f,bf,bbf,abbf", "f,bf,abf,babf"): None,
        ("f,bf,bbf,abbf", "f,bf,bbf,abbf"): 1,
        ("f,bf,bbf,bbbf", "f,bf,bbf,bbbf"): 1,
    },
    "lex": {
        ("f,af,aaf,aaaf", "f,af,aaf,aaaf"): 1,
        ("f,af,aaf,baaf", "f,af,aaf,baaf"): 1,
        ("f,af,aaf,baf", "f,af,aaf,baf"): 1,
        ("f,af,aaf,baf", "f,af,baf,abaf"): None,
        ("f,af,aaf,bf", "f,af,aaf,bf"): 1,
        ("f,af,aaf,bf", "f,af,baf,bbaf"): None,
        ("f,af,aaf,bf", "f,bf,abf,aabf"): 9,
        ("f,af,baf,abaf", "f,af,aaf,baf"): None,
        ("f,af,baf,abaf", "f,af,baf,abaf"): 1,
        ("f,af,baf,bbaf", "f,af,aaf,bf"): None,
        ("f,af,baf,bbaf", "f,af,baf,bbaf"): 1,
        ("f,af,baf,bbaf", "f,bf,abf,aabf"): None,
        ("f,af,baf,bf", "f,af,baf,bf"): 1,
        ("f,af,baf,bf", "f,af,bf,abf"): 1,
        ("f,af,baf,bf", "f,bf,abf,babf"): None,
        ("f,af,bf,abf", "f,af,baf,bf"): None,
        ("f,af,bf,abf", "f,af,bf,abf"): 1,
        ("f,af,bf,abf", "f,bf,abf,babf"): 5,
        ("f,af,bf,bbf", "f,af,bf,bbf"): 1,
        ("f,af,bf,bbf", "f,bf,abf,bbf"): 4,
        ("f,af,bf,bbf", "f,bf,bbf,abbf"): 2,
        ("f,bf,abf,aabf", "f,af,aaf,bf"): None,
        ("f,bf,abf,aabf", "f,af,baf,bbaf"): None,
        ("f,bf,abf,aabf", "f,bf,abf,aabf"): 1,
        ("f,bf,abf,babf", "f,af,baf,bf"): None,
        ("f,bf,abf,babf", "f,af,bf,abf"): None,
        ("f,bf,abf,babf", "f,bf,abf,babf"): 1,
        ("f,bf,abf,bbf", "f,af,bf,bbf"): None,
        ("f,bf,abf,bbf", "f,bf,abf,bbf"): 1,
        ("f,bf,abf,bbf", "f,bf,bbf,abbf"): 1,
        ("f,bf,bbf,abbf", "f,af,bf,bbf"): None,
        ("f,bf,bbf,abbf", "f,bf,abf,bbf"): None,
        ("f,bf,bbf,abbf", "f,bf,bbf,abbf"): 1,
        ("f,bf,bbf,bbbf", "f,bf,bbf,bbbf"): 1,
    },
}


# -- oracles: the shuffle algebra on expanded polynomials --------------------------


# quivers, dimension vectors and the largest total dimension on which the
# shuffle product is compared with the per-shuffle oracle
SHUFFLE_FIXTURES = [
    ("point-w1", vertex_only(1), [(d,) for d in range(4)], 6),
    ("point-w3", vertex_only(3), [(d,) for d in range(4)], 6),
    ("one-loop", framed_loops(1, 1), [(d,) for d in range(4)], 6),
    ("two-loop", framed_loops(2, 1), [(d,) for d in range(4)], 5),
    ("three-loop", framed_loops(3, 1), [(d,) for d in range(3)], 4),
    ("a2", framed_a2(2), [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 2)], 4),
    (
        "looped-and-loopless",
        FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0), ("l", 0, 0)]), (1, 0)),
        [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)],
        4,
    ),
    (
        "double-arrow",
        FramedQuiver(Quiver.make(2, [("a", 0, 1), ("c", 0, 1)]), (1, 0)),
        [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)],
        4,
    ),
]


def is_block_symmetric(p: Poly, d: tuple[int, ...]) -> bool:
    """Check invariance under the adjacent transpositions of each block."""
    offs = block_offsets(d)
    for i, di in enumerate(d):
        for k in range(di - 1):
            perm = list(range(p.nvars))
            a, b = offs[i] + k, offs[i] + k + 1
            perm[a], perm[b] = perm[b], perm[a]
            if p.permute_vars(perm) != p:
                return False
    return True


def _vandermonde(nvars: int, positions: tuple[int, ...]) -> Poly:
    """prod_{a<b} (x_b - x_a) over the variables at positions."""
    out = Poly.const(nvars, 1)
    for a, b in combinations(positions, 2):
        out = out * (Poly.variable(nvars, b) - Poly.variable(nvars, a))
    return out


def per_shuffle_product(f: SymPoly, g: SymPoly) -> Poly:
    """The shuffle product of graded pieces over d and e, in d+e variables.

    Each shuffle term permutes the unshuffled product of f, g and the
    pair-interaction kernel into place; loopless vertices contribute a
    first-order pole per cross pair, cleared by multiplying every term by
    its complementary Vandermonde factor and dividing the full sum by the
    block Vandermonde at the end.  The division must be exact.
    """
    if f.fq != g.fq:
        raise CohaError("elements live over different quivers")
    q = f.fq.base
    d, e = f.d, g.d
    t = tuple(a + b for a, b in zip(d, e))
    n = sum(t)
    offs = block_offsets(t)
    nv = q.vertex_count

    # embed f (block prefix) and g (block suffix) in the target ring
    f_pos = [offs[i] + r for i in range(nv) for r in range(d[i])]
    g_pos = [offs[i] + d[i] + s for i in range(nv) for s in range(e[i])]
    fp, gp = f.poly, g.poly
    core = embed(fp, n, f_pos) * embed(gp, n, g_pos)

    units = [unit_vector(q, i) for i in range(nv)]
    chi = [[euler_form(q, units[i], units[j]) for j in range(nv)] for i in range(nv)]

    # non-negative kernel exponents multiply into the numerator
    for i in range(nv):
        for j in range(nv):
            power = -chi[i][j]
            if power <= 0:
                continue
            for r in range(d[i]):
                for s in range(e[j]):
                    factor = Poly.variable(n, offs[j] + d[j] + s) - Poly.variable(
                        n, offs[i] + r
                    )
                    core = core * factor**power

    loopless = [i for i in range(nv) if chi[i][i] == 1 and t[i] > 0]

    # the complementary Vandermonde of each shuffle is the shuffled image of
    # the block Vandermondes, so it folds into the core once and for all
    for i in loopless:
        core = core * _vandermonde(n, tuple(offs[i] + p for p in range(d[i])))
        core = core * _vandermonde(n, tuple(offs[i] + d[i] + s for s in range(e[i])))

    total = Poly.zero(n)
    block_choices = [combinations(range(t[i]), d[i]) for i in range(nv)]
    for choice in product(*block_choices):
        perm = list(range(n))
        sign = 1
        for i in range(nv):
            a_set = choice[i]
            in_a = set(a_set)
            b_set = [p for p in range(t[i]) if p not in in_a]
            for p, target_slot in enumerate(a_set):
                perm[offs[i] + p] = offs[i] + target_slot
            for s, target_slot in enumerate(b_set):
                perm[offs[i] + d[i] + s] = offs[i] + target_slot
            if i in loopless:
                inv = sum(1 for a in a_set for b in b_set if b < a)
                if inv % 2:
                    sign = -sign
        term = core.permute_vars(perm)
        total = total + (term if sign == 1 else -term)

    if loopless:
        denom = Poly.const(n, 1)
        for i in loopless:
            denom = denom * _vandermonde(n, tuple(offs[i] + p for p in range(t[i])))
        total = total.exact_div(denom)

    if not is_block_symmetric(total, t):
        raise AssertionError("shuffle product broke block symmetry")
    if not total.is_zero():
        expected = fp.degree() + gp.degree() - euler_form(q, d, e)
        homogeneous = all(
            len({sum(exp) for exp in p.terms}) <= 1 for p in (fp, gp)
        )
        if total.degree() > expected or (homogeneous and total.degree() != expected):
            raise AssertionError("shuffle product broke the degree law")
    return total


def kostka_by_tableaux(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """K_{lam,mu} for every partition mu of len(lam) parts: the semistandard
    tableaux of shape lam with entries 1..len(lam), counted by content."""
    t = len(lam)
    counts: dict[tuple[int, ...], int] = {}

    def fill(r: int, above: tuple[int, ...], content: list[int]):
        if r == t or lam[r] == 0:
            if content == sorted(content, reverse=True):
                counts[tuple(content)] = counts.get(tuple(content), 0) + 1
            return
        for row in combinations_with_replacement(range(t), lam[r]):
            if all(a < b for a, b in zip(above, row)):
                for x in row:
                    content[x] += 1
                fill(r + 1, row, content)
                for x in row:
                    content[x] -= 1

    fill(0, (), [0] * t)
    return counts


def monomial_rows(kernel, rows) -> list[list[int]]:
    """Mixed-coordinate rows of kernel in monomial coordinates, through
    the Kostka numbers counted by tableaux."""
    index = kernel.index
    kostka = {}
    out = []
    for row in rows:
        monomial = [0] * len(index)
        for sig, x in zip(kernel.basis, row):
            if not x:
                continue
            blocks = [
                kostka.setdefault(lam, kostka_by_tableaux(lam)).items() if flag else [(lam, 1)]
                for lam, flag in zip(sig, kernel.loopless)
            ]
            for combo in product(*blocks):
                monomial[index[tuple(mu for mu, _ in combo)]] += x * prod(k for _, k in combo)
        out.append(monomial)
    return out


def canonical_rows(kernel) -> tuple[tuple[int, ...], ...]:
    """The canonical form of a kernel slice: the rref of its echelon rows
    in monomial coordinates.  Equal subspaces give equal rows."""
    rows = (dense(row, len(kernel.basis)) for row in kernel.echelon.rows)
    return tuple(rref(monomial_rows(kernel, rows)))


def poly_cup_product(f: SymPoly, g: SymPoly) -> Poly:
    """The cup product as a product of expanded polynomials."""
    return f.poly * g.poly


def poly_coordinates(p: Poly, d: tuple[int, ...], basis) -> tuple:
    """Coordinates of a symmetric polynomial in the monomial-symmetric basis,
    read off the terms whose blocks are sorted (the orbit representatives)."""
    offs = block_offsets(d)
    index = {sig: j for j, sig in enumerate(basis)}
    out = [0] * len(basis)
    for exp, c in p.terms.items():
        sig = tuple(exp[o : o + di] for o, di in zip(offs, d))
        if all(list(lam) == sorted(lam, reverse=True) for lam in sig):
            if sig not in index:
                raise CohaError("coordinate outside the declared graded slice")
            out[index[sig]] = c
    return tuple(out)


def poly_elementary(d: tuple[int, ...], i: int, k: int) -> Poly:
    """e_k of the block at vertex i, one monomial per k-subset of the block."""
    start, n = block_offsets(d)[i], sum(d)
    terms = {}
    for subset in combinations(range(start, start + d[i]), k):
        terms[tuple(int(p in subset) for p in range(n))] = 1
    return Poly(n, terms)


def poly_tautological_monomial(fq: FramedQuiver, lam: MultiPartition) -> Poly:
    """Product over vertices and k of e_k^(lambda_k - lambda_{k+1}), one
    expanded polynomial factor at a time."""
    d = lam.shape()
    if not satisfies_phi(fq, d, lam):
        raise CohaError("partition does not label a cell")
    result = Poly.const(sum(d), 1)
    for i, parts in enumerate(lam.parts):
        for k in range(1, d[i] + 1):
            power = parts[k - 1] - (parts[k] if k < d[i] else 0)
            for _ in range(power):
                result = result * poly_elementary(d, i, k)
    return result


def oracle_fixtures() -> list[tuple[str, FramedQuiver, list[tuple[int, ...]]]]:
    """Quivers and dimension vectors on which the oracles are compared."""
    a2_11 = FramedQuiver(Quiver.make(2, [("a", 0, 1)]), (1, 1), ["f", "g"])
    a2_dims = list(product(range(4), repeat=2))
    # two vertices that feed each other: both can nominate at one step, and
    # the tree order is not the label order
    two_cycle = FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0)]), (1, 1))
    return [
        ("two-loop", framed_loops(2, 1), [(d,) for d in range(6)]),
        ("a2-w20", framed_a2(2), a2_dims),
        ("a2-w11", a2_11, a2_dims),
        ("point-w4", vertex_only(4), [(d,) for d in range(5)]),
        ("two-cycle", two_cycle, list(product(range(5), repeat=2))),
    ]


def phi_box(fq: FramedQuiver, d: tuple[int, ...]) -> list[MultiPartition]:
    """The box enumerate_partitions filters: per vertex i, the weakly
    decreasing d_i-tuples with parts at most max(0, c(d)_i), labels or not."""
    c = fq.critical_dim_vector(d)
    per_vertex = [
        combinations_with_replacement(range(max(0, c[i]), -1, -1), d[i])
        for i in range(fq.vertex_count)
    ]
    return [MultiPartition(parts) for parts in product(*per_vertex)]


def oracle_orders(fq: FramedQuiver) -> tuple[PathOrder, ...]:
    """shortlex, lex, and a weighted shortlex that differs from both."""
    return (PathOrder.shortlex(), PathOrder.lex(), weighted_orders(fq)[0])


def weighted_orders(fq: FramedQuiver) -> tuple[PathOrder, PathOrder]:
    """Two weighted shortlex orders: weights rising along the arrow order,
    and weights falling along it."""
    n = len(fq.arrows)
    rising = tuple(Fraction(a + 2, 2) for a in range(n))
    falling = tuple(Fraction(n + 1 - a, 3) for a in range(n))
    return PathOrder(WSHORTLEX, rising), PathOrder(WSHORTLEX, falling)
