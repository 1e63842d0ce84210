"""Shuffle algebra over exact rationals and its framed module quotients.

Graded pieces are block-symmetric polynomials: one variable block per
vertex, invariant under permutations inside each block.  An element is
stored as its monomial-symmetric coordinates, so symmetry holds by
construction.  Shuffle products and kernel slices run in mixed
coordinates, Schur s_lam at loopless vertices and monomial-symmetric m_lam
at looped ones, where each pair of coordinates is one shift of the arrow
numerator: at a loopless block by s_a a_delta = a_{a+delta} (Macdonald,
Symmetric Functions and Hall Polynomials, I.3), with sign
(-1)^(C(d,2)+C(e,2)) and weight d! e! (see shuffle_product).  One
generator, _shifts, yields these shifts pair by pair, undivided:
shuffle_product sums them and divides by the (d, e) denominator once, and
kernel_graded_piece keeps each as a generator, a multiple of the product
that spans the same line.  A kernel slice is only its echelon span in
mixed coordinates.  The tautological monomials verify_basis adds to it are
built in the same coordinates, vertex by vertex, by Pieri's rule: e_l s_mu
sums s_nu over the vertical l-strips nu/mu (Macdonald I (5.17)).  Integer
inputs stay int throughout.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, permutations, product
from math import factorial, prod
from operator import add, mul
from typing import Mapping

from .linalg import Span
from .partitions import MultiPartition, cell_labels, satisfies_phi
from .polys import Coeff, Poly, divide, normal
from .quiver import DimVector, FramedQuiver, Quiver, check_dim, euler_form, unit_vector

Signature = tuple[tuple[int, ...], ...]
Expansion = tuple[tuple[tuple[int, ...], int], ...]  # (partition, coefficient) pairs


class CohaError(ValueError):
    """Violated precondition in a shuffle algebra computation."""


def block_offsets(d: DimVector) -> list[int]:
    return list(accumulate(d, initial=0))[:-1]


def var_name(d: DimVector, index: int) -> str:
    offs = block_offsets(d)
    i = bisect_right(offs, index) - 1  # the last block starting at or before index
    return f"x[{i},{index - offs[i] + 1}]"


def _size(sig: Signature) -> int:
    return sum(map(sum, sig))


def _is_signature(sig, d: DimVector) -> bool:
    """sig holds one weakly decreasing tuple of ints >= 0 of length d_i per vertex."""
    try:
        return tuple(map(len, sig)) == d and all(
            type(x) is int and x >= y for lam in sig for x, y in zip(lam, (*lam[1:], 0)))
    except TypeError:  # sig or a part of it is not a sequence
        return False


def _natural(x, what: str) -> int:
    """x as an int; CohaError unless it is an exact integer >= 0."""
    try:
        x = operator.index(x)
    except TypeError:
        raise CohaError(f"{what} must be an integer") from None
    if x < 0:
        raise CohaError(f"{what} must be non-negative")
    return x


@dataclass(frozen=True)
class SymPoly:
    """Element of one graded piece: dimension vector plus coordinates.

    coords maps a signature, one weakly decreasing tuple of naturals of
    length d_i per vertex, to the coefficient of its orbit sum m_sig.
    Construction normalises d by check_dim, refuses any other signature
    (CohaError), passes each coefficient through polys.normal (a float
    raises TypeError) and drops the zeros, so equal elements have equal
    d and coords.  poly expands the orbits into a polynomial in sum(d)
    variables, blocked per vertex.
    """

    fq: FramedQuiver
    d: DimVector
    coords: Mapping[Signature, Coeff]

    def __post_init__(self):
        object.__setattr__(self, "d", check_dim(self.fq.base, self.d))
        if not all(_is_signature(sig, self.d) for sig in self.coords):
            raise CohaError("signature does not match the dimension vector")
        exact = zip(self.coords, map(normal, self.coords.values()))
        object.__setattr__(self, "coords", {sig: c for sig, c in exact if c})

    @classmethod
    def from_poly(cls, fq: FramedQuiver, d: DimVector, poly: Poly) -> "SymPoly":
        """The element whose polynomial is poly.  poly is block-symmetric iff
        every term has its orbit's coefficient and no orbit is partial."""
        if poly.nvars != sum(d):
            raise CohaError(f"the polynomial has {poly.nvars} variables, d needs {sum(d)}")
        offs = block_offsets(d)
        coords: dict[Signature, Coeff] = {}
        for exp, c in poly.terms.items():
            sig = tuple(tuple(sorted(exp[o : o + di], reverse=True)) for o, di in zip(offs, d))
            if coords.setdefault(sig, c) != c:
                break
        else:
            if len(poly.terms) == sum(prod(map(_orbit_size, sig)) for sig in coords):
                return cls(fq, d, coords)
        raise CohaError("shuffle factors must be symmetric within each vertex block")

    @property
    def poly(self) -> Poly:
        terms = {exp: c for sig, c in self.coords.items() for exp in _orbit(sig)}
        return Poly(sum(self.d), terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero element."""
        return max(map(_size, self.coords), default=-1)

    def is_zero(self) -> bool:
        return not self.coords

    def is_homogeneous(self) -> bool:
        return len(set(map(_size, self.coords))) <= 1

    def format(self) -> str:
        return self.poly.format(lambda i: var_name(self.d, i))

    def __repr__(self):
        return f"SymPoly(d={self.d}, {self.format()})"


def monomial_symmetric(fq: FramedQuiver, d: DimVector, sig: Signature) -> SymPoly:
    """The orbit sum m_sig: the distinct monomials in the block-permutation orbit of sig."""
    sig = tuple(tuple(sorted((_natural(x, "exponent") for x in lam), reverse=True)) for lam in sig)
    return SymPoly(fq, d, {sig: 1})


def unit(fq: FramedQuiver, d: DimVector) -> SymPoly:
    return monomial_symmetric(fq, d, tuple((0,) * di for di in d))


def elementary(fq: FramedQuiver, d: DimVector, i: int, k: int) -> SymPoly:
    """k-th elementary symmetric polynomial of the block at vertex i."""
    d = check_dim(fq.base, d)
    i, k = _natural(i, "vertex"), _natural(k, "elementary degree")
    if i >= len(d):
        raise CohaError(f"vertex {i} out of range")
    if k > d[i]:
        raise CohaError(f"e_{k} undefined for a block of size {d[i]}")
    sig = [(0,) * dj for dj in d]
    sig[i] = (1,) * k + (0,) * (d[i] - k)
    return monomial_symmetric(fq, d, tuple(sig))


def framing_idempotent(fq: FramedQuiver, d: DimVector) -> SymPoly:
    """Product over vertices of (x_{i,1}...x_{i,d_i})^{w_i}."""
    d = check_dim(fq.base, d)
    return monomial_symmetric(fq, d, tuple((w,) * di for w, di in zip(fq.framing, d)))


@lru_cache(maxsize=4096)
def _block_product(a: tuple[int, ...], b: tuple[int, ...]) -> Expansion:
    """Pairs (gam, N) with m_a m_b = sum N m_gam in len(a) variables.

    With a fixed and b running over its orbit (the smaller of the two
    orbits, as the product commutes), the sum a + b sorts to gam count
    times; each of the |orbit a| choices of a sees the same, so
    N |orbit gam| = count |orbit a|, that is N = count |Stab gam| / |Stab a|.
    """
    if _stabiliser_order(a) > _stabiliser_order(b):
        a, b = b, a
    counts = Counter(tuple(sorted(map(add, a, p), reverse=True)) for p in _orbit((b,)))
    sa = _stabiliser_order(a)
    return tuple((gam, n * _stabiliser_order(gam) // sa) for gam, n in counts.items())


@lru_cache(maxsize=64)
def _loopless(q: Quiver) -> tuple[bool, ...]:
    """Which vertices carry no loop: Schur coordinates there, monomial ones elsewhere."""
    looped = {a.source for a in q.arrows if a.source == a.target}
    return tuple(i not in looped for i in range(q.vertex_count))


@lru_cache(maxsize=4096)
def _numerator(q: Quiver, d: DimVector, e: DimVector) -> Poly:
    """The arrow numerator of the shuffle core: the product of (y - x)^(-chi_ij)
    over prefix variables x at vertex i and suffix variables y at j."""
    t = tuple(map(add, d, e))
    n = sum(t)
    offs = block_offsets(t)
    units = [unit_vector(q, i) for i in range(q.vertex_count)]
    out = Poly.const(n, 1)
    for (i, u), (j, v) in product(enumerate(units), repeat=2):
        power = -euler_form(q, u, v)
        if power > 0:
            for r, s in product(range(d[i]), range(e[j])):
                x, y = (Poly.variable(n, k) for k in (offs[i] + r, offs[j] + d[j] + s))
                out = out * (y - x) ** power
    return out


def _staircase(lam: tuple[int, ...]) -> tuple[int, ...]:
    """lam + delta, delta = (k-1, ..., 0) for k = len(lam)."""
    return tuple(map(add, lam, range(len(lam) - 1, -1, -1)))


@lru_cache(maxsize=4096)
def _alternant(block: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(lam - delta, sign) with Alt(x^block) = sign a_lam, lam the sorted
    block; sign 0 when two entries agree."""
    lam = sorted(block, reverse=True)
    if len(set(lam)) < len(lam):
        return (), 0
    sign = -1 if sum(x < y for x, y in combinations(block, 2)) % 2 else 1
    return tuple(x - (len(lam) - 1 - j) for j, x in enumerate(lam)), sign


def _shifts(q: Quiver, d: DimVector, e: DimVector, f: Mapping, g: Mapping):
    """One shift of the arrow numerator N per pair of mixed coordinates, a
    of f over d and b of g over e, in the order of product(f, g): yields the
    pair's shuffle product times the (d, e) denominator, bucketed by
    block-sorted exponent (see shuffle_product).  The pair's weight
    multiplies each bucket once."""
    t = tuple(map(add, d, e))
    loopless = _loopless(q)
    looped = [not ll for ll in loopless]
    blocks = list(zip(block_offsets(t), t, loopless))
    terms = _numerator(q, d, e).terms.items()

    def staircased(p):  # a_i + delta at loopless blocks; c times |orb a_i| at looped ones
        for sig, c in p.items():
            orbits = prod(map(_orbit_size, compress(sig, looped)))
            yield [_staircase(lam) if ll else lam for lam, ll in zip(sig, loopless)], c * orbits

    gs = list(staircased(g))
    for a, ca in staircased(f):
        for b, cb in gs:
            shift = tuple(chain.from_iterable(chain.from_iterable(zip(a, b))))
            buckets: dict[Signature, int] = {}
            for exp, c in terms:
                exp = tuple(map(add, exp, shift))
                key = []
                for o, k, ll in blocks:
                    if ll:
                        lam, sign = _alternant(exp[o : o + k])
                        if not sign:
                            break
                        c *= sign
                    else:
                        lam = tuple(sorted(exp[o : o + k], reverse=True))
                    key.append(lam)
                else:
                    buckets[tuple(key)] = buckets.get(tuple(key), 0) + c
            w = ca * cb  # a looped bucket times |Stab lam| is the coefficient of m_lam
            yield {
                key: c * w * prod(map(_stabiliser_order, compress(key, looped)))
                for key, c in buckets.items()
                if c
            }


def _convert(coords: Mapping[Signature, Coeff], loopless, expand) -> dict[Signature, Coeff]:
    """coords with each loopless block rewritten by expand: _schur_to_monomial
    (mixed to monomial coordinates) or _monomial_to_schur (the inverse)."""
    out: dict[Signature, Coeff] = {}
    for sig, c in coords.items():
        blocks = (expand(lam) if ll else ((lam, 1),) for lam, ll in zip(sig, loopless))
        for combo in product(*blocks):
            key = tuple(lam for lam, _ in combo)
            out[key] = out.get(key, 0) + c * prod(k for _, k in combo)
    return {sig: normal(c) for sig, c in out.items() if c}


def shuffle_product(f: SymPoly, g: SymPoly) -> SymPoly:
    """The shuffle product of graded pieces over d and e, landing in d+e.

    The shuffle sum of f on block prefixes times g on block suffixes times
    the arrow numerator N (first-order poles at loopless blocks) is
    Sym(f g N V_d V_e) / (d! e! V_t), Sym the full symmetrisation (signed
    at loopless blocks), V_k = prod_{p<q} (x_q - x_p) = (-1)^C(k,2) a_delta.
    N is invariant under S_d x S_e, so a looped pair (m_a, m_b) gives
    |orb a| |orb b| Sym(x^a x^b N), and by s_a a_delta = a_{a+delta}
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3) a loopless
    pair (s_a, s_b) gives (-1)^(C(d,2)+C(e,2)) d! e! Sym(x^(a+delta)
    x^(b+delta) N): one shift of N, whose weight d! e! cancels.  Buckets
    of shifted terms by block-sorted exponent lam read off Sym(x^alpha N)
    / V_t: a looped bucket times |Stab lam| is the coefficient of m_lam; a
    loopless one keeps distinct entries, signed by their sort, and is
    (-1)^C(t,2) times that of s_{lam-delta}.  As C(t,2) - C(d,2) - C(e,2)
    = d e, a loopless block signs the result (-1)^(d e) and a looped one
    divides it by d! e!.  f and g enter _shifts through _monomial_to_schur;
    the buckets it yields pair by pair are summed and divided by that (d, e)
    denominator once, and the result leaves through _schur_to_monomial.
    """
    if f.fq != g.fq:
        raise CohaError("elements live over different quivers")
    q = f.fq.base
    loopless = _loopless(q)
    fs, gs = (_convert(p.coords, loopless, _monomial_to_schur) for p in (f, g))
    total: dict[Signature, Coeff] = {}
    for buckets in _shifts(q, f.d, g.d, fs, gs):
        for key, c in buckets.items():
            total[key] = total.get(key, 0) + c
    denominator = prod(
        (-1) ** (x * y) if ll else factorial(x) * factorial(y)
        for x, y, ll in zip(f.d, g.d, loopless)
    )
    mixed = {key: divide(c, denominator) for key, c in total.items() if c}
    t = tuple(map(add, f.d, g.d))
    result = SymPoly(f.fq, t, _convert(mixed, loopless, _schur_to_monomial))
    if result.coords:
        expected = f.degree() + g.degree() - euler_form(q, f.d, g.d)
        homogeneous = f.is_homogeneous() and g.is_homogeneous()
        degree = result.degree()
        if degree > expected or (homogeneous and degree != expected):
            raise AssertionError("shuffle product broke the degree law")
    return result


@lru_cache(maxsize=4096)
def _stabiliser_order(lam: tuple[int, ...]) -> int:
    """|Stab lam| in the symmetric group: the product of multiplicities factorial."""
    return prod(factorial(m) for m in Counter(lam).values())


def _orbit_size(lam: tuple[int, ...]) -> int:
    """The number of distinct permutations of lam."""
    return factorial(len(lam)) // _stabiliser_order(lam)


@lru_cache(maxsize=4096)
def _schur_to_monomial(lam: tuple[int, ...]) -> Expansion:
    """Pairs (mu, K_{lam,mu}) with s_lam = sum K_{lam,mu} m_mu in len(lam) variables.

    By the branching rule s_lam(x_1..x_t) = sum over nu interlacing lam,
    lam[0] >= nu[0] >= lam[1] >= ... >= nu[-1] >= lam[-1], of
    s_nu(x_1..x_{t-1}) x_t^(|lam| - |nu|) (Macdonald, Symmetric Functions
    and Hall Polynomials, I (5.11)).  Read at the weakly decreasing
    exponent mu + (m,), this says K_{lam, mu + (m,)} is the sum of
    K_{nu,mu} over the nu with |lam| - |nu| = m, where mu[-1] >= m.  The
    shorter shapes are cached and shared, and only the mu with
    K_{lam,mu} != 0 ever appear.
    """
    if len(lam) <= 1:
        return ((lam, 1),)
    size = sum(lam)
    out: dict[tuple[int, ...], int] = {}
    for nu in product(*(range(lam[j + 1], lam[j] + 1) for j in range(len(lam) - 1))):
        m = size - sum(nu)
        for mu, k in _schur_to_monomial(nu):
            if mu[-1] >= m:
                out[mu + (m,)] = out.get(mu + (m,), 0) + k
    return tuple(out.items())


@lru_cache(maxsize=4096)
def _monomial_to_schur(mu: tuple[int, ...]) -> Expansion:
    """Pairs (lam, c) with m_mu = sum c s_lam in len(mu) variables.

    s_lam is m_lam plus multiples of m_nu for nu below lam in dominance
    order, so lexicographically below it: peel off the largest lam left,
    with its coefficient c, by subtracting c s_lam, until nothing is left.
    """
    out, rest = [], Counter({mu: 1})
    while rest:
        lam = max(rest)
        c = rest.pop(lam)
        if c:
            out.append((lam, c))
            rest.subtract({nu: c * k for nu, k in _schur_to_monomial(lam) if nu != lam})
    return tuple(out)


# -- graded slices in the monomial symmetric basis --------------------------------


def _partitions_bounded_length(total: int, max_parts: int, cap: int = 0):
    """Weakly decreasing positive tuples summing to total, at most max_parts
    long, with parts at most cap (when cap is positive)."""
    if total == 0:
        yield ()
    elif max_parts:
        for p in range(min(total, cap or total), 0, -1):
            for rest in _partitions_bounded_length(total - p, max_parts - 1, p):
                yield (p,) + rest


def slice_basis(d: DimVector, n: int) -> list[Signature]:
    """Monomial-symmetric basis labels of the degree-n piece over d.

    A label is one partition per vertex (padded to d_i), total size n;
    sorted by the padded signature for a stable column order.  A fresh
    list from the cached table _slice_basis.
    """
    d = tuple(_natural(x, "dimension entry") for x in d)
    return list(_slice_basis(d, _natural(n, "degree")))


@lru_cache(maxsize=4096)
def _slice_basis(d: DimVector, n: int) -> tuple[Signature, ...]:
    """slice_basis(d, n) as a cached tuple, for validated d and n."""
    nv = len(d)

    def rec(i, remaining):
        if i == nv:
            if remaining == 0:
                yield ()
            return
        # the last vertex takes all that remains
        for k in range(remaining + 1) if i < nv - 1 else (remaining,):
            for lam in _partitions_bounded_length(k, d[i]):
                padded = lam + (0,) * (d[i] - len(lam))
                for rest in rec(i + 1, remaining - k):
                    yield (padded,) + rest

    return tuple(sorted(rec(0, n)))


@lru_cache(maxsize=4096)
def _orbit(sig: Signature) -> tuple[tuple[int, ...], ...]:
    """The distinct exponents in the block-permutation orbit of sig."""
    blocks = product(*(set(permutations(lam)) for lam in sig))
    return tuple(tuple(chain.from_iterable(combo)) for combo in blocks)


def _row(coords: Mapping[Signature, Coeff], index: dict[Signature, int]) -> tuple[Coeff, ...]:
    """The coordinates coords over the slice basis whose positions index holds."""
    row = [0] * len(index)
    for sig, c in coords.items():
        j = index.get(sig)
        if j is None:
            raise CohaError("coordinate outside the declared graded slice")
        row[j] = c
    return tuple(row)


@dataclass(frozen=True, eq=False)
class GradedSubspace:
    """Subspace of one graded slice, held as an echelon linalg.Span of its
    mixed coordinates (Schur at loopless vertices, monomial-symmetric at
    looped ones) over the slice basis signatures, whose positions index
    holds.  In these coordinates a kernel generator is one shift of the
    arrow numerator: s_a a_delta = a_{a+delta}, sign (-1)^(C(d,2)+C(e,2)),
    weight d! e! (shuffle_product).  dim is the echelon rank.  Equality is
    identity: two echelon spans of one subspace may differ row by row.
    """

    d: DimVector
    n: int
    basis: tuple[Signature, ...]
    index: dict[Signature, int] = field(repr=False)
    echelon: Span = field(repr=False)
    loopless: tuple[bool, ...]

    @property
    def dim(self) -> int:
        return self.echelon.rank


def kernel_graded_piece(fq: FramedQuiver, d: DimVector, n: int) -> GradedSubspace:
    """Degree-n slice of the kernel of the quotient onto the framed module.

    Spanned by shuffle products f * (idempotent cup g) where the inner
    factor ranges over subdimensions 0 < d' <= d and f, g over the mixed
    bases (e_w s_b = s_{b+w}, e_w m_b = m_{b+w}) in the degrees allowed by
    the degree law.  Each is one shift of the arrow numerator (s_a a_delta
    = a_{a+delta}, sign (-1)^(C(d,2)+C(e,2)), weight d! e!), one _shifts
    call per (d', p), f of degree p.  They stay undivided: a non-zero
    multiple of a row spans the same line, and Span.add stores it primitive
    with a positive pivot.  Kept as their non-zero coordinates, they are
    densified, sparsest first, into one echelon Span of mixed coordinates.
    """
    d, n = check_dim(fq.base, d), _natural(n, "degree")
    q = fq.base
    basis = slice_basis(d, n)
    index = {sig: j for j, sig in enumerate(basis)}
    gens = []
    for dprime in product(*(range(x + 1) for x in d)):
        if all(x == 0 for x in dprime):
            continue
        rest = tuple(a - b for a, b in zip(d, dprime))
        budget = n + euler_form(q, rest, dprime) - sum(map(mul, fq.framing, dprime))
        if budget < 0:
            continue
        for p in range(budget + 1):
            # slice_basis signatures, shifted by the framing or not, are canonical
            shifted = {
                tuple(tuple(x + w for x in lam) for w, lam in zip(fq.framing, sig)): 1
                for sig in _slice_basis(dprime, budget - p)
            }
            for gen in _shifts(q, rest, dprime, dict.fromkeys(_slice_basis(rest, p), 1), shifted):
                if any(_size(sig) != n for sig in gen):
                    raise AssertionError("kernel generator in the wrong degree")
                if gen:
                    gens.append(gen)
    span = Span(len(basis))
    for gen in sorted(gens, key=len):
        span.add(_row(gen, index))
    return GradedSubspace(d, n, tuple(basis), index, span, _loopless(q))


@lru_cache(maxsize=4096)
def _elementary_product(lam: tuple[int, ...], loopless: bool) -> Expansion:
    """Pairs (nu, c) with prod_k e_k^(lam_k - lam_(k+1)) = sum c s_nu in
    len(lam) variables when loopless, sum c m_nu otherwise.

    With l the number of non-zero parts, it is e_l times the product for
    lam - 1^l.  e_l s_mu is the sum of s_nu over the nu that add 1 to l
    distinct rows of mu, a vertical strip (Pieri's rule, Macdonald, Symmetric
    Functions and Hall Polynomials, I (5.17)); e_l m_mu is m_(1^l) m_mu,
    read off _block_product.
    """
    ell = len(lam) - lam.count(0)
    if not ell:
        return ((lam, 1),)
    strip = (1,) * ell + (0,) * (len(lam) - ell)
    out: dict[tuple[int, ...], int] = {}
    for mu, c in _elementary_product(tuple(x - y for x, y in zip(lam, strip)), loopless):
        if loopless:
            rows = combinations(range(len(mu)), ell)
            grown = (tuple(x + (j in js) for j, x in enumerate(mu)) for js in rows)
            terms = ((nu, 1) for nu in grown if all(map(operator.ge, nu, nu[1:])))
        else:
            terms = _block_product(mu, strip)
        for nu, k in terms:
            out[nu] = out.get(nu, 0) + c * k
    return tuple(out.items())


def _tautological(lam: MultiPartition, loopless: tuple[bool, ...]) -> dict[Signature, int]:
    """Mixed coordinates of the tautological monomial of lam: the product of
    the per-vertex expansions of _elementary_product."""
    blocks = map(_elementary_product, lam.parts, loopless)
    return {tuple(nu for nu, _ in combo): prod(c for _, c in combo) for combo in product(*blocks)}


def tautological_monomial(fq: FramedQuiver, lam: MultiPartition) -> SymPoly:
    """Product over vertices and k of e_k to the power lambda_k - lambda_{k+1}.

    Built in mixed coordinates by Pieri's rule (_elementary_product: vertical
    strips at loopless vertices, Macdonald I (5.17)), then expanded to
    monomial coordinates at the loopless blocks through _schur_to_monomial.
    """
    d = lam.shape()
    if not satisfies_phi(fq, d, lam):  # public callers pass labels of their own
        raise CohaError("partition does not label a cell")
    loopless = _loopless(fq.base)
    return SymPoly(fq, d, _convert(_tautological(lam, loopless), loopless, _schur_to_monomial))


@dataclass(frozen=True)
class BasisReport:
    d: DimVector
    n: int
    h_dim: int
    kernel_dim: int
    quotient_dim: int
    partition_count: int
    independent: bool


def verify_basis(fq: FramedQuiver, d: DimVector, n: int) -> BasisReport:
    """Check that tautological monomials base the degree-n quotient slice.

    The quotient dimension (slice minus kernel) must equal the number of
    size-n cell labels, read off the shortlex trees by cell_labels, and the
    tautological monomials of those labels must stay independent modulo
    the kernel slice: each of their rows enlarges the span of the kernel.
    The label rows are built in mixed coordinates by Pieri's rule
    (_tautological, as tautological_monomial but with no expansion to
    monomial coordinates and no phi check, as cell_labels gives labels) and
    go into a copy of the kernel's echelon span.
    """
    d, n = check_dim(fq.base, d), _natural(n, "degree")
    kernel = kernel_graded_piece(fq, d, n)
    h_dim = len(kernel.basis)
    labels = [lam for lam in cell_labels(fq, d) if lam.size == n]
    taut_rows = [_row(_tautological(lam, kernel.loopless), kernel.index) for lam in labels]
    quotient_dim = h_dim - kernel.dim
    span = kernel.echelon.copy()
    independent = quotient_dim == len(labels) and all(map(span.add, taut_rows))
    return BasisReport(d, n, h_dim, kernel.dim, quotient_dim, len(labels), independent)


def top_degree(fq: FramedQuiver, d: DimVector) -> int:
    """Largest label size, -1 without labels; the quotient vanishes strictly
    above it.  Read off the memoised labels that verify_basis reads too."""
    return max((lam.size for lam in cell_labels(fq, d)), default=-1)
