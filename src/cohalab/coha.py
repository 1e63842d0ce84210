"""Shuffle algebra over exact rationals and its framed module quotients.

Graded pieces are block-symmetric polynomials: one variable block per
vertex, invariant under permutations inside each block.  An element is
stored as its monomial-symmetric coordinates, the ones the kernel slices
consume, so symmetry holds by construction.  Cup products multiply
monomial-symmetric functions block by block.  The shuffle product is a
shuffle sum whose kernel factors carry first-order poles on loopless
vertices.  Its unshuffled core never expands f or g: the kernel factor
K V_d V_e is invariant under S_d x S_e at looped blocks and alternating at
loopless ones, so under the full (signed) symmetrisation every monomial
of an orbit sum m_a contributes what its orbit representative x^a does,
and the core is one shift of the cached kernel factor per pair of
coordinates, weighted by both orbit sizes.  One pass over the core sums
each orbit back into coordinates, loopless blocks through Schur
coordinates (the bialternant formula absorbs the Vandermonde denominator),
expanded into monomial-symmetric ones by tables built bottom-up from the
branching rule.  Nothing is permuted per shuffle, the only polynomial
products build the kernel factor once per (quiver, d, e), and the only
division is the one by d! e! per coordinate.  Integer inputs stay int
throughout.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, permutations, product
from math import comb, factorial, prod
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

    coords maps a signature, one weakly decreasing exponent tuple of length
    d_i per vertex, to the coefficient of its orbit sum m_sig; zero
    coefficients are never stored, so equal elements have equal coords.
    poly expands the orbits into a polynomial in sum(d) variables, blocked
    per vertex.
    """

    fq: FramedQuiver
    d: DimVector
    coords: Mapping[Signature, Coeff]

    @classmethod
    def from_poly(cls, fq: FramedQuiver, d: DimVector, poly: Poly) -> "SymPoly":
        """The element whose polynomial is poly.  poly is block-symmetric iff
        every term has its orbit's coefficient and no orbit is partial."""
        offs = block_offsets(d)
        coords: dict[Signature, Coeff] = {}
        for exp, c in poly.terms.items():
            sig = tuple(tuple(sorted(exp[o : o + di], reverse=True)) for o, di in zip(offs, d))
            if coords.setdefault(sig, c) != c:
                break
        else:
            if len(poly.terms) == sum(len(_orbit(sig)) for sig in coords):
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

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._check_compatible(other)
        out = dict(self.coords)
        for sig, c in other.coords.items():
            out[sig] = out.get(sig, 0) + c
        return SymPoly(self.fq, self.d, {sig: c for sig, c in out.items() if c})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __neg__(self) -> "SymPoly":
        return self.scale(-1)

    def scale(self, c) -> "SymPoly":
        c = normal(c)
        return SymPoly(self.fq, self.d, {sig: c * v for sig, v in self.coords.items() if c})

    def _check_compatible(self, other: "SymPoly"):
        if self.fq != other.fq:
            raise CohaError("elements live over different quivers")
        if self.d != other.d:
            raise CohaError("dimension vectors differ")

    def format(self) -> str:
        return self.poly.format(lambda i: var_name(self.d, i))

    def __repr__(self):
        return f"SymPoly(d={self.d}, {self.format()})"


def monomial_symmetric(fq: FramedQuiver, d: DimVector, sig: Signature) -> SymPoly:
    """The orbit sum m_sig: the distinct monomials in the block-permutation orbit of sig."""
    d = check_dim(fq.base, d)
    if tuple(map(len, sig)) != d:
        raise CohaError("signature does not match the dimension vector")
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


def cup_product(f: SymPoly, g: SymPoly) -> SymPoly:
    """Ordinary polynomial product within one graded piece, block by block
    in monomial-symmetric coordinates."""
    f._check_compatible(g)
    out: dict[Signature, Coeff] = {}
    for a, ca in f.coords.items():
        for b, cb in g.coords.items():
            for combo in product(*map(_block_product, a, b)):
                sig = tuple(gam for gam, _ in combo)
                out[sig] = out.get(sig, 0) + ca * cb * prod(k for _, k in combo)
    return SymPoly(f.fq, f.d, {sig: c for sig, c in out.items() if c})


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


def _vandermonde(nvars: int, positions: tuple[int, ...]) -> Poly:
    out = Poly.const(nvars, 1)
    for a, b in combinations(positions, 2):
        out = out * (Poly.variable(nvars, b) - Poly.variable(nvars, a))
    return out


@lru_cache(maxsize=4096)
def _kernel_factor(q: Quiver, d: DimVector, e: DimVector) -> tuple[Poly, tuple[bool, ...]]:
    """The factor of the shuffle core that f, g leave alone; the loopless blocks of d+e."""
    t = tuple(a + b for a, b in zip(d, e))
    n = sum(t)
    offs = block_offsets(t)
    nv = q.vertex_count
    units = [unit_vector(q, i) for i in range(nv)]
    chi = [[euler_form(q, units[i], units[j]) for j in range(nv)] for i in range(nv)]
    out = Poly.const(n, 1)

    # non-negative kernel exponents multiply into the numerator
    for i in range(nv):
        for j in range(nv):
            power = -chi[i][j]
            if power <= 0:
                continue
            for r in range(d[i]):
                for s in range(e[j]):
                    x, y = (Poly.variable(n, k) for k in (offs[i] + r, offs[j] + d[j] + s))
                    out = out * (y - x) ** power

    loopless = tuple(chi[i][i] == 1 and t[i] > 0 for i in range(nv))

    # the complementary Vandermonde of each shuffle is the shuffled image of
    # the block Vandermondes, so it folds into the core once and for all
    for i in range(nv):
        if loopless[i]:
            out = out * _vandermonde(n, tuple(range(offs[i], offs[i] + d[i])))
            out = out * _vandermonde(n, tuple(range(offs[i] + d[i], offs[i] + t[i])))
    return out, loopless


def shuffle_product(f: SymPoly, g: SymPoly) -> SymPoly:
    """The shuffle product of graded pieces over d and e, landing in d+e.

    The shuffle sum of f on block prefixes times g on block suffixes times
    the kernel numerator, times the block Vandermondes V_d V_e at loopless
    vertices, where the sum is divided by V_t, is 1/(d! e!) times the full
    (signed) symmetrisation Sym of that unshuffled product, because it is
    invariant under S_d x S_e at looped blocks and alternating at loopless
    ones.  The kernel factor K (numerator times V_d V_e) has the same
    invariance on its own, so Sym(pi(x^a x^b) K) = Sym(x^a x^b K) for pi in
    S_d x S_e, and Sym(m_a(x') m_b(x'') K) = |orb a| |orb b| Sym(x^a x^b K).
    The core is therefore sum over coordinates c_a of f and c_b of g of
    c_a c_b |orb a| |orb b| x^(a, b) K: one shift of K's terms per pair.

    One pass over the core buckets each exponent by its block-sorted lam.
    A looped bucket is the coefficient of m_lam times |Stab lam|.  A
    loopless bucket keeps exponents with distinct entries, each signed by
    its sort, and is the coefficient of s_{lam-delta},
    delta = (t-1, ..., 0), by the bialternant formula
    s_mu = a_{mu+delta} / a_delta (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3); it carries (-1)^C(t,2) because V_t is
    (-1)^C(t,2) a_delta, and _schur_to_monomial expands it into m_mu.
    """
    if f.fq != g.fq:
        raise CohaError("elements live over different quivers")
    q = f.fq.base
    d, e = f.d, g.d
    t = tuple(a + b for a, b in zip(d, e))
    offs = block_offsets(t)
    nv = q.vertex_count

    # one shift of the kernel factor per pair of orbit representatives, a on
    # the block prefixes and b on the block suffixes, weighted by both orbits
    kernel, loopless = _kernel_factor(q, d, e)
    kernel_terms = kernel.terms.items()
    core: dict[tuple[int, ...], Coeff] = {}
    for a, ca in f.coords.items():
        wa = ca * _orbit_size(a)
        for b, cb in g.coords.items():
            w = wa * cb * _orbit_size(b)
            shift = tuple(chain.from_iterable(map(add, a, b)))
            for exp, c in kernel_terms:
                key = tuple(map(add, exp, shift))
                core[key] = core.get(key, 0) + w * c

    buckets: dict[Signature, Coeff] = {}
    for exp, c in core.items():
        key = []
        for i in range(nv):
            block = exp[offs[i] : offs[i] + t[i]]
            lam = tuple(sorted(block, reverse=True))
            if loopless[i]:
                if len(set(lam)) < t[i]:
                    break
                if sum(a < b for a, b in combinations(block, 2)) % 2:
                    c = -c
                lam = tuple(x - (t[i] - 1 - k) for k, x in enumerate(lam))
            key.append(lam)
        else:
            buckets[tuple(key)] = buckets.get(tuple(key), 0) + c

    coords: dict[Signature, Coeff] = {}
    for key, c in buckets.items():
        expansions = [
            _schur_to_monomial(lam) if loopless[i] else ((lam, _stabiliser_order(lam)),)
            for i, lam in enumerate(key)
        ]
        for combo in product(*expansions):
            sig = tuple(mu for mu, _ in combo)
            coords[sig] = coords.get(sig, 0) + c * prod(k for _, k in combo)
    sign = (-1) ** sum(comb(t[i], 2) for i in range(nv) if loopless[i])
    denominator = sign * prod(factorial(x) for x in d + e)
    scaled = {sig: divide(c, denominator) for sig, c in coords.items() if c}

    result = SymPoly(f.fq, t, scaled)
    if scaled:
        expected = f.degree() + g.degree() - euler_form(q, d, e)
        homogeneous = f.is_homogeneous() and g.is_homogeneous()
        degree = result.degree()
        if degree > expected or (homogeneous and degree != expected):
            raise AssertionError("shuffle product broke the degree law")
    return result


@lru_cache(maxsize=4096)
def _stabiliser_order(lam: tuple[int, ...]) -> int:
    """|Stab lam| in the symmetric group: the product of multiplicities factorial."""
    return prod(factorial(m) for m in Counter(lam).values())


def _orbit_size(sig: Signature) -> int:
    """The number of distinct exponents in the block-permutation orbit of sig."""
    return prod(factorial(len(lam)) // _stabiliser_order(lam) for lam in sig)


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
    sorted by the padded signature for a stable column order.
    """
    d, n = tuple(_natural(x, "dimension entry") for x in d), _natural(n, "degree")
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

    return sorted(rec(0, n))


@lru_cache(maxsize=4096)
def _orbit(sig: Signature) -> tuple[tuple[int, ...], ...]:
    """The distinct exponents in the block-permutation orbit of sig."""
    blocks = product(*(set(permutations(lam)) for lam in sig))
    return tuple(tuple(chain.from_iterable(combo)) for combo in blocks)


def _row(p: SymPoly, index: dict[Signature, int]) -> tuple[Coeff, ...]:
    """The coordinates of p over the slice basis whose positions index holds."""
    row = [0] * len(index)
    for sig, c in p.coords.items():
        j = index.get(sig)
        if j is None:
            raise CohaError("coordinate outside the declared graded slice")
        row[j] = c
    return tuple(row)


@dataclass(frozen=True, eq=False)
class GradedSubspace:
    """Subspace of one graded slice, held as an echelon linalg.Span of the
    slice's coordinates; equality is canonical.

    dim is the echelon rank.  rows, the canonical form of linalg.rref
    (primitive integer rows with positive pivots, in reduced echelon form),
    are computed from the echelon span only when first read; equality and
    hashing read them.
    """

    d: DimVector
    n: int
    basis: tuple[Signature, ...]
    echelon: Span = field(repr=False)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.echelon.canonical())

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def _key(self):
        return self.d, self.n, self.basis, self.rows

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def contains(self, row) -> bool:
        return self.echelon.contains(row)


def kernel_graded_piece(fq: FramedQuiver, d: DimVector, n: int) -> GradedSubspace:
    """Degree-n slice of the kernel of the quotient onto the framed module.

    Spanned by shuffle products f * (idempotent cup g) where the inner
    factor ranges over subdimensions 0 < d' <= d and f, g over
    monomial-symmetric bases in the degrees allowed by the degree law.
    Their rows go, sparsest first, into one echelon Span.
    """
    d, n = check_dim(fq.base, d), _natural(n, "degree")
    basis = slice_basis(d, n)
    index = {sig: j for j, sig in enumerate(basis)}
    rows: list[tuple[Coeff, ...]] = []
    for dprime in product(*(range(x + 1) for x in d)):
        if all(x == 0 for x in dprime):
            continue
        rest = tuple(a - b for a, b in zip(d, dprime))
        budget = n + euler_form(fq.base, rest, dprime) - sum(map(mul, fq.framing, dprime))
        if budget < 0:
            continue
        for p in range(budget + 1):
            # e_w cup m_sig is m_{sig + w}; slice_basis signatures, shifted
            # or not, are canonical, so each m_sig is built without re-checks
            shifted = (
                tuple(tuple(x + w for x in lam) for w, lam in zip(fq.framing, sig))
                for sig in slice_basis(dprime, budget - p)
            )
            gpolys = [SymPoly(fq, dprime, {sig: 1}) for sig in shifted]
            for sig_f in slice_basis(rest, p):
                fpoly = SymPoly(fq, rest, {sig_f: 1})
                for gpoly in gpolys:
                    gen = shuffle_product(fpoly, gpoly)
                    if gen.is_zero():
                        continue
                    if gen.degree() != n:
                        raise AssertionError("kernel generator in the wrong degree")
                    rows.append(_row(gen, index))
    return GradedSubspace(d, n, tuple(basis), Span.of(len(basis), rows))


def tautological_monomial(fq: FramedQuiver, lam: MultiPartition) -> SymPoly:
    """Product over vertices and k of e_k to the power lambda_k - lambda_{k+1},
    multiplied in coordinates."""
    d = lam.shape()
    if not satisfies_phi(fq, d, lam):  # public callers pass labels of their own
        raise CohaError("partition does not label a cell")
    result = unit(fq, d)
    for i, parts in enumerate(lam.parts):
        for k in range(1, d[i] + 1):
            for _ in range(parts[k - 1] - (parts[k] if k < d[i] else 0)):
                result = cup_product(result, elementary(fq, d, i, k))
    return result


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
    The label rows go into a copy of the kernel's echelon span, so the
    kernel's canonical rows are never computed.
    """
    d, n = check_dim(fq.base, d), _natural(n, "degree")
    kernel = kernel_graded_piece(fq, d, n)
    index = {sig: j for j, sig in enumerate(kernel.basis)}
    h_dim = len(index)
    labels = [lam for lam in cell_labels(fq, d) if lam.size == n]
    taut_rows = [_row(tautological_monomial(fq, lam), index) for lam in labels]
    quotient_dim = h_dim - kernel.dim
    span = kernel.echelon.copy()
    independent = quotient_dim == len(labels) and all(map(span.add, taut_rows))
    return BasisReport(d, n, h_dim, kernel.dim, quotient_dim, len(labels), independent)


def top_degree(fq: FramedQuiver, d: DimVector) -> int:
    """Largest label size, -1 without labels; the quotient vanishes strictly
    above it.  Read off the memoised labels that verify_basis reads too."""
    return max((lam.size for lam in cell_labels(fq, d)), default=-1)
