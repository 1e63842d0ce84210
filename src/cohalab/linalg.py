"""Exact linear algebra over the rationals, carried out in integers.

Span membership and reduced row echelon form, both through one echelon
elimination, Span.reduce.  Input rows are dense and may hold int or
Fraction entries.  Each is scaled once to integers by the lcm of its
denominators and then eliminated fraction-free: with pivot p in row r and
entry f of the residue in the pivot column, and g = gcd(p, f), the residue
becomes (p/g) residue - (f/g) row r.  It is then an integer multiple of
its exact rational value by at most the product of the multipliers p/g
since its content (the gcd of its entries) was last divided out; that
division runs once the product passes 2^64, and the rows a Span stores
are primitive.  This is the one-step form of Bareiss's integer-preserving
elimination ("Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).

A Span stores its rows sparse, as their non-zero columns and values, so a
step against a unit pivot touches only that row's non-zeros: the work is
in proportion to the non-zeros, as in Dumas and Villard ("Computing the
rank of large sparse matrices over finite fields", CASC 2002).  The
residue being reduced stays a dense int list.

No pivot tolerances anywhere; a vector is in a span iff elimination leaves
an exactly zero residue.  The canonical form of a subspace is its reduced
row echelon form with each row scaled to a primitive integer row with a
positive pivot; rref returns it as int tuples.  A float entry is refused
(polys.normal).
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm

from .polys import Coeff, normal

Vector = tuple[Coeff, ...]

# the product of multipliers at which Span.reduce divides out the content
_SCALED_LIMIT = 1 << 64


def vec(entries) -> Vector:
    """The entries as exact numbers: int where integral, else Fraction."""
    return tuple(map(normal, entries))


def _integral(v) -> list[int]:
    """v scaled by the lcm of its denominators: a list of int."""
    if set(map(type, v)) <= {int}:
        return list(v)
    v = vec(v)
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v]


def dense(row, dim: int) -> tuple[int, ...]:
    """A sparse (cols, vals) row as a dense int tuple of length dim."""
    out = [0] * dim
    for j, x in zip(*row):
        out[j] = x
    return tuple(out)


def rref(rows) -> list[tuple[int, ...]]:
    """Canonical echelon form: the reduced row echelon form, each row
    scaled to a primitive integer row with a positive pivot; zero rows
    dropped.  Two row sets span the same subspace iff their rref outputs
    are equal.

    The rows go into an echelon Span sparsest first (Span.of), which keeps
    its rows sparser and their entries smaller.  Back-substitution then
    adds its rows, by descending pivot, to a second Span, which clears each
    at the pivots of the reduced rows below it; a row keeps its own pivot,
    as it is zero before it, so the second Span holds the reduced rows.
    """
    rows = list(rows)
    dim = len(rows[0]) if rows else 0
    reduced = Span(dim)
    for row in sorted(Span.of(dim, rows).rows, reverse=True):
        reduced.add(dense(row, dim))
    return [dense(row, dim) for row in reversed(reduced.rows)]


class Span:
    """Incrementally built subspace with exact membership tests.

    rows are sparse (cols, vals) pairs of int tuples: the increasing
    columns of a row's non-zero entries and those entries.  Each row is
    primitive with a positive pivot, which is its first entry, and is zero
    at the pivots of the rows before it (echelon, not reduced, form).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    @classmethod
    def of(cls, dim: int, rows) -> "Span":
        """The span of rows, added sparsest first."""
        span = cls(dim)
        for row in sorted(rows, key=lambda r: sum(map(bool, r))):
            span.add(row)
        return span

    def copy(self) -> "Span":
        out = Span(self.dim)
        out.rows = list(self.rows)
        return out

    def reduce(self, v) -> list[int]:
        """v scaled to integers and cleared at every pivot: a non-zero
        multiple of its residue modulo the span, so zero iff v lies in it."""
        w = _integral(v)
        columns = range(len(w))
        scaled = 1  # the product of the multipliers a since the last content division
        for cols, vals in self.rows:
            f = w[cols[0]]
            if not f:
                continue
            g = gcd(vals[0], f)
            a, b = vals[0] // g, f // g
            if a != 1:
                for j in compress(columns, w):
                    w[j] *= a
                scaled *= a
            for j, y in zip(cols, vals):
                w[j] -= b * y
            if scaled > _SCALED_LIMIT:
                scaled = 1
                c = gcd(*w)
                if c > 1:
                    for j in compress(columns, w):
                        w[j] //= c
        return w

    def contains(self, v) -> bool:
        return len(self.rows) == self.dim or not any(self.reduce(v))  # a full span is Q^dim

    def add(self, v) -> bool:
        """Adjoin v; returns True if it enlarged the span (a full one cannot)."""
        w = self.reduce(v) if len(self.rows) < self.dim else ()  # a full span is Q^dim
        cols = tuple(compress(range(len(w)), w))
        if not cols:
            return False
        vals = [w[j] for j in cols]
        c = gcd(*vals)  # the content, signed so that the pivot turns positive
        if vals[0] < 0:
            c = -c
        self.rows.append((cols, tuple(vals) if c == 1 else tuple(x // c for x in vals)))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
