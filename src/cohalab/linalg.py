"""Exact linear algebra over the rationals, carried out in integers.

Small dense routines: span membership and reduced row echelon form, both
through one echelon elimination, Span.reduce.  Rows may hold int or
Fraction entries.  Each row is scaled once to integers by the lcm of its
denominators and then eliminated fraction-free: with pivot p in row r and
entry f of row i in the pivot column, and g = gcd(p, f), row i becomes
(p/g) row i - (f/g) row r, and its content (the gcd of its entries) is
divided out.  This is the one-step form of Bareiss's integer-preserving
elimination ("Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).

No pivot tolerances anywhere; a vector is in a span iff elimination leaves
an exactly zero residue.  The canonical form of a subspace is its reduced
row echelon form with each row scaled to a primitive integer row with a
positive pivot; rref returns it as int tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polys import Coeff, normal

Vector = tuple[Coeff, ...]


def vec(entries) -> Vector:
    """The entries as exact numbers: int where integral, else Fraction."""
    return tuple(map(normal, entries))


def _integral(v) -> list[int]:
    """v scaled by the lcm of its denominators: a list of int."""
    if all(type(x) is int for x in v):
        return list(v)
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v]


def _eliminate(w: list[int], row: list[int], p: int) -> list[int]:
    """w with its entry at row's pivot column p cleared, content divided out.

    row has a positive pivot at p and zeros before it, so the columns
    before p only change when w is multiplied.
    """
    g = gcd(row[p], w[p])
    a, b = row[p] // g, w[p] // g
    if a == 1:
        w[p:] = [x - b * y for x, y in zip(w[p:], row[p:])]
    else:
        w = [a * x - b * y for x, y in zip(w, row)]
    c = gcd(*w)
    return w if c <= 1 else [x // c for x in w]


def rref(rows) -> list[tuple[int, ...]]:
    """Canonical echelon form: the reduced row echelon form, each row
    scaled to a primitive integer row with a positive pivot; zero rows
    dropped.  Two row sets span the same subspace iff their rref outputs
    are equal.

    The rows go into an echelon Span sparsest first, which keeps its rows
    sparser and their entries smaller.  Back-substitution adds its rows, by
    descending pivot, to a second Span, which clears each at the pivots of
    the reduced rows below it; a row keeps its own pivot, as it is zero
    before it, so the second Span holds the reduced rows.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    echelon, reduced = Span(ncols), Span(ncols)
    for row in sorted(rows, key=lambda r: sum(map(bool, r))):
        echelon.add(row)
    for _, row in sorted(zip(echelon.pivots, echelon.rows), reverse=True):
        reduced.add(row)
    return [tuple(row) for row in reversed(reduced.rows)]


class Span:
    """Incrementally built subspace with exact membership tests.

    rows are primitive integer rows with positive pivots, each with zeros
    at the pivots of the rows before it (echelon, not reduced, form).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, v) -> list[int]:
        """v scaled to integers and cleared at every pivot: a non-zero
        multiple of its residue modulo the span, so zero iff v lies in it."""
        w = _integral(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                w = _eliminate(w, row, p)
        return w

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def add(self, v) -> bool:
        """Adjoin v; returns True if it enlarged the span."""
        w = self.reduce(v)
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            return False
        c = gcd(*w)  # the content, signed so that the pivot turns positive
        if w[p] < 0:
            c = -c
        self.rows.append(w if c == 1 else [x // c for x in w])
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
