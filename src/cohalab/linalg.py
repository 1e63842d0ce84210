"""Exact linear algebra over the rationals, carried out in integers.

Small dense routines: span membership and reduced row echelon form.
Rows may hold int or Fraction entries.  Each row is scaled once to
integers by the lcm of its denominators and then eliminated fraction-free:
with pivot p in row r and entry f of row i in the pivot column, and
g = gcd(p, f), row i becomes (p/g) row i - (f/g) row r, and its content
(the gcd of its entries) is divided out.  This is the one-step form of
Bareiss's integer-preserving elimination ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).

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


def _primitive(w: list[int], p: int) -> list[int]:
    """w divided by its content, signed so that the entry at p is positive."""
    c = gcd(*w)
    if w[p] < 0:
        c = -c
    return w if c == 1 else [x // c for x in w]


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
    dropped.

    Two row sets span the same subspace iff their rref outputs are equal.
    Gauss-Jordan over the integer rows; among the rows that can supply a
    column's pivot, the one with the smallest pivot keeps multipliers small.
    """
    m = [_integral(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, len(m)) if m[i][c]]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda i: abs(m[i][c]))
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = _primitive(m[r], c)
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = _eliminate(m[i], m[r], c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]]


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
        self.rows.append(_primitive(w, p))
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
