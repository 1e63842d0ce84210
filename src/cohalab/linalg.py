"""Exact linear algebra over Fraction.

Small dense routines: rank, span membership, reduced row echelon form.
No pivot tolerances anywhere; a vector is in a span iff elimination leaves
an exactly zero residue.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def rref(rows: list[Vector]) -> list[Vector]:
    """Reduced row echelon form with unit pivots; zero rows dropped.

    The result is canonical: two row sets span the same subspace iff their
    rref outputs are equal.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / Fraction(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]]


def rank(rows: list[Vector]) -> int:
    if not rows:
        return 0
    return len(rref(rows))


class Span:
    """Incrementally built subspace with exact membership tests."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def reduce(self, v) -> list[Fraction]:
        w = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def add(self, v) -> bool:
        """Adjoin v; returns True if it enlarged the span."""
        w = self.reduce(v)
        p = next((i for i, x in enumerate(w) if x != 0), None)
        if p is None:
            return False
        inv = 1 / w[p]
        w = [x * inv for x in w]
        self.rows.append(w)
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
