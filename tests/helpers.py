"""Polynomial and path helpers that only the tests use."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

from cohalab.paths import Path
from cohalab.polys import Poly, det_bareiss


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


def is_prefix(u: Path, v: Path) -> bool:
    """True iff u is a right factor of v (u precedes v in the tree order)."""
    return len(u) <= len(v) and v[: len(u)] == u
