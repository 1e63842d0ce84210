"""Sparse multivariate polynomials over exact rationals.

Exponent vectors are plain int tuples of a fixed length.  Coefficients are
int wherever they are integers: constructors and scaling store integral
values as int, and division promotes to Fraction only for a quotient that
is not an integer, so integer inputs stay in integer arithmetic.  Zero
coefficients are never stored, so equality of term dicts is equality of
polynomials.  This module is the arithmetic core shared by the
shuffle algebra (variables x_{i,k}) and the chart computations (variables
c_{u,v}); neither interpretation leaks in here.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Callable, Mapping

Exponent = tuple[int, ...]

Coeff = int | Fraction

ZERO = 0
ONE = 1


def normal(c) -> Coeff:
    """c as an int when it is integral, else as a Fraction.  A float is
    refused (TypeError): it holds a binary fraction, not the number meant."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact number {c!r}: give an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def divide(a: Coeff, b: Coeff) -> Coeff:
    """a / b, an int when the quotient is one (floor division when exact)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return normal(Fraction(a, b))


class Poly:
    """Polynomial in ``nvars`` variables with int or Fraction coefficients.

    Poly(nvars, terms) stores its terms unchecked, as every arithmetic
    result passes through it; const, variable, monomial and scale are the
    checked constructors."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Coeff] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponent, Coeff] = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = normal(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): ONE})

    @classmethod
    def monomial(cls, nvars: int, exp: Exponent, c=1) -> "Poly":
        c = normal(c)
        if c == 0:
            return cls(nvars)
        if len(exp) != nvars:
            raise ValueError("exponent length mismatch")
        return cls(nvars, {tuple(exp): c})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def const_value(self) -> Coeff:
        if self.is_zero():
            return ZERO
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _combine(self, other: "Poly", op) -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = op(out.get(exp, ZERO), c)
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Poly(self.nvars, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, add)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, sub)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                s = out.get(exp, ZERO) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = normal(c)
        if c == 0:
            return Poly(self.nvars)
        return Poly(self.nvars, {exp: c * v for exp, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations ----------------------------------------------

    def permute_vars(self, perm: list[int]) -> "Poly":
        """Relabel variable i as perm[i]."""
        n = self.nvars
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        out: dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            out[tuple(exp[j] for j in inverse)] = c
        return Poly(n, out)

    # -- exact division ------------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Divide exactly, raising ExactDivisionError if any step fails.

        Uses the leading-term algorithm under the lex order on exponent
        tuples; when the division is exact this terminates with quotient
        equal to self/divisor.  The remainder's leading term comes off a
        heap of negated exponents: an exponent is pushed when it enters
        the remainder, and an entry whose term has since cancelled is
        skipped when it surfaces.  Coefficient quotients go through
        divide, so they stay int whenever they are integers.
        """
        if divisor.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly(self.nvars)
        if divisor.is_const():
            c = divisor.const_value()
            return Poly(self.nvars, {exp: divide(v, c) for exp, v in self.terms.items()})
        lead_g = max(divisor.terms)
        cg = divisor.terms[lead_g]
        tail = [(exp, c) for exp, c in divisor.terms.items() if exp != lead_g]
        rem = dict(self.terms)
        heap = [tuple(map(neg, exp)) for exp in rem]
        heapify(heap)
        quot: dict[Exponent, Coeff] = {}
        while heap:
            lead_r = tuple(map(neg, heappop(heap)))
            lead_c = rem.pop(lead_r, None)
            if lead_c is None:
                continue  # cancelled since it was pushed
            texp = tuple(map(sub, lead_r, lead_g))
            if min(texp) < 0:
                raise ExactDivisionError("non-exact polynomial division")
            tc = divide(lead_c, cg)
            quot[texp] = tc
            # the lead term cancels by the choice of tc; the rest land below it
            for exp, c in tail:
                target = tuple(map(add, exp, texp))
                old = rem.get(target)
                if old is None:
                    rem[target] = -tc * c
                    heappush(heap, tuple(map(neg, target)))
                else:
                    s = old - tc * c
                    if s:
                        rem[target] = s
                    else:
                        del rem[target]
        return Poly(self.nvars, quot)

    # -- display -------------------------------------------------------------

    def format(self, var_name: Callable[[int], str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(var_name(i))
                elif e > 1:
                    factors.append(f"{var_name(i)}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.format(lambda i: f'x{i}')})"


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


def det_bareiss(rows: list[list[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix, fraction-free.

    First a Laplace step: while some column has at most one non-zero
    entry, expand along it.  A zero column makes the determinant 0; a
    single entry at (i, j) becomes a factor (-1)^(i+j) m[i][j] of the
    result, and row i and column j go.  Chart minors have many unit and
    single-coordinate columns, so most shrink to a small core here.

    Bareiss elimination of that core keeps every intermediate entry
    polynomial; the divisions it performs are exact by construction and
    still checked (exact_div raises on a remainder), which doubles as an
    internal consistency check on the polynomial arithmetic.  Every step
    after the first divides by the previous pivot; the first would divide
    by the constant 1, so it does not divide.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = rows[0][0].nvars
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [list(r) for r in rows]
    sign = 1
    factors = []  # the entries expanded along, in order
    while m:
        for j in range(len(m)):
            live = [i for i, row in enumerate(m) if not row[j].is_zero()]
            if len(live) <= 1:
                break
        else:
            break  # every column has two entries or more
        if not live:
            return Poly.zero(nvars)
        i = live[0]
        factors.append(m.pop(i)[j])
        for row in m:
            del row[j]
        if (i + j) % 2:
            sign = -sign
    n = len(m)
    prev = None  # the previous pivot; the first step has none
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero()), None
            )
            if pivot_row is None:
                return Poly.zero(nvars)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else num.exact_div(prev)
            m[i][k] = Poly.zero(nvars)
        prev = m[k][k]
    result = m[n - 1][n - 1] if m else factors.pop()
    for f in factors:
        result = result * f
    return result if sign == 1 else -result
