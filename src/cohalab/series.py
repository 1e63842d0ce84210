"""Laurent polynomials in the Lefschetz symbol L and the counting series.

The motivic class of a moduli space of stable framed representations is
read off its cell decomposition: one L^(cell dimension) per subtree label.
The class does not depend on the path order, so the shortlex cells are
used.  For the no-arrow quiver the class collapses to a Gaussian binomial,
computed here independently by brute-force subset enumeration as an
oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .cells import cell_dim, enumerate_trees
from .paths import PathOrder
from .quiver import DimVector, FramedQuiver


@dataclass(frozen=True)
class LaurentPoly:
    """Finite integer combination of powers of L; no zero coefficients stored."""

    coeffs: tuple[tuple[int, int], ...]  # (exponent, coefficient), descending

    @classmethod
    def from_dict(cls, data: dict[int, int]) -> "LaurentPoly":
        items = tuple(
            (e, c) for e, c in sorted(data.items(), reverse=True) if c != 0
        )
        return cls(items)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        data = self.as_dict()
        for e, c in other.coeffs:
            data[e] = data.get(e, 0) + c
        return LaurentPoly.from_dict(data)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        data: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                data[e1 + e2] = data.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.from_dict(data)

    def degree(self) -> int | None:
        return self.coeffs[0][0] if self.coeffs else None

    def low_degree(self) -> int | None:
        return self.coeffs[-1][0] if self.coeffs else None

    def evaluate_at_one(self) -> int:
        return sum(c for _, c in self.coeffs)

    def reversed_in_range(self) -> "LaurentPoly":
        """Coefficients read from the other end of the support."""
        if not self.coeffs:
            return self
        hi, lo = self.coeffs[0][0], self.coeffs[-1][0]
        return LaurentPoly.from_dict(
            {hi + lo - e: c for e, c in self.coeffs}
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                body = str(abs(c))
            else:
                power = "L" if e == 1 else f"L^{e}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def motivic_class(fq: FramedQuiver, d: DimVector) -> LaurentPoly:
    """Sum of L^(cell dimension) over the cells of d."""
    order = PathOrder.shortlex()
    return LaurentPoly.from_dict(
        Counter(cell_dim(fq, s, order) for s in enumerate_trees(fq, d, order))
    )


def betti_numbers(fq: FramedQuiver, d: DimVector) -> list[tuple[int, int]]:
    """(cohomological degree, rank) pairs, ascending.

    The rank in degree 2n is the coefficient of L^(dim - n), dim being the
    dimension of the moduli space.
    """
    top = fq.hilb_dim(d)
    return [(2 * (top - e), c) for e, c in motivic_class(fq, d).coeffs]


def gaussian_binomial(w: int, d: int) -> LaurentPoly:
    """q-binomial [w choose d] by brute-force inversion counting.

    Sums L^inv(T) over d-element subsets T of {1..w}, where inv counts the
    pairs (s, t) with s in T, t outside, t < s.  Deliberately naive: this
    is the independent oracle for the no-arrow quiver series.
    """
    if d < 0 or d > w:
        return LaurentPoly.zero()
    data: dict[int, int] = {}
    universe = range(1, w + 1)
    for subset in combinations(universe, d):
        chosen = set(subset)
        inv = sum(
            1
            for s in subset
            for t in universe
            if t not in chosen and t < s
        )
        data[inv] = data.get(inv, 0) + 1
    return LaurentPoly.from_dict(data)
