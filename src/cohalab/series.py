"""Laurent polynomials in the Lefschetz symbol L and the counting series.

The motivic class of a moduli space of stable framed representations is
read off its cell decomposition: one L^(cell dimension) per subtree label.
The class does not depend on the path order, so the shortlex cells are
used.  For the no-arrow quiver the class collapses to a Gaussian binomial,
and for the linear quiver framed at its first vertex to a q-multinomial;
both are computed here independently, by brute-force inversion counting
over words, as oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .cells import cell_dim, enumerate_trees
from .paths import PathOrder
from .quiver import DimVector, FramedQuiver, check_dim


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

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        return self.coeffs[0][0] if self.coeffs else None

    def low_degree(self) -> int | None:
        return self.coeffs[-1][0] if self.coeffs else None

    def evaluate_at_one(self) -> int:
        return sum(c for _, c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        text = ""
        for e, c in self.coeffs:
            power = "L" if e == 1 else f"L^{e}"
            body = str(abs(c)) if e == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            text += f" {'-' if c < 0 else '+'} {body}"
        # the leading term shows its sign only when it is negative
        return text[3:] if text[1] == "+" else "-" + text[3:]


def motivic_class(fq: FramedQuiver, d: DimVector) -> LaurentPoly:
    """Sum of L^(cell dimension) over the cells of d.

    Memoised per (quiver, d), d normalised by check_dim so that a list and
    a tuple share an entry; LaurentPoly is immutable, so betti_numbers
    reuses the class instead of enumerating the trees again.
    """
    return _motivic_class(fq, check_dim(fq.base, d))


@lru_cache(maxsize=64)
def _motivic_class(fq: FramedQuiver, d: DimVector) -> LaurentPoly:
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


def q_multinomial(parts) -> LaurentPoly:
    """q-multinomial [sum(parts); parts] by brute-force inversion counting.

    Sums L^inv(word) over the distinct words with parts[k] letters k,
    where inv counts the positions s < t with word[s] > word[t]; zero when
    a part is negative.  Deliberately naive: this is the independent
    oracle for the series of the no-arrow quiver (Grassmannians) and of
    the linear quiver framed at its first vertex (partial flag varieties).
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        return LaurentPoly.zero()
    data: Counter = Counter()
    for word in _distinct_words(parts):
        data[sum(a > b for a, b in combinations(word, 2))] += 1
    return LaurentPoly.from_dict(data)


def _distinct_words(parts: tuple[int, ...]):
    """Each word with parts[k] letters k once: letter k takes parts[k] of
    the positions that the smaller letters left free."""
    word = [0] * sum(parts)

    def fill(k: int, free: tuple[int, ...]):
        if k == len(parts):
            yield tuple(word)
            return
        for chosen in combinations(free, parts[k]):
            for pos in chosen:
                word[pos] = k
            yield from fill(k + 1, tuple(p for p in free if p not in chosen))

    yield from fill(0, tuple(range(len(word))))


def gaussian_binomial(w: int, d: int) -> LaurentPoly:
    """q-binomial [w choose d]: the two-part q_multinomial, zero unless
    0 <= d <= w."""
    return q_multinomial((w - d, d))
