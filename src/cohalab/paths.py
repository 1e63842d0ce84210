"""The tree of paths out of the framing vertex, and total orders on it.

A path is stored as a tuple of framed-arrow indices in application order:
path[0] is the first arrow applied (it leaves the framing vertex), path[-1]
the last.  Written as a composition the arrows read right to left, so the
stored tuple is the reverse of the display string.  The empty tuple is the
root (the trivial path at the framing vertex).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import lcm

from .polys import Coeff, normal
from .quiver import INF_VERTEX, FramedQuiver, QuiverError

Path = tuple[int, ...]

ROOT: Path = ()

SHORTLEX = "shortlex"
WSHORTLEX = "weighted-shortlex"
LEX = "lex"


def path_target(fq: FramedQuiver, u: Path) -> int:
    return INF_VERTEX if not u else fq.targets[u[-1]]


def parent(u: Path) -> Path:
    if not u:
        raise ValueError("the root has no parent")
    return u[:-1]


def validate_path(fq: FramedQuiver, u: Path) -> Path:
    """u as a tuple of ints, once its arrow indices are integers, in range
    and compose."""
    try:
        u = tuple(map(operator.index, u))
    except TypeError:
        raise QuiverError("arrow indices must be integers") from None
    for idx in u:
        if not 0 <= idx < len(fq.arrows):
            raise QuiverError(f"arrow index {idx} out of range")
    at = INF_VERTEX
    for idx in u:
        a = fq.arrows[idx]
        if a.source != at:
            raise QuiverError(
                f"arrows do not compose at {format_path(fq, u)!r}"
            )
        at = a.target
    return u


@dataclass(frozen=True)
class PathOrder:
    """One of the three admissible total orders on paths.

    shortlex and weighted-shortlex are monomial (stable under composing
    with a common arrow on the left); lex is admissible only.  Weights are
    positive rationals per arrow index, required exactly for the weighted
    kind; arrows missing from a name-keyed weight map default to 1.  The
    weighted key sums _int_weights, the weights scaled once by the lcm of
    their denominators: the same order, without Fraction arithmetic.
    """

    kind: str
    weights: tuple[Coeff, ...] | None = None
    _int_weights: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in (SHORTLEX, WSHORTLEX, LEX):
            raise ValueError(f"unknown path order kind {self.kind!r}")
        if (self.weights is not None) != (self.kind == WSHORTLEX):
            raise ValueError("weights are given iff kind is weighted-shortlex")
        if self.weights is not None:
            exact = list(map(normal, self.weights))
            if any(w <= 0 for w in exact):
                raise ValueError("weights must be strictly positive")
            scale = lcm(*(w.denominator for w in exact))
            object.__setattr__(self, "_int_weights", tuple(int(w * scale) for w in exact))

    @classmethod
    def shortlex(cls) -> "PathOrder":
        return cls(SHORTLEX)

    @classmethod
    def lex(cls) -> "PathOrder":
        return cls(LEX)

    @classmethod
    def weighted_shortlex(cls, fq: FramedQuiver, weights_by_name) -> "PathOrder":
        table = [1] * len(fq.arrows)
        for name, w in weights_by_name.items():
            table[fq.arrow_index(name)] = normal(w)
        return cls(WSHORTLEX, tuple(table))

    def key(self, u: Path):
        """Sort key; comparing keys realizes the order.

        shortlex: (length, arrows in application order); ties at equal
        length resolve at the first differing applied arrow.  lex: the
        applied tuple itself, prefixes sorting first.  weighted-shortlex:
        total weight (in the integer scale of _int_weights), then shortlex.
        """
        if self.kind == SHORTLEX:
            return (len(u), u)
        if self.kind == LEX:
            return u
        return (sum(map(self._int_weights.__getitem__, u)), len(u), u)

    def compare(self, u: Path, v: Path) -> int:
        ku, kv = self.key(u), self.key(v)
        return -1 if ku < kv else (0 if ku == kv else 1)

    def sort(self, paths) -> list[Path]:
        """The paths ascending in the order, for callers holding an
        unordered pool; the cells walks meet paths in order instead."""
        return sorted(paths, key=self.key)

    @property
    def is_monomial(self) -> bool:
        return self.kind in (SHORTLEX, WSHORTLEX)


# -- display and parsing --------------------------------------------------------
#
# Display writes arrow names right to left (composition order): the stored
# path (f, a, b) renders as "baf" and dotted as "b.a.f".  The root renders
# as "*".


def format_path(fq: FramedQuiver, u: Path, dotted: bool = False) -> str:
    if not u:
        return "*"
    names = [fq.arrows[a].name for a in reversed(u)]
    return ".".join(names) if dotted else "".join(names)


def parse_path(fq: FramedQuiver, text: str) -> Path:
    """Parse a dotted path ("b.a.f") or a compact one ("baf").

    Compact strings are tokenized by greedy longest match against arrow
    names, left to right in composition order.
    """
    text = text.strip()
    if text in ("*", ""):
        return ROOT
    if "." in text:
        names = text.split(".")
    else:
        names = []
        known = sorted((a.name for a in fq.arrows), key=len, reverse=True)
        pos = 0
        while pos < len(text):
            hit = next(
                (n for n in known if text.startswith(n, pos)), None
            )
            if hit is None:
                raise QuiverError(f"cannot tokenize path {text!r} at position {pos}")
            names.append(hit)
            pos += len(hit)
    applied = [fq.arrow_index(n) for n in reversed(names)]
    return validate_path(fq, tuple(applied))
