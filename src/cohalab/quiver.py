"""Quivers, framed quivers, dimension vectors and the Euler form.

Vertices are dense indices 0..n-1; the added framing vertex is the sentinel
INF_VERTEX.  Arrow order is significant everywhere: framing arrows come
first, sorted by (target vertex, copy index), then base arrows in their
declaration order.  Dimension vectors are plain int tuples.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

INF_VERTEX = -1

DimVector = tuple[int, ...]
SignedVector = tuple[int, ...]


class QuiverError(ValueError):
    """Malformed quiver data or file."""


MAX_DIGITS = 1000
_NUMBER = {
    int: re.compile(r"[+-]?\d+"),
    Fraction: re.compile(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)"),
}


def parse_number(token: str, kind=Fraction):
    """An integer, or for Fraction also p/q or a plain decimal.

    Exponent forms and tokens of more than MAX_DIGITS digits are refused,
    so that no input can ask for a huge power of ten.
    """
    token = token.strip()
    if sum(ch.isdigit() for ch in token) > MAX_DIGITS:
        raise QuiverError(f"number with more than {MAX_DIGITS} digits")
    if _NUMBER[kind].fullmatch(token) is None:
        raise QuiverError(f"bad number {token!r}")
    try:
        return kind(token)
    except ZeroDivisionError:
        raise QuiverError(f"bad number {token!r}") from None


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: vertex count plus an ordered arrow list."""

    vertex_count: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise QuiverError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
            for v in (a.source, a.target):
                if not 0 <= v < self.vertex_count:
                    raise QuiverError(
                        f"arrow {a.name!r}: vertex {v} out of range"
                    )

    @classmethod
    def make(cls, vertex_count: int, arrows) -> "Quiver":
        return cls(vertex_count, tuple(Arrow(n, s, t) for n, s, t in arrows))


def check_dim(q: Quiver, d: DimVector, name: str = "dimension vector") -> DimVector:
    try:
        d = tuple(operator.index(x) for x in d)
    except TypeError:
        raise QuiverError(f"{name} entries must be integers") from None
    if len(d) != q.vertex_count:
        raise QuiverError(f"{name} has length {len(d)}, expected {q.vertex_count}")
    return d


def euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """Euler form: sum_i d_i e_i minus sum over arrows i->j of d_i e_j."""
    d = check_dim(q, d)
    e = check_dim(q, e)
    total = sum(di * ei for di, ei in zip(d, e))
    for a in q.arrows:
        total -= d[a.source] * e[a.target]
    return total


def unit_vector(q: Quiver, i: int) -> DimVector:
    return tuple(1 if j == i else 0 for j in range(q.vertex_count))


@dataclass(frozen=True)
class FramedQuiver:
    """Quiver with a framing vector; owns the full framed arrow order.

    ``arrows`` lists the arrows of the framed quiver: first the framing
    arrows (source INF_VERTEX), then the base arrows.  Paths refer to
    arrows by index into this list, and index order is the arrow total
    order used by the path orders.

    The instance is immutable, so three tables are built once in
    ``__init__``: ``targets`` holds the target of each arrow index,
    ``out_arrows`` the ascending arrow indices leaving each vertex, with
    the framing vertex last so that index INF_VERTEX reaches it, and the
    hash of exactly the fields that equality compares.  None of them
    takes part in equality, repr or pickling.
    """

    base: Quiver
    framing: DimVector
    arrows: tuple[Arrow, ...] = field(init=False)
    framing_count: int = field(init=False)
    targets: tuple[int, ...] = field(init=False, compare=False, repr=False)
    out_arrows: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self, base: Quiver, framing, framing_names=None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "framing", check_dim(base, framing, "framing"))
        if any(w < 0 for w in self.framing):
            raise QuiverError("framing entries must be non-negative")
        auto = [
            (f"g{i}_{k + 1}", i)
            for i in range(base.vertex_count)
            for k in range(self.framing[i])
        ]
        if framing_names is not None:
            framing_names = list(framing_names)
            if len(framing_names) != len(auto):
                raise QuiverError(
                    f"expected {len(auto)} framing names, got {len(framing_names)}"
                )
            auto = [(n, tgt) for n, (_, tgt) in zip(framing_names, auto)]
        frame_arrows = tuple(Arrow(n, INF_VERTEX, tgt) for n, tgt in auto)
        arrows = frame_arrows + base.arrows
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise QuiverError("framing arrow name collides with a base arrow")
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "framing_count", len(frame_arrows))
        object.__setattr__(self, "targets", tuple(a.target for a in arrows))
        out: list[list[int]] = [[] for _ in range(base.vertex_count + 1)]
        for i, a in enumerate(arrows):
            out[a.source].append(i)
        object.__setattr__(self, "out_arrows", tuple(map(tuple, out)))
        object.__setattr__(
            self, "_hash", hash((base, self.framing, arrows, len(frame_arrows)))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: string hashes differ between processes,
        # so a pickled _hash would be stale where it is loaded
        names = [a.name for a in self.arrows[: self.framing_count]]
        return (FramedQuiver, (self.base, self.framing, names))

    # -- arrow helpers -------------------------------------------------------

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise QuiverError(f"unknown arrow {name!r}")

    # -- derived data ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self.base.vertex_count

    def critical_dim_vector(self, d: DimVector) -> SignedVector:
        """c(d)_i = framing_i - euler_form(d, e_i); entries may be negative."""
        d = check_dim(self.base, d)
        return tuple(
            self.framing[i] - euler_form(self.base, d, unit_vector(self.base, i))
            for i in range(self.vertex_count)
        )

    def hilb_dim(self, d: DimVector) -> int:
        """framing . d - euler_form(d, d); negative iff the moduli is empty."""
        d = check_dim(self.base, d)
        return sum(w * x for w, x in zip(self.framing, d)) - euler_form(
            self.base, d, d
        )


# -- file format ----------------------------------------------------------------
#
# UTF-8, line based.  '#' starts a comment.  Directives:
#   vertices <n>
#   arrow <name> <src> <tgt>        (order of these lines = arrow order)
#   framing <w_0> ... <w_{n-1}>
#   framenames <name_1> ... <name_F>   (optional; overrides auto names)


def _utf8_text(text) -> str:
    """text itself, or bytes decoded as UTF-8; QuiverError if they are not."""
    if not isinstance(text, bytes):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise QuiverError(f"file is not UTF-8: {exc}") from None


def parse_quiver_file(text) -> FramedQuiver:
    text = _utf8_text(text)
    vertex_count = None
    arrows: list[tuple[str, int, int]] = []
    framing = None
    framenames = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "vertices":
                if vertex_count is not None:
                    raise QuiverError("repeated 'vertices' line")
                vertex_count = parse_number(tokens[1], int)
                if vertex_count <= 0:
                    raise QuiverError("vertex count must be positive")
            elif kind == "arrow":
                if len(tokens) != 4:
                    raise QuiverError("expected: arrow <name> <src> <tgt>")
                arrows.append((tokens[1], *(parse_number(t, int) for t in tokens[2:])))
            elif kind == "framing":
                if framing is not None:
                    raise QuiverError("repeated 'framing' line")
                framing = tuple(parse_number(t, int) for t in tokens[1:])
            elif kind == "framenames":
                framenames = tokens[1:]
            else:
                raise QuiverError(f"unknown directive {kind!r}")
        except QuiverError as exc:
            raise QuiverError(f"line {lineno}: {exc}") from None
        except (ValueError, IndexError):
            raise QuiverError(f"line {lineno}: cannot parse {line!r}") from None
    if vertex_count is None:
        raise QuiverError("missing 'vertices' line")
    if framing is None:
        raise QuiverError("missing 'framing' line")
    return FramedQuiver(Quiver.make(vertex_count, arrows), framing, framenames)


def serialize_quiver_file(fq: FramedQuiver) -> str:
    lines = [f"vertices {fq.base.vertex_count}"]
    for a in fq.base.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target}")
    lines.append("framing " + " ".join(str(w) for w in fq.framing))
    names = [a.name for a in fq.arrows[: fq.framing_count]]
    if names != [a.name for a in FramedQuiver(fq.base, fq.framing).arrows[: len(names)]]:
        lines.append("framenames " + " ".join(names))
    return "\n".join(lines) + "\n"
