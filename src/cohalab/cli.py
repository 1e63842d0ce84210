"""Command line entry point: one binary, subcommand per operation.

Every run is deterministic given its inputs (and, for check, --seed); output
rows are explicitly sorted and --json emits one object per row with
stable field names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path as FilePath
from random import Random

from . import cells, charts, checks, coha, partitions, paths, quiver, series
from .polys import Poly


class DomainError(Exception):
    """User-facing failure of a domain precondition; exit code 1."""


def _load_quiver(path: str) -> quiver.FramedQuiver:
    try:
        return quiver.parse_quiver_file(FilePath(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read quiver file: {exc}") from None
    except quiver.QuiverError as exc:
        raise DomainError(f"bad quiver file: {exc}") from None


def _parse_dim(text: str, fq: quiver.FramedQuiver) -> tuple[int, ...]:
    try:
        d = tuple(quiver.parse_number(x, int) for x in text.replace(",", " ").split())
    except quiver.QuiverError:
        raise DomainError(f"cannot parse dimension vector {text!r}") from None
    if len(d) != fq.vertex_count:
        raise DomainError(f"dimension vector needs {fq.vertex_count} entries")
    if any(x < 0 for x in d):
        raise DomainError("dimension entries must be non-negative")
    return d


def _parse_order(args, fq: quiver.FramedQuiver) -> paths.PathOrder:
    kind = args.order
    if args.weights is not None and kind != "wshortlex":
        raise DomainError("--weights needs --order wshortlex")
    if kind == "shortlex":
        return paths.PathOrder.shortlex()
    if kind == "lex":
        return paths.PathOrder.lex()
    weights = {}
    if args.weights:
        for piece in args.weights.split(","):
            if "=" not in piece:
                raise DomainError(f"bad weight {piece!r}; use name=value")
            name, value = (x.strip() for x in piece.split("=", 1))
            if name in weights:
                raise DomainError(f"weight for {name!r} given twice")
            try:
                weights[name] = quiver.parse_number(value)
            except quiver.QuiverError:
                raise DomainError(f"bad weight value {value!r}") from None
    try:
        return paths.PathOrder.weighted_shortlex(fq, weights)
    except (ValueError, quiver.QuiverError) as exc:
        raise DomainError(str(exc)) from None


def _emit(args, rows: list[dict], text_of) -> None:
    for row in rows:
        if args.json:
            print(json.dumps(row, sort_keys=True))
        else:
            print(text_of(row))


# -- polynomial expression grammar for the shuffle subcommand ---------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := '-' factor | atom ('^' natural)*
#   atom   := integer | 'x[' i ',' k ']' | 'x' | '(' expr ')'
#
# Bare 'x' abbreviates x[0,1].  Unary minus binds looser than '^', so
# -x^2 is -(x^2), as SymPoly.format writes it.  Expressions evaluate to a
# Poly; parse_element's conversion to SymPoly refuses a non-symmetric one.


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(text[start:pos])
        elif ch in "+-*^()[],x":
            tokens.append(ch)
            pos += 1
        else:
            raise DomainError(f"unexpected character {ch!r} in expression")
    return tokens


class _ExprParser:
    def __init__(self, d, tokens):
        self.d = d
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise DomainError("expression ends too early")
        if expected is not None and tok != expected:
            raise DomainError(f"expected {expected!r} in expression, found {tok!r}")
        self.pos += 1
        return tok

    def natural(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise DomainError(f"expected a number in expression, found {tok!r}")
        return quiver.parse_number(tok, int)

    def parse(self) -> Poly:
        result = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing tokens in expression: {self.peek()!r}")
        return result

    def expr(self):
        left = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            right = self.term()
            left = left + right if op == "+" else left - right
        return left

    def term(self):
        left = self.factor()
        while self.peek() == "*":
            self.take("*")
            left = left * self.factor()
        return left

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        while self.peek() == "^":
            self.take("^")
            base = base ** self.natural()
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        if tok == "x":
            self.take()
            if self.peek() == "[":
                self.take("[")
                i = self.natural()
                self.take(",")
                k = self.natural()
                self.take("]")
            else:
                i, k = 0, 1
            if not (i < len(self.d) and 1 <= k <= self.d[i]):
                raise DomainError(f"no variable x[{i},{k}] in degree {self.d}")
            return Poly.variable(sum(self.d), sum(self.d[:i]) + k - 1)
        if tok is None:
            raise DomainError("expression ends too early")
        if tok.isdigit():
            return Poly.const(sum(self.d), self.natural())
        raise DomainError(f"unexpected token {tok!r} in expression")


def parse_element(fq, text: str) -> coha.SymPoly:
    """Parse "d=<dims>:<expression>" into a graded element."""
    if ":" not in text:
        raise DomainError("element must look like d=<dims>:<expression>")
    head, body = text.split(":", 1)
    head = head.strip()
    if not head.startswith("d="):
        raise DomainError("element must start with d=<dims>")
    d = _parse_dim(head[2:], fq)
    try:
        poly = _ExprParser(d, _tokenize(body)).parse()
    except RecursionError:
        raise DomainError("expression nests too deeply") from None
    return coha.SymPoly.from_poly(fq, d, poly)


# -- subcommand implementations ---------------------------------------------------


def _emit_cells(args, fq, order, trees) -> None:
    rows = [
        {
            "tree": cells.format_tree(fq, s),
            "dim": cells.cell_dim(fq, s, order),
            "partition": partitions.format_partition(
                partitions.tree_to_partition(fq, s, order)
            ),
        }
        for s in trees
    ]
    _emit(args, rows, lambda r: f"{r['tree']} dim={r['dim']} partition={r['partition']}")


def cmd_trees(args) -> int:
    fq = _load_quiver(args.quiver)
    order = _parse_order(args, fq)
    d = _parse_dim(args.dim, fq)
    _emit_cells(args, fq, order, cells.enumerate_trees(fq, d, order))
    return 0


def cmd_partitions(args) -> int:
    fq = _load_quiver(args.quiver)
    d = _parse_dim(args.dim, fq)
    rows = [
        {
            "partition": partitions.format_partition(lam),
            "dim": partitions.partition_cell_dim(fq, d, lam),
        }
        for lam in partitions.cell_labels(fq, d)
    ]
    _emit(args, rows, lambda r: f"{r['partition']} dim={r['dim']}")
    return 0


def cmd_bijection(args) -> int:
    fq = _load_quiver(args.quiver)
    order = _parse_order(args, fq)
    if (args.tree is None) == (args.partition is None):
        raise DomainError("give exactly one of --tree or --partition")
    if args.tree is not None:
        s = cells.parse_tree(fq, order, args.tree)
        lam = partitions.tree_to_partition(fq, s, order)
        shown = "partition"
    else:
        if args.dim is None:
            raise DomainError("--partition needs --dim to fix the shape")
        d = _parse_dim(args.dim, fq)
        lam = partitions.parse_partition(fq, d, args.partition)
        s = partitions.partition_to_tree(fq, lam, order)
        shown = "tree"
    row = {
        "tree": cells.format_tree(fq, s),
        "partition": partitions.format_partition(lam),
    }
    _emit(args, [row], lambda r: r[shown])
    return 0


def cmd_series(args) -> int:
    fq = _load_quiver(args.quiver)
    d = _parse_dim(args.dim, fq)
    poly = series.motivic_class(fq, d)
    if args.json:
        for e, c in poly.coeffs:
            print(json.dumps({"degree": e, "coeff": c}, sort_keys=True))
    else:
        print(str(poly))
    return 0


def cmd_betti(args) -> int:
    fq = _load_quiver(args.quiver)
    d = _parse_dim(args.dim, fq)
    rows = [
        {"degree": deg, "coeff": rank} for deg, rank in series.betti_numbers(fq, d)
    ]
    _emit(args, rows, lambda r: f"{r['degree']}:{r['coeff']}")
    return 0


def cmd_shuffle(args) -> int:
    fq = _load_quiver(args.quiver)
    left = parse_element(fq, args.left)
    right = parse_element(fq, args.right)
    result = coha.shuffle_product(left, right)
    if args.json:
        print(json.dumps({"dim": list(result.d), "poly": result.format()}, sort_keys=True))
    else:
        print(f"d={','.join(str(x) for x in result.d)}: {result.format()}")
    return 0


def cmd_verify_basis(args) -> int:
    fq = _load_quiver(args.quiver)
    d = _parse_dim(args.dim, fq)
    if args.max_degree is not None and args.max_degree < 0:
        raise DomainError("--max-degree must be non-negative")
    top = coha.top_degree(fq, d)
    max_degree = args.max_degree if args.max_degree is not None else max(top + 1, 0)

    def text_of(r: dict) -> str:
        return (
            f"n={r['degree']} h={r['h_dim']} kernel={r['kernel_dim']} "
            f"quotient={r['quotient_dim']} partitions={r['partition_count']} "
            f"{'PASS' if r['independent'] else 'FAIL'}"
        )

    # each degree is printed when it is done, so a long sweep shows its
    # progress and an error leaves the finished degrees on stdout
    independent = True
    for n in range(max_degree + 1):
        row = asdict(coha.verify_basis(fq, d, n))
        del row["d"], row["n"]
        row = {"degree": n, **row}
        _emit(args, [row], text_of)
        sys.stdout.flush()
        independent = independent and row["independent"]
    return 0 if independent else 1


def cmd_charts(args) -> int:
    fq = _load_quiver(args.quiver)
    order = _parse_order(args, fq)
    target = cells.parse_tree(fq, order, args.target)
    chart_tree = cells.parse_tree(fq, order, args.chart)
    chart = charts.make_chart(fq, chart_tree, order)
    minors = charts.membership_minors(fq, target, chart_tree, order)
    # before any row, so a refused multiplicity prints only its error line
    power = charts.multiplicity_power(fq, target, chart_tree, order) if args.multiplicity else None
    rows = [{"minor": chart.format_poly(m)} for m in minors]
    _emit(args, rows, lambda r: r["minor"])
    if args.multiplicity:
        text = "indeterminate" if power is None else str(power)
        if args.json:
            print(json.dumps({"multiplicity": power}, sort_keys=True))
        else:
            print(f"multiplicity={text}")
    return 0


def cmd_classify(args) -> int:
    fq = _load_quiver(args.quiver)
    order = _parse_order(args, fq)
    try:
        text = FilePath(args.rep).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read representation file: {exc}") from None
    rep = cells.parse_rep_file(fq, text)
    _emit_cells(args, fq, order, [cells.classify(fq, rep, order)])
    return 0


def cmd_check(args) -> int:
    width = max(len(name) for name in checks.CHECKS)
    failed = 0
    for name, check in checks.CHECKS.items():
        failures = check(Random(args.seed))
        print(f"{name.ljust(width)}  {'FAIL' if failures else 'PASS'}")
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        failed += bool(failures)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coha-lab",
        description="Exact computations around cell decompositions of framed "
        "quiver moduli and their shuffle algebra modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_order=True, with_dim=False):
        p.add_argument("-q", "--quiver", required=True, help="quiver file")
        if with_dim:
            p.add_argument("--dim", required=True, help="dimension vector, e.g. 3 or 2,1")
        if with_order:
            p.add_argument(
                "--order",
                choices=["shortlex", "lex", "wshortlex"],
                default="shortlex",
            )
            p.add_argument(
                "--weights",
                help="arrow weights for wshortlex, e.g. a=1,b=2 (default 1)",
            )
        p.add_argument("--json", action="store_true", help="one JSON object per row")

    p = sub.add_parser("trees", help="enumerate cell labels")
    common(p, with_dim=True)
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("partitions", help="enumerate partition labels")
    common(p, with_order=False, with_dim=True)
    p.set_defaults(fn=cmd_partitions)

    p = sub.add_parser("bijection", help="convert between tree and partition labels")
    common(p)
    p.add_argument("--dim", help="dimension vector (needed with --partition)")
    p.add_argument("--tree", help="comma-separated paths, e.g. f,af,baf")
    p.add_argument("--partition", help='bracket groups, e.g. "[2]" or "[2,1][0]"')
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("series", help="motivic counting series")
    common(p, with_order=False, with_dim=True)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("betti", help="Betti numbers (degree:rank pairs)")
    common(p, with_order=False, with_dim=True)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("shuffle", help="shuffle product of two graded elements")
    common(p, with_order=False)
    p.add_argument("--left", required=True, help='element, e.g. "d=1:x"')
    p.add_argument("--right", required=True, help='element, e.g. "d=1:1"')
    p.set_defaults(fn=cmd_shuffle)

    p = sub.add_parser("verify-basis", help="tautological basis verification table")
    common(p, with_order=False, with_dim=True)
    p.add_argument("--max-degree", type=int, help="top degree to check (default: auto)")
    p.set_defaults(fn=cmd_verify_basis)

    p = sub.add_parser("charts", help="degeneracy minors in a chart")
    common(p)
    p.add_argument("--target", required=True, help="target subtree, e.g. f,af,bf")
    p.add_argument("--chart", required=True, help="chart subtree, e.g. f,bf,abf")
    p.add_argument("--multiplicity", action="store_true")
    p.set_defaults(fn=cmd_charts)

    p = sub.add_parser("classify", help="classify a representation file into its cell")
    common(p)
    p.add_argument("-r", "--rep", required=True, help="representation file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("check", help="run the built-in property suite")
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.set_defaults(fn=cmd_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, quiver.QuiverError, cells.CellError, coha.CohaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
