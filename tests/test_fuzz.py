"""Fuzz tests: every parser returns a value or raises its domain error.

File and expression inputs are well-formed texts of each grammar, one in
four broken by a mutation, so that both outcomes are exercised; the
partition and path parsers get raw text over their alphabets.  Numbers
stay small: a framing of 10^8 would build 10^8 arrows, and "(x+1)^9999"
an enormous polynomial, which are costs and not parser faults.  The
examples are derandomised so that the suite is deterministic.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cohalab import (
    CellError,
    PathOrder,
    QuiverError,
    parse_partition,
    parse_path,
    parse_quiver_file,
    parse_rep_file,
    parse_tree,
    serialize_quiver_file,
)
from cohalab.cli import run
from conftest import framed_a2, framed_loops

DOMAIN_ERRORS = (QuiverError, CellError)
FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

junk = st.text(alphabet="xyz#-/.:é\t", min_size=1, max_size=3)
small_numbers = st.sampled_from(["-1", "0", "1", "2", "3", "1/2", "1/0", "0.5"])


@st.composite
def mutated(draw, lines):
    """Well-formed lines, sometimes reordered, dropped, or salted with junk."""
    lines = list(lines)
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 2))):
        words = draw(st.lists(st.one_of(junk, small_numbers), min_size=1, max_size=3))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(words))
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        words = lines[k].split() or [""]
        words[draw(st.integers(0, len(words) - 1))] = draw(st.one_of(junk, small_numbers))
        lines[k] = " ".join(words)
    return "\n".join(lines)


def maybe_mutated(draw, lines):
    """One text in four is broken by mutated()."""
    return draw(mutated(lines)) if draw(st.integers(0, 3)) == 0 else "\n".join(lines)


names = st.sampled_from(["a", "b", "c", "f", "f1"])
numbers = st.one_of(st.integers(-1, 3).map(str), small_numbers)


@st.composite
def quiver_texts(draw):
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1).map(str)
    lines = [f"vertices {n}"]
    for name in draw(st.lists(names, max_size=3)):
        lines.append(f"arrow {name} {draw(vertex)} {draw(vertex)}")
    framing = draw(st.lists(st.integers(0, 2).map(str), min_size=n, max_size=n))
    lines.append(" ".join(["framing"] + framing))
    if draw(st.booleans()):
        lines.append(" ".join(["framenames"] + draw(st.lists(names, max_size=3))))
    return maybe_mutated(draw, lines)


@FUZZ
@given(quiver_texts())
def test_parse_quiver_file_is_total(text):
    try:
        fq = parse_quiver_file(text)
    except QuiverError:
        return
    assert parse_quiver_file(serialize_quiver_file(fq)) == fq


@st.composite
def rep_texts(draw):
    """Two-loop representation files of dimension k."""
    k = draw(st.integers(0, 3))
    row = st.lists(numbers, min_size=k, max_size=k).map(" ".join)
    lines = [f"rep {k}"]
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", "f"]), max_size=3)):
        lines.append(f"matrix {name}")
        lines.extend(draw(st.lists(row, min_size=k, max_size=k)))
    if draw(st.booleans()):
        lines.append(f"framing {draw(numbers)} {draw(numbers)}")
        lines.extend(draw(st.lists(numbers, min_size=k, max_size=k)))
    return maybe_mutated(draw, lines)


@FUZZ
@given(rep_texts())
@example("rep -1\nmatrix a\n1")  # a negative block height used to loop forever
def test_parse_rep_file_is_total(text):
    try:
        parse_rep_file(framed_loops(2, 1), text)
    except DOMAIN_ERRORS:
        pass


@FUZZ
@given(
    st.sampled_from([(framed_loops(2, 1), (3,)), (framed_a2(2), (2, 1))]),
    st.text(alphabet="[],0123 -x", max_size=12),
)
def test_parse_partition_is_total(fq_and_dim, text):
    fq, d = fq_and_dim
    try:
        parse_partition(fq, d, text)
    except DOMAIN_ERRORS:
        pass


PATH_QUIVERS = [framed_loops(2, 1), framed_a2(2)]


@FUZZ
@given(
    st.sampled_from(PATH_QUIVERS),
    st.sampled_from([PathOrder.shortlex(), PathOrder.lex()]),
    st.text(alphabet="abff1f2g1*., z", max_size=16),
)
def test_parse_tree_and_path_are_total(fq, order, text):
    for parse in (lambda: parse_path(fq, text), lambda: parse_tree(fq, order, text)):
        try:
            parse()
        except DOMAIN_ERRORS:
            pass


# leaves per degree, with single-digit exponents on leaves only, keep every
# element small; x[0,2] alone is the one leaf that is not symmetric
LEAVES = {
    "d=0": ["1", "2", "3"],
    "d=1": ["x", "x[0,1]", "( x + 1 )", "2"],
    "d=2": ["( x[0,1] + x[0,2] )", "x[0,1] * x[0,2]", "x[0,2]", "3"],
}


@st.composite
def elements(draw):
    """'d=<dims>:<expression>' texts; one in four is broken by a mutation."""
    head, sep = draw(st.sampled_from(sorted(LEAVES))), ":"
    factor = st.sampled_from(LEAVES[head])
    body = [draw(st.sampled_from(["", "-"]))]
    for k in range(draw(st.integers(1, 3))):
        if k:
            body.append(draw(st.sampled_from("+-*")))
        body.append(draw(factor))
        if draw(st.booleans()):
            body.append("^ " + draw(st.sampled_from("0123")))
    tokens = " ".join(body).split()
    mutation = draw(st.integers(0, 11))
    if mutation == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif mutation == 1:
        extra = draw(st.sampled_from(["x[", "x[1,1]", "]", ",", "^", "(", ")", "@", "12"]))
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    elif mutation == 2:
        head = draw(st.sampled_from(["d=1,1", "d=-1", "d=x", "e=1", "d=", "d=2", "d=0"]))
        sep = draw(st.sampled_from([":", ""]))
    return head + sep + " ".join(tokens)


def test_shuffle_cli_is_total(tmp_path):
    files = {}
    for name, text in [
        ("twoloop", "vertices 1\narrow a 0 0\narrow b 0 0\nframing 1\n"),
        ("point", "vertices 1\nframing 1\n"),
    ]:
        files[name] = tmp_path / f"{name}.q"
        files[name].write_text(text, encoding="utf-8")

    @FUZZ
    @given(st.sampled_from(sorted(files)), elements(), elements())
    def check(quiver, left, right):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            argv = ["shuffle", "-q", str(files[quiver]), f"--left={left}", f"--right={right}"]
            code = run(argv)
        if code == 0:
            assert out.getvalue().count("\n") == 1 and err.getvalue() == ""
        else:
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    check()
