import os
import pickle
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohalab import (
    FramedQuiver,
    Quiver,
    QuiverError,
    enumerate_trees,
    euler_form,
    motivic_class,
    parse_quiver_file,
    serialize_quiver_file,
)
from cohalab.quiver import INF_VERTEX
from conftest import framed_a2, framed_loops, loop_quiver, vertex_only


def test_euler_form_two_loop():
    q = loop_quiver(2)
    assert euler_form(q, (3,), (3,)) == -9


def test_euler_form_no_arrows():
    q = Quiver.make(1, [])
    assert euler_form(q, (2,), (3,)) == 6


def test_euler_form_a2():
    q = Quiver.make(2, [("a", 0, 1)])
    assert euler_form(q, (1, 1), (1, 1)) == 1


def test_dimension_entries_must_be_integers(two_loop, shortlex):
    # each of these was truncated or parsed to an integer before
    for bad in (2.9, Fraction(5, 2), "3"):
        with pytest.raises(QuiverError, match="dimension vector entries must be integers"):
            enumerate_trees(two_loop, (bad,), shortlex)
        with pytest.raises(QuiverError, match="dimension vector entries must be integers"):
            motivic_class(two_loop, (bad,))
    with pytest.raises(QuiverError, match="framing entries must be integers"):
        FramedQuiver(loop_quiver(2), (1.0,))


def test_euler_form_length_mismatch():
    q = loop_quiver(2)
    with pytest.raises(QuiverError):
        euler_form(q, (1, 2), (1,))


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_euler_form_bilinear(d1, d2, e):
    q = Quiver.make(2, [("a", 0, 1), ("b", 1, 0), ("c", 0, 0)])
    total = tuple(a + b for a, b in zip(d1, d2))
    assert euler_form(q, total, e) == euler_form(q, d1, e) + euler_form(q, d2, e)
    assert euler_form(q, e, total) == euler_form(q, e, d1) + euler_form(q, e, d2)


def test_critical_dim_vector_examples():
    assert framed_loops(2, 1).critical_dim_vector((2,)) == (3,)
    assert vertex_only(4).critical_dim_vector((2,)) == (2,)
    assert vertex_only(1).critical_dim_vector((2,)) == (-1,)


def test_critical_dim_vector_identity(two_loop):
    # c(d) . e = w . e - chi(d, e) on unit vectors, by definition
    d = (3,)
    c = two_loop.critical_dim_vector(d)
    assert c[0] == two_loop.framing[0] - euler_form(two_loop.base, d, (1,))


def test_hilb_dim_examples(two_loop):
    assert two_loop.hilb_dim((3,)) == 12
    assert vertex_only(4).hilb_dim((2,)) == 4
    assert two_loop.hilb_dim((0,)) == 0


def test_hilb_dim_is_critical_dot_d(two_loop, a2):
    for fq, dims in [(two_loop, [(1,), (2,), (3,)]), (a2, [(1, 0), (1, 1), (2, 1)])]:
        for d in dims:
            c = fq.critical_dim_vector(d)
            assert fq.hilb_dim(d) == sum(ci * di for ci, di in zip(c, d))


def test_parse_two_loop():
    fq = parse_quiver_file(b"vertices 1\narrow a 0 0\narrow b 0 0\nframing 1")
    assert [a.name for a in fq.arrows] == ["g0_1", "a", "b"]
    assert fq.framing == (1,)


def test_parse_refuses_bytes_that_are_not_utf8():
    with pytest.raises(QuiverError, match="not UTF-8"):
        parse_quiver_file(b"vertices 1\n\xff\nframing 1")


def test_parse_framed_a2():
    fq = parse_quiver_file("vertices 2\narrow a 0 1\nframing 1 0")
    assert fq.vertex_count == 2
    assert fq.framing == (1, 0)
    assert fq.arrows[0].target == 0


def test_parse_out_of_range():
    with pytest.raises(QuiverError):
        parse_quiver_file("vertices 1\narrow a 0 5\nframing 1")


def test_parse_duplicate_name():
    with pytest.raises(QuiverError):
        parse_quiver_file("vertices 1\narrow a 0 0\narrow a 0 0\nframing 1")


def test_parse_error_carries_line_number():
    with pytest.raises(QuiverError, match="line 2"):
        parse_quiver_file("vertices 1\narrow a zero 0\nframing 1")


def test_parse_serialize_roundtrip():
    text = "vertices 2\narrow a 0 1\narrow b 1 1\nframing 2 1\nframenames e f g\n"
    fq = parse_quiver_file(text)
    again = parse_quiver_file(serialize_quiver_file(fq))
    assert again == fq
    assert serialize_quiver_file(again) == serialize_quiver_file(fq)


def test_framing_arrow_order_two_framings():
    fq = framed_loops(2, 2)
    assert [a.name for a in fq.arrows] == ["e", "f", "a", "b"]


def test_framing_name_count_checked():
    with pytest.raises(QuiverError):
        FramedQuiver(loop_quiver(1), (2,), ["only_one"])


TWO_CYCLE = FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0)]), (1, 1))


@pytest.mark.parametrize(
    "fq",
    [framed_loops(2, 1), framed_a2(1), framed_a2(2), TWO_CYCLE, vertex_only(3)],
    ids=["two-loop", "a2-w1", "a2-w2", "two-cycle", "point"],
)
def test_arrow_tables_match_scan(fq):
    for v in list(range(fq.vertex_count)) + [INF_VERTEX]:
        scan = tuple(i for i, a in enumerate(fq.arrows) if a.source == v)
        assert fq.out_arrows[v] == scan
    assert fq.targets == tuple(a.target for a in fq.arrows)


def test_equal_quivers_hash_equal_and_repr_unchanged():
    built = FramedQuiver(loop_quiver(1), (1,), ["f"])
    parsed = parse_quiver_file("vertices 1\narrow a 0 0\nframing 1\nframenames f\n")
    assert built is not parsed
    assert built == parsed and hash(built) == hash(parsed)
    assert repr(built) == repr(parsed) == (
        "FramedQuiver(base=Quiver(vertex_count=1, arrows=(Arrow(name='a', source=0, "
        "target=0),)), framing=(1,), arrows=(Arrow(name='f', source=-1, target=0), "
        "Arrow(name='a', source=0, target=0)), framing_count=1)"
    )
    assert built != FramedQuiver(loop_quiver(1), (1,), ["g"])
    assert built != FramedQuiver(loop_quiver(1), (2,))


def test_pickled_quiver_rehashes_where_loaded():
    # string hashes differ between processes, so a cached hash must not travel
    fq = framed_loops(2, 2)
    script = (
        "import pickle, sys; from cohalab.checks import framed_loops; "
        "sys.stdout.buffer.write(pickle.dumps(framed_loops(2, 2)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
    loaded = pickle.loads(
        subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    )
    assert loaded == fq and hash(loaded) == hash(fq)
    assert loaded.out_arrows == fq.out_arrows and loaded.targets == fq.targets
