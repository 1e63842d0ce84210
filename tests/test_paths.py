from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohalab import PathOrder, format_path, parse_path
from cohalab.paths import ROOT, WSHORTLEX, parent
from conftest import framed_a2, framed_loops
from helpers import children, is_prefix, monomial_axiom_check, paths_up_to_length


def p(fq, text):
    return parse_path(fq, text)


def test_shortlex_af_bf(two_loop, shortlex):
    assert shortlex.compare(p(two_loop, "af"), p(two_loop, "bf")) == -1


def test_lex_paper_counterexample_pair(two_loop, lex):
    # af < a^2f yet baf > ba^2f
    assert lex.compare(p(two_loop, "af"), p(two_loop, "aaf")) == -1
    assert lex.compare(p(two_loop, "baf"), p(two_loop, "baaf")) == 1


def test_shortlex_equal_length(two_loop, shortlex):
    assert shortlex.compare(p(two_loop, "aaf"), p(two_loop, "baf")) == -1


def test_children_root(two_loop):
    assert children(two_loop, ROOT) == [p(two_loop, "f")]


def test_children_of_f(two_loop):
    assert children(two_loop, p(two_loop, "f")) == [
        p(two_loop, "af"),
        p(two_loop, "bf"),
    ]


def test_children_a2():
    fq = framed_a2(1)
    f = p(fq, "f")
    assert children(fq, f) == [p(fq, "af")]


def test_parent_of_child(two_loop):
    for u in paths_up_to_length(two_loop, 3):
        for c in children(two_loop, u):
            assert parent(c) == u


def test_monomial_axiom_shortlex_clean(two_loop, shortlex):
    assert monomial_axiom_check(two_loop, shortlex, 5) is None


def test_monomial_axiom_weighted_clean(two_loop):
    order = PathOrder.weighted_shortlex(two_loop, {"a": 1, "b": 2})
    assert monomial_axiom_check(two_loop, order, 5) is None


@pytest.mark.parametrize(
    "build",
    [
        lambda fq: PathOrder(WSHORTLEX, (1, 0.5, 1)),
        lambda fq: PathOrder.weighted_shortlex(fq, {"a": 0.5}),
    ],
    ids=["PathOrder", "weighted_shortlex"],
)
def test_a_float_weight_is_refused(two_loop, build):
    with pytest.raises(TypeError, match="inexact"):
        build(two_loop)


def test_monomial_axiom_lex_violation(two_loop, lex):
    # scan order finds (b, f, af) first; the pair from the worked example,
    # (b, af, a^2f), is a genuine violation as well and both are checked
    hit = monomial_axiom_check(two_loop, lex, 4)
    assert hit is not None
    a, u, v = hit
    assert lex.compare(u, v) == -1
    assert lex.compare(u + (a,), v + (a,)) == 1
    assert (format_path(two_loop, u), format_path(two_loop, v)) == ("f", "af")
    b = two_loop.arrow_index("b")
    af, aaf = p(two_loop, "af"), p(two_loop, "aaf")
    assert lex.compare(af, aaf) == -1
    assert lex.compare(af + (b,), aaf + (b,)) == 1


@pytest.mark.parametrize("kind", ["shortlex", "lex", "weighted"])
def test_total_order_up_to_length_five(two_loop, kind):
    if kind == "weighted":
        order = PathOrder.weighted_shortlex(two_loop, {"a": 1, "b": "3/2"})
    elif kind == "lex":
        order = PathOrder.lex()
    else:
        order = PathOrder.shortlex()
    pool = paths_up_to_length(two_loop, 5)
    keys = [order.key(u) for u in pool]
    assert len(set(keys)) == len(keys)  # antisymmetry on distinct paths
    ranked = sorted(pool, key=order.key)
    for u, v in zip(ranked, ranked[1:]):
        assert order.compare(u, v) == -1  # transitive chain is consistent


@pytest.mark.parametrize(
    "weights",
    [
        {"a": "1/2", "b": "2/3", "c": "5/7"},
        {"a": "3/2", "b": 1, "c": "7/4"},
        {"a": "1/2", "b": 1, "c": "1/3"},  # aaf and bf tie in weight
        {"a": Fraction(1, 2), "b": 2, "c": Fraction(5, 7)},
    ],
)
def test_integer_weighted_keys_sort_like_fraction_keys(weights):
    fq = framed_loops(3, 1)
    order = PathOrder.weighted_shortlex(fq, weights)

    def fraction_key(u):
        return (sum((order.weights[a] for a in u), Fraction(0)), len(u), u)

    pool = paths_up_to_length(fq, 5)
    assert all(type(order.key(u)[0]) is int for u in pool)
    assert sorted(pool, key=order.key) == sorted(pool, key=fraction_key)


@pytest.mark.parametrize("kind", ["shortlex", "lex", "weighted"])
def test_admissibility_prefix_implies_less(two_loop, kind):
    if kind == "weighted":
        order = PathOrder.weighted_shortlex(two_loop, {"a": 2, "b": 1})
    elif kind == "lex":
        order = PathOrder.lex()
    else:
        order = PathOrder.shortlex()
    pool = paths_up_to_length(two_loop, 5)
    for u, v in combinations(pool, 2):
        if is_prefix(u, v) and u != v:
            assert order.compare(u, v) == -1
        if is_prefix(v, u) and u != v:
            assert order.compare(v, u) == -1


_POOL_FQ = framed_loops(2, 1)
_POOL = paths_up_to_length(_POOL_FQ, 3)


@given(st.sampled_from(_POOL), st.sampled_from(_POOL))
def test_compare_is_sign_of_key_difference(u, v):
    order = PathOrder.shortlex()
    c = order.compare(u, v)
    if order.key(u) < order.key(v):
        assert c == -1
    elif order.key(u) == order.key(v):
        assert c == 0 and u == v
    else:
        assert c == 1


def test_format_and_parse_roundtrip(two_loop):
    for text in ["f", "af", "baf", "bbaf", "abbf"]:
        path = p(two_loop, text)
        assert format_path(two_loop, path) == text
        assert parse_path(two_loop, format_path(two_loop, path, dotted=True)) == path


def test_dotted_display(two_loop):
    assert format_path(two_loop, p(two_loop, "bbaf"), dotted=True) == "b.b.a.f"


def test_weights_must_cover_positive():
    fq = framed_loops(2, 1)
    with pytest.raises(ValueError):
        PathOrder.weighted_shortlex(fq, {"a": 0})
