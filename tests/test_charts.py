from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import cohalab.charts as charts
from cohalab import (
    CellError,
    PathOrder,
    cell_dim,
    chart_coordinates,
    classify,
    enumerate_trees,
    format_tree,
    in_degeneracy_locus,
    make_chart,
    membership_minors,
    multiplicity_power,
    parse_path,
    parse_tree,
    rep_from_chart,
    symbolic_vector,
    tree_leq,
)
from cohalab.polys import Poly, det_bareiss
from conftest import vertex_only
from helpers import D3_MULTIPLICITIES, D4_MULTIPLICITIES, evaluate, paths_up_to_length, substitute


def test_chart_coordinate_counts(two_loop, shortlex):
    # 4 basis paths x 5 critical paths; always the moduli dimension
    s = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    pairs = chart_coordinates(two_loop, s, shortlex)
    assert len(pairs) == 20 == two_loop.hilb_dim((4,))

    s1 = parse_tree(two_loop, shortlex, "f")
    pairs1 = chart_coordinates(two_loop, s1, shortlex)
    assert len(pairs1) == 2 == two_loop.hilb_dim((1,))
    assert {(u, v) for u, v in pairs1} == {
        (parse_path(two_loop, "f"), parse_path(two_loop, "af")),
        (parse_path(two_loop, "f"), parse_path(two_loop, "bf")),
    }

    point = vertex_only(1)
    s2 = parse_tree(point, shortlex, "g0_1")
    assert chart_coordinates(point, s2, shortlex) == []


def test_chart_count_every_tree(two_loop, a2, shortlex, lex):
    for fq, dims in [(two_loop, [(1,), (2,), (3,)]), (a2, [(1, 0), (1, 1), (2, 1)])]:
        for d in dims:
            for order in (shortlex, lex):
                for s in enumerate_trees(fq, d, order):
                    assert len(chart_coordinates(fq, s, order)) == fq.hilb_dim(d)


def test_symbolic_vector_basis_paths_are_units(two_loop, shortlex):
    s = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    vec = symbolic_vector(two_loop, s, shortlex, parse_path(two_loop, "bf"))
    values = [p.const_value() if p.is_const() else None for p in vec]
    assert values == [0, 1, 0, 0]


def test_symbolic_vector_critical_is_coordinates(two_loop, shortlex):
    s = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    chart = make_chart(two_loop, s, shortlex)
    vec = symbolic_vector(two_loop, s, shortlex, parse_path(two_loop, "af"))
    assert [chart.format_poly(p) for p in vec] == [
        "c[f,af]",
        "c[bf,af]",
        "c[abf,af]",
        "c[bbf,af]",
    ]
    with pytest.raises(CellError, match=r"c\[af,bf\] is not a chart coordinate"):
        chart.var_index(parse_path(two_loop, "af"), parse_path(two_loop, "bf"))


def test_symbolic_vector_nested_expansion(two_loop, shortlex):
    # the coefficient on the last basis vector of the expansion of b.a.f
    s = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    chart = make_chart(two_loop, s, shortlex)
    vec = symbolic_vector(two_loop, s, shortlex, parse_path(two_loop, "baf"))
    coeff = vec[3]
    c21 = Poly.variable(chart.nvars, chart.var_index(parse_path(two_loop, "bf"), parse_path(two_loop, "af")))
    c31 = Poly.variable(chart.nvars, chart.var_index(parse_path(two_loop, "abf"), parse_path(two_loop, "af")))
    c41 = Poly.variable(chart.nvars, chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "af")))
    c43 = Poly.variable(chart.nvars, chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "babf")))
    c45 = Poly.variable(chart.nvars, chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "bbbf")))
    assert coeff == c21 + c31 * c43 + c41 * c45
    # with c41 = 0 imposed this is the classical two-term coefficient
    idx_c41 = chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "af"))
    killed = substitute(coeff, {idx_c41: Poly.zero(chart.nvars)})
    assert killed == c21 + c31 * c43


def test_minors_vanish_on_solved_parametrization(two_loop, shortlex):
    target = parse_tree(two_loop, shortlex, "f,af,bf,bbf")
    chart_tree = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    chart = make_chart(two_loop, chart_tree, shortlex)
    minors = membership_minors(two_loop, target, chart_tree, shortlex)
    assert len(minors) == 3
    af = parse_path(two_loop, "af")
    idx_c41 = chart.var_index(parse_path(two_loop, "bbf"), af)
    idx_c42 = chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "aabf"))
    idx_c21 = chart.var_index(parse_path(two_loop, "bf"), af)
    idx_c31 = chart.var_index(parse_path(two_loop, "abf"), af)
    idx_c43 = chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "babf"))
    n = chart.nvars
    substitution = {
        idx_c41: Poly.zero(n),
        idx_c42: Poly.zero(n),
        idx_c21: -(Poly.variable(n, idx_c31) * Poly.variable(n, idx_c43)),
    }
    for m in minors:
        assert substitute(m, substitution).is_zero()


def test_minors_in_own_chart_vanish_on_cell(two_loop, shortlex):
    for s in enumerate_trees(two_loop, (3,), shortlex):
        chart = make_chart(two_loop, s, shortlex)
        dead = [
            k
            for k, (u, v) in enumerate(chart.coords)
            if shortlex.compare(u, v) > 0
        ]
        zeros = {k: Poly.zero(chart.nvars) for k in dead}
        for m in membership_minors(two_loop, s, s, shortlex):
            assert substitute(m, zeros).is_zero()


def test_minor_reduces_to_pure_square(two_loop, shortlex):
    # d=3: after the first condition forces c[abf,af]=0, the remaining
    # determinant collapses to c[bf,af]^2
    target = parse_tree(two_loop, shortlex, "f,af,baf")
    chart_tree = parse_tree(two_loop, shortlex, "f,bf,abf")
    chart = make_chart(two_loop, chart_tree, shortlex)
    minors = membership_minors(two_loop, target, chart_tree, shortlex)
    assert len(minors) == 2
    af = parse_path(two_loop, "af")
    idx_c31 = chart.var_index(parse_path(two_loop, "abf"), af)
    idx_c21 = chart.var_index(parse_path(two_loop, "bf"), af)
    n = chart.nvars
    first, second = minors
    assert first == -Poly.variable(n, idx_c31)
    reduced = substitute(second, {idx_c31: Poly.zero(n)})
    assert reduced == Poly.variable(n, idx_c21) ** 2


def test_multiplicity_shortlex(two_loop, shortlex):
    s3 = parse_tree(two_loop, shortlex, "f,af,baf")
    s4 = parse_tree(two_loop, shortlex, "f,bf,abf")
    assert multiplicity_power(two_loop, s3, s4, shortlex) == 2


def test_multiplicity_lex(two_loop, lex):
    s3 = parse_tree(two_loop, lex, "f,af,bf")
    s4 = parse_tree(two_loop, lex, "f,bf,abf")
    assert multiplicity_power(two_loop, s3, s4, lex) == 4


def test_multiplicity_diagonal(two_loop, shortlex, lex):
    for order in (shortlex, lex):
        for s in enumerate_trees(two_loop, (3,), order):
            assert multiplicity_power(two_loop, s, s, order) == 1


def test_multiplicity_requires_equal_dims(two_loop, shortlex):
    s1 = parse_tree(two_loop, shortlex, "f,af,bf")
    s5 = parse_tree(two_loop, shortlex, "f,bf,bbf")
    with pytest.raises(CellError):
        multiplicity_power(two_loop, s1, s5, shortlex)


def test_symbolic_matches_numeric_at_random_point(two_loop, shortlex):
    rng = Random(23)
    s = parse_tree(two_loop, shortlex, "f,bf,abf")
    coords = chart_coordinates(two_loop, s, shortlex)
    values = {pair: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for pair in coords}
    rep = rep_from_chart(two_loop, s, shortlex, values)
    point = [values[pair] for pair in coords]
    for path in paths_up_to_length(two_loop, sum(rep.d) + 2):
        if not path:
            continue
        sym = symbolic_vector(two_loop, s, shortlex, path)
        assert tuple(evaluate(p, point) for p in sym) == rep.path_vector(path)


def test_chart_point_on_minors_classifies_above_target(two_loop, shortlex):
    rng = Random(31)
    target = parse_tree(two_loop, shortlex, "f,af,bf,bbf")
    chart_tree = parse_tree(two_loop, shortlex, "f,bf,abf,bbf")
    chart = make_chart(two_loop, chart_tree, shortlex)
    af = parse_path(two_loop, "af")
    pin = {
        (parse_path(two_loop, "bbf"), af): None,  # c41 = 0
        (parse_path(two_loop, "bbf"), parse_path(two_loop, "aabf")): None,  # c42 = 0
    }
    for _ in range(5):
        values = {}
        for pair in chart.coords:
            values[pair] = (
                Fraction(0)
                if pair in pin
                else Fraction(rng.randint(-5, 5))
            )
        c31 = values[(parse_path(two_loop, "abf"), af)]
        c43 = values[
            (parse_path(two_loop, "bbf"), parse_path(two_loop, "babf"))
        ]
        values[(parse_path(two_loop, "bf"), af)] = -c31 * c43  # c21 solved
        rep = rep_from_chart(two_loop, chart_tree, shortlex, values)
        assert in_degeneracy_locus(two_loop, rep, target, shortlex)
        assert tree_leq(shortlex, target, classify(two_loop, rep, shortlex))


def test_rep_from_chart_cell_point_classifies_to_chart(two_loop, shortlex):
    rng = Random(37)
    for s in enumerate_trees(two_loop, (3,), shortlex):
        chart = make_chart(two_loop, s, shortlex)
        values = {}
        for u, v in chart.coords:
            if shortlex.compare(u, v) > 0:
                values[(u, v)] = Fraction(0)
            else:
                values[(u, v)] = Fraction(rng.randint(1, 7))
        rep = rep_from_chart(two_loop, s, shortlex, values)
        got = classify(two_loop, rep, shortlex)
        assert got.path_set == s.path_set
        assert in_degeneracy_locus(two_loop, rep, s, shortlex)


def test_rep_from_chart_rejects_stray_values(two_loop, shortlex):
    # (abf, bf) pairs two basis paths, so it is no coordinate of this chart
    s = parse_tree(two_loop, shortlex, "f,bf,abf")
    stray = (parse_path(two_loop, "abf"), parse_path(two_loop, "bf"))
    with pytest.raises(CellError, match=r"c\[abf,bf\] is not a chart coordinate"):
        rep_from_chart(two_loop, s, shortlex, {stray: Fraction(5)})


def test_shared_chart_hands_out_fresh_lists(two_loop, shortlex):
    # make_chart hands every caller the same chart; mutating what the
    # public functions return must not reach its memos
    s = parse_tree(two_loop, shortlex, "f,bf,abf")
    target = parse_tree(two_loop, shortlex, "f,af,baf")
    af = parse_path(two_loop, "af")
    assert make_chart(two_loop, s, shortlex) is make_chart(two_loop, s, shortlex)
    calls = [
        lambda: chart_coordinates(two_loop, s, shortlex),
        lambda: symbolic_vector(two_loop, s, shortlex, af),
        lambda: symbolic_vector(two_loop, s, shortlex, parse_path(two_loop, "bf")),
        lambda: membership_minors(two_loop, target, s, shortlex),
    ]
    for call in calls:
        first = call()
        assert isinstance(first, list) and first
        kept = list(first)
        first.append(first[0])
        first[0] = None
        del first[1]
        assert call() == kept
    assert multiplicity_power(two_loop, target, s, shortlex) == 2


def test_shared_chart_index_is_read_only(two_loop, shortlex):
    # every caller of make_chart shares var_of: writing to it must fail and
    # leave var_index and rep_from_chart as they were
    s = parse_tree(two_loop, shortlex, "f,bf,abf")
    chart = make_chart(two_loop, s, shortlex)
    values = {pair: Fraction(k - 3) for k, pair in enumerate(chart.coords)}
    indices = [chart.var_index(*pair) for pair in chart.coords]
    rep = rep_from_chart(two_loop, s, shortlex, values)
    first, stray = chart.coords[0], (parse_path(two_loop, "abf"), parse_path(two_loop, "bf"))
    with pytest.raises(TypeError):
        chart.var_of[first] = 5
    with pytest.raises(TypeError):
        chart.var_of[stray] = 0
    with pytest.raises(TypeError):
        del chart.var_of[first]
    later = make_chart(two_loop, s, shortlex)
    assert [later.var_index(*pair) for pair in later.coords] == indices == list(range(len(indices)))
    assert rep_from_chart(two_loop, s, shortlex, values) == rep
    with pytest.raises(CellError, match="not a chart coordinate"):
        later.var_index(*stray)


def multiplicity_table(fq, dim: int, kind: str) -> dict:
    """multiplicity_power of every equal-dimension pair, keyed by labels."""
    order = PathOrder.shortlex() if kind == "shortlex" else PathOrder.lex()
    trees = enumerate_trees(fq, (dim,), order)
    return {
        (format_tree(fq, a), format_tree(fq, b)): multiplicity_power(fq, a, b, order)
        for a in trees
        for b in trees
        if cell_dim(fq, a, order) == cell_dim(fq, b, order)
    }


@pytest.mark.parametrize("kind", sorted(D3_MULTIPLICITIES))
def test_multiplicity_table_two_loop_d3(two_loop, kind):
    assert multiplicity_table(two_loop, 3, kind) == D3_MULTIPLICITIES[kind]


@pytest.mark.parametrize(
    "kind, counts",
    [
        ("shortlex", {1: 17, None: 10, 2: 3, 3: 3, 4: 1}),
        ("lex", {1: 16, None: 14, 2: 1, 4: 1, 5: 1, 9: 1}),
    ],
)
def test_multiplicity_table_two_loop_d4(two_loop, kind, counts):
    assert Counter(D4_MULTIPLICITIES[kind].values()) == counts
    assert multiplicity_table(two_loop, 4, kind) == D4_MULTIPLICITIES[kind]


def test_each_minor_is_one_determinant(two_loop, shortlex, monkeypatch):
    # membership_minors, then multiplicity_power on the same pair: the
    # second call reads the chart's memo and computes no determinant
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return det_bareiss(rows)

    monkeypatch.setattr(charts, "det_bareiss", counting)
    make_chart.cache_clear()
    target = parse_tree(two_loop, shortlex, "f,af,baf,bbaf")
    chart_tree = parse_tree(two_loop, shortlex, "f,bf,abf,babf")
    minors = membership_minors(two_loop, target, chart_tree, shortlex)
    assert len(minors) == 9 and sorted(set(calls)) == [3, 4]
    assert multiplicity_power(two_loop, target, chart_tree, shortlex) == 2
    assert len(calls) == 9
