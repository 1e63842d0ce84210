from fractions import Fraction
from random import Random

import pytest

from cohalab import (
    CellError,
    chart_coordinates,
    classify,
    enumerate_trees,
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
from cohalab.paths import paths_up_to_length
from cohalab.polys import Poly
from conftest import vertex_only
from helpers import evaluate, substitute


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
    killed = coeff.set_vars_zero([chart.var_index(parse_path(two_loop, "bbf"), parse_path(two_loop, "af"))])
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
        for m in membership_minors(two_loop, s, s, shortlex):
            assert m.set_vars_zero(dead).is_zero()


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
    reduced = second.set_vars_zero([idx_c31])
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
