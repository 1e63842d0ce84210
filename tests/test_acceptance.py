"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Criteria 3 (bijection roundtrip), 4 (Grassmannian oracle), 8 (tautological
basis theorem) and 10 (cell partition property) are entries of the shared
check registry in cohalab.checks, which `coha-lab check` also runs; one
parametrised test covers the registry.  Each test prints a single pass
line (visible with pytest -s or in captured output) and enforces the
stated wall-clock budget.  One more test holds a pair from the chart
frontier, two-loop d=5, to a budget.
"""

import time
from random import Random

import pytest

from cohalab import (
    cell_dim,
    enumerate_trees,
    format_partition,
    format_tree,
    membership_minors,
    make_chart,
    multiplicity_power,
    parse_path,
    parse_tree,
    shuffle_product,
    slice_basis,
    monomial_symmetric,
    SymPoly,
    tree_to_partition,
    unit,
)
from cohalab.checks import CHECKS, DEFAULT_SEED
from cohalab.paths import PathOrder
from cohalab.polys import Poly
from conftest import framed_a2, framed_loops, vertex_only
from helpers import substitute

SHORTLEX = PathOrder.shortlex()
LEX = PathOrder.lex()


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.2f}s exceeds {self.seconds}s"
            )
            print(f"[{self.name}] PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_shortlex_table():
    with Budget("criterion 1: shortlex table", 1.0):
        fq = framed_loops(2, 1)
        rows = [
            (
                format_tree(fq, s),
                cell_dim(fq, s, SHORTLEX),
                format_partition(tree_to_partition(fq, s, SHORTLEX)),
            )
            for s in enumerate_trees(fq, (3,), SHORTLEX)
        ]
        assert rows == [
            ("f,af,bf", 12, "[]"),
            ("f,af,aaf", 11, "[1]"),
            ("f,af,baf", 10, "[2]"),
            ("f,bf,abf", 10, "[1,1]"),
            ("f,bf,bbf", 9, "[2,1]"),
        ]


def test_criterion_2_lex_table():
    with Budget("criterion 2: lex table", 1.0):
        fq = framed_loops(2, 1)
        rows = [
            (
                format_tree(fq, s),
                cell_dim(fq, s, LEX),
                format_partition(tree_to_partition(fq, s, LEX)),
            )
            for s in enumerate_trees(fq, (3,), LEX)
        ]
        assert rows == [
            ("f,af,aaf", 12, "[]"),
            ("f,af,baf", 11, "[1]"),
            ("f,af,bf", 10, "[2]"),
            ("f,bf,abf", 10, "[1,1]"),
            ("f,bf,bbf", 9, "[2,1]"),
        ]


def test_criterion_5_two_framing_dims():
    with Budget("criterion 5: two-framing cell dimensions", 1.0):
        fq = framed_loops(2, 2)
        s = parse_tree(fq, SHORTLEX, "e,f,bf")
        sp = parse_tree(fq, SHORTLEX, "e,ae,be")
        assert cell_dim(fq, s, SHORTLEX) == 12
        assert cell_dim(fq, sp, SHORTLEX) == 13


def test_criterion_6_chart_minors_identity():
    with Budget("criterion 6: chart minors identity", 5.0):
        fq = framed_loops(2, 1)
        target = parse_tree(fq, SHORTLEX, "f,af,bf,bbf")
        chart_tree = parse_tree(fq, SHORTLEX, "f,bf,abf,bbf")
        chart = make_chart(fq, chart_tree, SHORTLEX)
        minors = membership_minors(fq, target, chart_tree, SHORTLEX)
        assert minors
        af = parse_path(fq, "af")
        n = chart.nvars
        c31 = Poly.variable(n, chart.var_index(parse_path(fq, "abf"), af))
        c43 = Poly.variable(
            n, chart.var_index(parse_path(fq, "bbf"), parse_path(fq, "babf"))
        )
        substitution = {
            chart.var_index(parse_path(fq, "bbf"), af): Poly.zero(n),
            chart.var_index(
                parse_path(fq, "bbf"), parse_path(fq, "aabf")
            ): Poly.zero(n),
            chart.var_index(parse_path(fq, "bf"), af): -(c31 * c43),
        }
        for m in minors:
            assert substitute(m, substitution).is_zero()


def test_criterion_7_multiplicities():
    with Budget("criterion 7: closure multiplicities", 5.0):
        fq = framed_loops(2, 1)
        s3 = parse_tree(fq, SHORTLEX, "f,af,baf")
        s4 = parse_tree(fq, SHORTLEX, "f,bf,abf")
        assert multiplicity_power(fq, s3, s4, SHORTLEX) == 2
        t3 = parse_tree(fq, LEX, "f,af,bf")
        t4 = parse_tree(fq, LEX, "f,bf,abf")
        assert multiplicity_power(fq, t3, t4, LEX) == 4
        for order in (SHORTLEX, LEX):
            for s in enumerate_trees(fq, (3,), order):
                assert multiplicity_power(fq, s, s, order) == 1


def test_chart_frontier_pair_d5():
    # 22 minors of up to 5x5, the largest with 9,894 terms, from a chart
    # built afresh (no determinant read from an earlier test's memo)
    fq = framed_loops(2, 1)
    target = parse_tree(fq, SHORTLEX, "f,af,baf,abaf,babaf")
    chart_tree = parse_tree(fq, SHORTLEX, "f,bf,abf,aabf,baabf")
    make_chart.cache_clear()
    with Budget("chart frontier: two-loop d=5 pair", 10.0):
        minors = membership_minors(fq, target, chart_tree, SHORTLEX)
        assert len(minors) == 22
        assert max(len(m.terms) for m in minors) == 9894
        assert multiplicity_power(fq, target, chart_tree, SHORTLEX) == 2


def test_criterion_9_shuffle_properties():
    with Budget("criterion 9: shuffle algebra properties", 120.0):
        rng = Random(20240808)

        def random_element(fq, d, max_degree):
            coords = {}
            for n in range(max_degree + 1):
                for sig in slice_basis(d, n):
                    if rng.random() < 0.35:
                        coords[sig] = rng.randint(-3, 3)
            return SymPoly(fq, d, coords)

        fixtures = [
            (vertex_only(1), [(1,), (2,)]),
            (framed_loops(1, 1), [(1,), (2,)]),
            (framed_loops(2, 1), [(1,), (2,)]),
            (framed_a2(1), [(1, 0), (0, 1), (1, 1)]),
        ]
        for fq, dims in fixtures:
            for _ in range(50):
                da, db, dc = (dims[rng.randrange(len(dims))] for _ in range(3))
                f = random_element(fq, da, 3)
                g = random_element(fq, db, 3)
                h = random_element(fq, dc, 3)
                lhs = shuffle_product(shuffle_product(f, g), h)
                rhs = shuffle_product(f, shuffle_product(g, h))
                assert lhs.poly == rhs.poly

        # degree law on homogeneous pieces (also asserted inside the product)
        from cohalab.quiver import euler_form

        for fq, dims in fixtures:
            for da in dims:
                for db in dims:
                    for n1 in range(3):
                        for sig1 in slice_basis(da, n1)[:2]:
                            for n2 in range(3):
                                for sig2 in slice_basis(db, n2)[:2]:
                                    out = shuffle_product(
                                        monomial_symmetric(fq, da, sig1),
                                        monomial_symmetric(fq, db, sig2),
                                    )
                                    if not out.is_zero():
                                        assert out.degree() == n1 + n2 - euler_form(
                                            fq.base, da, db
                                        )

        # exterior vanishing and the sign pair on the no-arrow quiver
        point = vertex_only(1)
        one = unit(point, (1,))
        x = monomial_symmetric(point, (1,), ((1,),))
        assert shuffle_product(one, one).is_zero()
        assert shuffle_product(x, one).poly.const_value() == -1
        assert shuffle_product(one, x).poly.const_value() == 1


# seconds each registry check may take; criterion numbers as in the module doc
CHECK_BUDGETS = {
    "bijection-roundtrip": 60.0,  # criterion 3
    "order-independence": 10.0,
    "q-binomial-oracle": 10.0,  # criterion 4
    "tautological-basis": 600.0,  # criterion 8
    "cell-partition": 120.0,  # criterion 10
    "flag-oracle": 30.0,  # partial flag varieties (ROADMAP item 3)
}


@pytest.mark.parametrize("name", CHECKS)
def test_registry_check(name):
    with Budget(name, CHECK_BUDGETS[name]):
        assert CHECKS[name](Random(DEFAULT_SEED)) == []
