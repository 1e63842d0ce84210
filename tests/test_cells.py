from fractions import Fraction
from itertools import product
from random import Random

import pytest

from cohalab import (
    WSHORTLEX,
    CellError,
    PathOrder,
    cell_dim,
    classify,
    critical_set,
    enumerate_trees,
    format_path,
    format_tree,
    in_cell,
    in_degeneracy_locus,
    make_rep,
    make_subtree,
    parse_rep_file,
    parse_tree,
    tree_leq,
    tree_to_partition,
    udim,
)
from cohalab.cells import NumericRep, random_rep, random_stable_rep
from cohalab.linalg import rref
from cohalab.paths import path_target
from conftest import framed_a2, framed_loops, vertex_only
from helpers import in_cell_pairwise, oracle_fixtures, oracle_orders, path_vector_from_root


def crit_names(fq, s, order):
    cs = critical_set(fq, s, order)
    return [format_path(fq, v) for v in cs.paths]


def test_critical_set_s3(two_loop, shortlex):
    s = parse_tree(two_loop, shortlex, "f,af,baf")
    assert crit_names(two_loop, s, shortlex) == ["bf", "aaf", "abaf", "bbaf"]


def test_critical_set_root(two_loop, shortlex):
    s = make_subtree(two_loop, shortlex, [])
    cs = critical_set(two_loop, s, shortlex)
    assert crit_names(two_loop, s, shortlex) == ["f"]
    assert cs.k == (0,)


def test_critical_set_s4(two_loop, shortlex):
    s = parse_tree(two_loop, shortlex, "f,bf,abf")
    # independent oracle: collect children outside the tree, re-sort by key
    members = s.path_set
    brute = sorted(
        {
            u + (a,)
            for u in members
            for a in two_loop.arrows_from(
                -1 if not u else two_loop.arrows[u[-1]].target
            )
            if u + (a,) not in members
        },
        key=shortlex.key,
    )
    cs = critical_set(two_loop, s, shortlex)
    assert list(cs.paths) == brute
    assert [format_path(two_loop, v) for v in cs.paths] == [
        "af",
        "bbf",
        "aabf",
        "babf",
    ]


def test_critical_udim_matches_formula(two_loop, shortlex, lex):
    for order in (shortlex, lex):
        for d in [(1,), (2,), (3,), (4,)]:
            for s in enumerate_trees(two_loop, d, order):
                cs = critical_set(two_loop, s, order)
                counts = [0] * two_loop.vertex_count
                for v in cs.paths:
                    counts[two_loop.arrows[v[-1]].target] += 1
                assert tuple(counts) == two_loop.critical_dim_vector(d)


def pairwise_definitions(fq, s, order):
    """Critical paths, k, slices and partition label of s straight from
    their definitions: separate sorts and one order comparison per pair."""
    members = s.path_set
    crit = order.sort(
        {
            u + (a,)
            for u in members
            for a in fq.arrows_from(path_target(fq, u))
            if u + (a,) not in members
        }
    )
    slices = tuple(
        tuple(order.sort(u for u in s.nonroot if path_target(fq, u) == i))
        for i in range(fq.vertex_count)
    )
    k = tuple(
        sum(1 for u in slices[path_target(fq, v)] if order.compare(u, v) < 0)
        for v in crit
    )
    parts = []
    for i, slice_i in enumerate(slices):
        crit_i = [v for v in crit if path_target(fq, v) == i]
        lam = [0] * len(slice_i)
        for j, u in enumerate(slice_i):
            lam[len(slice_i) - j - 1] = sum(1 for v in crit_i if order.compare(v, u) < 0)
        parts.append(tuple(lam))
    return tuple(crit), k, slices, tuple(parts)


SWEEP_FIXTURES = [
    pytest.param(framed_loops(2, w), [(d,) for d in range(5)], id=f"two-loop-w{w}")
    for w in (1, 2)
] + [
    pytest.param(framed_a2(w), list(product(range(4), repeat=2)), id=f"a2-w{w}")
    for w in (1, 2, 3)
] + [pytest.param(vertex_only(4), [(d,) for d in range(5)], id="point-w4")]


@pytest.mark.parametrize("fq, dims", SWEEP_FIXTURES)
def test_sweep_matches_pairwise_definitions(fq, dims):
    # trees stored under one order and read under another exercise the sort
    weighted = PathOrder(WSHORTLEX, tuple(Fraction(a + 2, 2) for a in range(len(fq.arrows))))
    orders = (PathOrder.shortlex(), PathOrder.lex(), weighted)
    for d in dims:
        for built in orders:
            for s in enumerate_trees(fq, d, built):
                for order in orders:
                    crit, k, slices, parts = pairwise_definitions(fq, s, order)
                    cs = critical_set(fq, s, order)
                    assert (cs.paths, cs.k, cs.slices) == (crit, k, slices)
                    assert tree_to_partition(fq, s, order).parts == parts


SHORTLEX_TABLE = [
    ("f,af,bf", 12, ()),
    ("f,af,aaf", 11, (1,)),
    ("f,af,baf", 10, (2,)),
    ("f,bf,abf", 10, (1, 1)),
    ("f,bf,bbf", 9, (2, 1)),
]

LEX_TABLE = [
    ("f,af,aaf", 12, ()),
    ("f,af,baf", 11, (1,)),
    ("f,af,bf", 10, (2,)),
    ("f,bf,abf", 10, (1, 1)),
    ("f,bf,bbf", 9, (2, 1)),
]


def test_enumerate_trees_shortlex_table(two_loop, shortlex):
    got = [
        (format_tree(two_loop, s), cell_dim(two_loop, s, shortlex))
        for s in enumerate_trees(two_loop, (3,), shortlex)
    ]
    assert got == [(t, d) for t, d, _ in SHORTLEX_TABLE]


def test_enumerate_trees_lex_table(two_loop, lex):
    got = [
        (format_tree(two_loop, s), cell_dim(two_loop, s, lex))
        for s in enumerate_trees(two_loop, (3,), lex)
    ]
    assert got == [(t, d) for t, d, _ in LEX_TABLE]


def test_enumerate_trees_empty(shortlex):
    assert enumerate_trees(vertex_only(1), (2,), shortlex) == []


def test_cell_dim_examples(two_loop, shortlex):
    assert cell_dim(two_loop, parse_tree(two_loop, shortlex, "f,af,bf"), shortlex) == 12
    assert cell_dim(two_loop, parse_tree(two_loop, shortlex, "f,bf,bbf"), shortlex) == 9
    assert cell_dim(two_loop, make_subtree(two_loop, shortlex, []), shortlex) == 0


def test_two_framing_cell_dims(two_loop_double_framing, shortlex):
    fq = two_loop_double_framing
    s = parse_tree(fq, shortlex, "e,f,bf")
    sp = parse_tree(fq, shortlex, "e,ae,be")
    assert cell_dim(fq, s, shortlex) == 12
    assert cell_dim(fq, sp, shortlex) == 13
    assert tree_leq(shortlex, s, sp)


def test_top_cell_dim_is_moduli_dim(two_loop, a2, shortlex, lex):
    for fq, dims in [(two_loop, [(1,), (2,), (3,)]), (a2, [(1, 0), (1, 1)])]:
        for d in dims:
            for order in (shortlex, lex):
                trees = enumerate_trees(fq, d, order)
                if trees:
                    assert max(cell_dim(fq, s, order) for s in trees) == fq.hilb_dim(d)


def test_dims_multiset_order_free(two_loop, shortlex, lex):
    for d in [(2,), (3,), (4,)]:
        a = sorted(cell_dim(two_loop, s, shortlex) for s in enumerate_trees(two_loop, d, shortlex))
        b = sorted(cell_dim(two_loop, s, lex) for s in enumerate_trees(two_loop, d, lex))
        assert a == b


def test_lower_closure_rejected(two_loop, shortlex):
    from cohalab import parse_path

    with pytest.raises(CellError):
        make_subtree(two_loop, shortlex, [parse_path(two_loop, "af")])


# -- classification ----------------------------------------------------------------


def jordan_rep(fq):
    return make_rep(
        fq,
        (3,),
        {
            "b": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "f": [[1], [0], [0]],
        },
    )


def test_classify_jordan(two_loop, shortlex):
    s = classify(two_loop, jordan_rep(two_loop), shortlex)
    assert format_tree(two_loop, s) == "f,bf,bbf"


def test_classify_jordan_oracle(two_loop, shortlex):
    from cohalab import parse_path

    # independent check: ranks of the greedy spans via a local elimination
    m = jordan_rep(two_loop)
    vecs = {
        name: m.path_vector(parse_path(two_loop, name))
        for name in ("f", "af", "bf", "bbf")
    }
    assert vecs["f"] == (1, 0, 0)
    assert vecs["af"] == (0, 0, 0)
    assert vecs["bf"] == (0, 1, 0)
    assert vecs["bbf"] == (0, 0, 1)
    assert len(rref([vecs["f"], vecs["bf"], vecs["bbf"]])) == 3


def test_classify_d1(two_loop, shortlex):
    m = make_rep(two_loop, (1,), {"f": [[1]]})
    s = classify(two_loop, m, shortlex)
    assert format_tree(two_loop, s) == "f"


def test_classify_generic_lands_in_top_cell(two_loop, shortlex):
    rng = Random(11)
    m = random_stable_rep(two_loop, (3,), rng)
    s = classify(two_loop, m, shortlex)
    assert format_tree(two_loop, s) == "f,af,bf"
    assert in_cell(two_loop, m, s, shortlex)


def test_classify_rejects_lex(two_loop, lex):
    with pytest.raises(CellError):
        classify(two_loop, jordan_rep(two_loop), lex)


def test_classify_unstable(two_loop, shortlex):
    m = make_rep(two_loop, (3,), {"f": [[1], [0], [0]]})  # zero loops, d=3
    with pytest.raises(CellError, match="not stable"):
        classify(two_loop, m, shortlex)


def test_degeneracy_zero_dim(two_loop, shortlex):
    m = make_rep(two_loop, (0,), {})
    s = make_subtree(two_loop, shortlex, [])
    assert in_degeneracy_locus(two_loop, m, s, shortlex)


def test_degeneracy_top_tree_contains_everything(two_loop, shortlex):
    # every family in the top tree has more vectors than the ambient dimension
    top = parse_tree(two_loop, shortlex, "f,af,bf")
    assert in_degeneracy_locus(two_loop, jordan_rep(two_loop), top, shortlex)


def test_degeneracy_false_for_generic_off_cell(two_loop, shortlex):
    rng = Random(19)
    m = random_stable_rep(two_loop, (3,), rng)
    assert format_tree(two_loop, classify(two_loop, m, shortlex)) == "f,af,bf"
    s2 = parse_tree(two_loop, shortlex, "f,af,aaf")
    assert not in_degeneracy_locus(two_loop, m, s2, shortlex)


# -- representation files -----------------------------------------------------------


def test_parse_rep_file(two_loop, shortlex):
    text = """
    rep 3
    matrix b
    0 0 0
    1 0 0
    0 1 0
    framing 0 1
    1 0 0
    """
    m = parse_rep_file(two_loop, text)
    assert m == jordan_rep(two_loop)
    assert format_tree(two_loop, classify(two_loop, m, shortlex)) == "f,bf,bbf"


def test_parse_rep_rationals(two_loop):
    text = "rep 1\nmatrix a\n1/2\nmatrix b\n-2/3\nframing 0 1\n7\n"
    m = parse_rep_file(two_loop, text)
    assert m.path_vector((two_loop.arrow_index("f"),)) == (Fraction(7),)
    aqf = (two_loop.arrow_index("f"), two_loop.arrow_index("a"))
    assert m.path_vector(aqf) == (Fraction(7, 2),)


def test_udim_of_parsed_tree(two_loop, shortlex):
    s = parse_tree(two_loop, shortlex, "f,af,bf")
    assert udim(two_loop, s) == (3,)


# -- the earlier implementations as oracles ------------------------------------------


def seeded_reps(fq, d, rng):
    """Stable reps: one generic (entries up to 9) and two sparse ones
    (entries in -1..1), which land in lower cells."""
    reps = []
    for bound, want in ((9, 1), (1, 3)):
        for _ in range(100):
            if len(reps) == want:
                break
            m = random_rep(fq, d, rng, bound)
            try:
                classify(fq, m, PathOrder.shortlex())
            except CellError:
                continue
            reps.append(m)
    return reps


@pytest.mark.parametrize(
    "name, fq, dims", [pytest.param(*f, id=f[0]) for f in oracle_fixtures()]
)
def test_path_vector_and_in_cell_match_oracles(name, fq, dims):
    rng = Random(f"oracle-{name}")
    compared = hits = 0
    for d in dims:
        trees_by_order = [(order, enumerate_trees(fq, d, order)) for order in oracle_orders(fq)]
        if not trees_by_order[0][1]:
            continue
        for m in seeded_reps(fq, d, rng):
            fresh = NumericRep(m.fq, m.d, m.matrices)
            before = (hash(m), repr(m))
            for order, trees in trees_by_order:
                for s in trees:
                    for u in s.paths + critical_set(fq, s, order).paths:
                        assert m.path_vector(u) == path_vector_from_root(m, u)
                    got = in_cell(fq, m, s, order)
                    assert got == in_cell_pairwise(fq, m, s, order)
                    compared += 1
                    hits += got
            # the memo is invisible to equality, hashing and repr
            assert m == fresh and (hash(m), repr(m)) == before == (hash(fresh), repr(fresh))
    assert compared > hits > 0
