from fractions import Fraction
from itertools import product
from random import Random

import pytest

from cohalab import (
    WSHORTLEX,
    CellError,
    FramedQuiver,
    PathOrder,
    Quiver,
    QuiverError,
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
from cohalab import cells
from cohalab.cells import NumericRep, adjoin, random_rep, random_stable_rep
from cohalab.linalg import rref
from cohalab.paths import ROOT, path_target
from conftest import framed_a2, framed_loops, vertex_only
from helpers import (
    children,
    classify_by_restart,
    enumerate_trees_recursive,
    in_cell_pairwise,
    in_degeneracy_locus_by_rank,
    oracle_fixtures,
    oracle_orders,
    path_vector_from_root,
    rank_fraction,
    weighted_orders,
)


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
            for a in two_loop.out_arrows[
                -1 if not u else two_loop.arrows[u[-1]].target
            ]
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
            for a in fq.out_arrows[path_target(fq, u)]
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
                    assert cell_dim(fq, s, order) == sum(k)
                    assert tree_to_partition(fq, s, order).parts == parts


@pytest.mark.parametrize("fq, dims", SWEEP_FIXTURES)
def test_enumerate_trees_matches_recursive_oracle(fq, dims):
    for d in dims:
        for order in oracle_orders(fq):
            assert enumerate_trees(fq, d, order) == enumerate_trees_recursive(fq, d, order)


@pytest.mark.parametrize("fq, dims", SWEEP_FIXTURES)
def test_adjoin_matches_resort(fq, dims):
    # enumerate_trees adjoins the children of a critical path v above the
    # last member to the critical paths above v; the walks start from the root
    for order in oracle_orders(fq):
        assert adjoin(order, [], -1, children(fq, ROOT)) == order.sort(children(fq, ROOT))
        for d in dims:
            for s in enumerate_trees(fq, d, order):
                crit = list(critical_set(fq, s, order).paths)
                for idx, v in enumerate(crit):
                    if order.compare(v, s.paths[-1]) > 0:
                        above, kids = crit[idx + 1 :], children(fq, v)
                        assert adjoin(order, list(above), -1, kids) == order.sort(above + kids)


@pytest.mark.parametrize("fq, dims", SWEEP_FIXTURES)
def test_make_subtree_orders_a_shuffled_pool(fq, dims):
    rng = Random(20)
    for order in (PathOrder.shortlex(), PathOrder.lex(), *weighted_orders(fq)):
        for d in dims:
            for s in enumerate_trees(fq, d, order):
                pool = list(s.paths[rng.randrange(2) :])  # with or without the root
                rng.shuffle(pool)
                assert make_subtree(fq, order, pool) == s
                # drop a member with children: each child names the hole
                for u in s.nonroot:
                    orphans = {format_path(fq, w) for w in s.paths if w[:-1] == u}
                    if orphans:
                        with pytest.raises(CellError) as err:
                            make_subtree(fq, order, [w for w in pool if w != u])
                        assert str(err.value) in {
                            f"not lower-closed: {w} without its parent" for w in orphans
                        }


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


def test_make_subtree_rejects_paths_that_do_not_compose(shortlex):
    fq = framed_a2(2)  # arrows e, f: framing -> 0, and a: 0 -> 1
    assert [a.name for a in fq.arrows] == ["e", "f", "a"]
    for paths in ([(0,), (0, 2), (0, 2, 2)], [(2,)], [(0,), (0, 1)]):
        with pytest.raises(QuiverError, match="do not compose"):
            make_subtree(fq, shortlex, paths)


def test_make_subtree_rejects_arrow_indices_that_are_not_integers(shortlex):
    fq = framed_a2(2)
    for bad in [(0.0,), ("a",), (Fraction(0),)]:
        with pytest.raises(QuiverError, match="must be integers"):
            make_subtree(fq, shortlex, [bad])
    # an int subclass is stored as the int it stands for
    s = make_subtree(fq, shortlex, [(True,)])
    assert s.paths == ((), (1,)) and type(s.paths[1][0]) is int


def test_make_subtree_rejects_arrow_indices_out_of_range(shortlex):
    fq = framed_a2(2)
    # in (0, 0, 9) the second arrow does not compose either; the range is checked first
    for bad in [(3,), (-1,), (0, 3), (0, 0, 9)]:
        with pytest.raises(QuiverError, match="out of range"):
            make_subtree(fq, shortlex, [(0,), bad])


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


def test_make_rep_refuses_a_float(two_loop):
    with pytest.raises(TypeError, match="inexact"):
        make_rep(two_loop, (1,), {"f": [[0.1]]})


def test_numeric_rep_checks_each_matrix_shape(two_loop):
    m = make_rep(two_loop, (2,), {"f": [[1], [0]]})
    with pytest.raises(CellError, match="one matrix per framed arrow"):
        NumericRep(two_loop, (2,), m.matrices[:-1])
    short = m.matrices[:-1] + (m.matrices[-1][:1],)  # one row of a 2x2 block
    with pytest.raises(CellError, match="must be 2x2"):
        NumericRep(two_loop, (2,), short)


def test_numeric_rep_refuses_an_inexact_entry(two_loop):
    with pytest.raises(TypeError, match="inexact entry 0.1 for arrow 'f'"):
        NumericRep(two_loop, (1,), (((0.1,),), ((0.5,),), ((0,),)))
    m = NumericRep(two_loop, (1,), (((1,),), ((Fraction(1, 2),),), ((0,),)))
    assert m.path_vector((0, 1)) == (Fraction(1, 2),)


def test_numeric_rep_stores_its_dimension_vector_as_a_tuple(two_loop, shortlex):
    m = random_stable_rep(two_loop, (3,), Random(1))
    s = classify(two_loop, m, shortlex)
    listed = NumericRep(two_loop, [3], m.matrices)
    assert listed.d == (3,) and listed == m
    assert in_cell(two_loop, listed, s, shortlex) and in_cell(two_loop, m, s, shortlex)
    assert in_degeneracy_locus(two_loop, listed, s, shortlex)


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


def test_int_rep_has_int_path_vectors(two_loop, shortlex):
    # integral entries stay int from the matrices through every path vector
    # and into the elimination; rep-file p/q entries stay Fraction
    rng = Random(11)
    for d in (1, 2, 3, 4):
        m = random_stable_rep(two_loop, (d,), rng)
        assert all(type(x) is int for mat in m.matrices for row in mat for x in row)
        for s in enumerate_trees(two_loop, (d,), shortlex):
            vectors = [m.path_vector(u) for u in s.nonroot]
            assert all(type(x) is int for v in vectors for x in v)
            assert all(type(x) is int for row in rref(vectors) for x in row)
    assert m.path_vector(()) == (1,)
    parsed = parse_rep_file(two_loop, "rep 1\nmatrix a\n1/2\nmatrix b\n3\nframing 0 1\n1\n")
    assert [type(mat[0][0]) for mat in parsed.matrices] == [int, Fraction, int]


@pytest.mark.parametrize(
    "text",
    [
        "rep 1\nmatrix a\n1\nmatrix a\n2\nframing 0 1\n1\n",
        "rep 1\nframing 0 1\n1\nframing 0 1\n2\n",
    ],
    ids=["matrix", "framing"],
)
def test_parse_rep_file_refuses_a_repeated_block(two_loop, text):
    with pytest.raises(QuiverError, match="repeated block"):
        parse_rep_file(two_loop, text)


def test_parse_rep_file_reads_bytes_as_utf8(two_loop):
    text = "rep 1\nmatrix a\n1/2\nframing 0 1\n1\n"
    assert parse_rep_file(two_loop, text.encode("utf-8")) == parse_rep_file(two_loop, text)
    with pytest.raises(QuiverError, match="not UTF-8"):
        parse_rep_file(two_loop, b"rep 1\nframing 0 1\n\xff\n")


def test_membership_compares_counts_with_the_rep(two_loop, shortlex):
    m = random_stable_rep(two_loop, (3,), Random(5))
    s = parse_tree(two_loop, shortlex, "f,af")
    assert not in_cell(two_loop, m, s, shortlex)
    with pytest.raises(CellError, match="counts do not match"):
        in_degeneracy_locus(two_loop, m, s, shortlex)


def test_membership_compares_per_vertex_counts(shortlex):
    # counts (2,0) against d=(1,1): the totals agree, the vertices do not
    fq = framed_a2(2)
    m = random_stable_rep(fq, (1, 1), Random(5))
    s = parse_tree(fq, shortlex, "e,f")
    assert udim(fq, s) == (2, 0) and sum(udim(fq, s)) == sum(m.d)
    assert not in_cell(fq, m, s, shortlex)
    with pytest.raises(CellError, match="counts do not match"):
        in_degeneracy_locus(fq, m, s, shortlex)


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
    # the seeded stable reps, then the reps of the locus test, stable or
    # not (entries up to 9, then twice in -1..1): on those the basis check
    # decides in_cell where the degeneracy locus holds
    rng = Random(f"oracle-{name}")
    locus_rng = Random(f"oracle-locus-{name}")
    compared = hits = basis_decides = 0
    for d in dims:
        trees_by_order = [(order, enumerate_trees(fq, d, order)) for order in oracle_orders(fq)]
        if not trees_by_order[0][1]:
            continue
        reps = seeded_reps(fq, d, rng)
        reps += [random_rep(fq, d, locus_rng, bound) for bound in (9, 1, 1)]
        for m in reps:
            fresh = NumericRep(m.fq, m.d, m.matrices)
            before = (hash(m), repr(m))
            checked = set()  # each path's vector is compared once per rep
            for order, trees in trees_by_order:
                for s in trees:
                    for u in set(s.paths + critical_set(fq, s, order).paths) - checked:
                        assert m.path_vector(u) == path_vector_from_root(m, u)
                        checked.add(u)
                    got = in_cell(fq, m, s, order)
                    assert got == in_cell_pairwise(fq, m, s, order)
                    compared += 1
                    hits += got
                    basis_decides += not got and in_degeneracy_locus(fq, m, s, order)
            # the memo is invisible to equality, hashing and repr
            assert m == fresh and (hash(m), repr(m)) == before == (hash(fresh), repr(fresh))
    assert compared > hits > 0
    assert basis_decides > 0


def has_dependent_prefix(fq, m, s, order) -> bool:
    """Some critical family has a dependent prefix slices[i][:k_v]."""
    crit = critical_set(fq, s, order)
    return any(
        rank_fraction([m.path_vector(u) for u in crit.slices[path_target(fq, v)][:kv]]) < kv
        for v, kv in zip(crit.paths, crit.k)
    )


@pytest.mark.parametrize(
    "name, fq, dims", [pytest.param(*f, id=f[0]) for f in oracle_fixtures()]
)
def test_degeneracy_locus_matches_rank_oracle(name, fq, dims):
    # seeded reps, stable or not: generic ones (entries up to 9) and sparse
    # ones (entries in -1..1), whose families often have dependent prefixes
    rng = Random(f"locus-{name}")
    seen = set()
    for d in dims:
        trees_by_order = [(order, enumerate_trees(fq, d, order)) for order in oracle_orders(fq)]
        if not trees_by_order[0][1]:
            continue
        for bound in (9, 1, 1):
            m = random_rep(fq, d, rng, bound)
            try:
                classify(fq, m, PathOrder.shortlex())
                stable = True
            except CellError:
                stable = False
            for order, trees in trees_by_order:
                for s in trees:
                    got = in_degeneracy_locus(fq, m, s, order)
                    assert got == in_degeneracy_locus_by_rank(fq, m, s, order)
                    seen.add((got, stable, has_dependent_prefix(fq, m, s, order)))
    assert {got for got, _, _ in seen} == {True, False}
    assert {stable for _, stable, _ in seen} == {True, False}
    assert any(dependent for _, _, dependent in seen)


def test_membership_builds_no_critical_set(monkeypatch):
    # in_cell and in_degeneracy_locus are one walk each: with critical_set
    # unavailable they still answer every tree as the oracles do
    fq, d = framed_loops(2, 1), (4,)
    rng = Random("one-walk")
    reps = seeded_reps(fq, d, rng) + [random_rep(fq, d, rng, bound) for bound in (9, 1, 1)]
    orders = (PathOrder.shortlex(), PathOrder.lex(), *weighted_orders(fq))
    cases = [(m, order, s) for m in reps for order in orders for s in enumerate_trees(fq, d, order)]
    expected = [
        (in_cell_pairwise(fq, m, s, order), in_degeneracy_locus_by_rank(fq, m, s, order))
        for m, order, s in cases
    ]

    def no_critical_set(*args):
        raise AssertionError("membership built a critical set")

    monkeypatch.setattr(cells, "critical_set", no_critical_set)
    got = [
        (in_cell(fq, m, s, order), in_degeneracy_locus(fq, m, s, order))
        for m, order, s in cases
    ]
    assert got == expected
    assert set(got) >= {(True, True), (False, True), (False, False)}


# -- grown trees and the tree order ---------------------------------------------------


CLASSIFY_CASES = [
    (framed_loops(2, 1), [(d,) for d in range(1, 6)]),
    (framed_loops(3, 2), [(d,) for d in range(1, 4)]),
    (framed_a2(2), [d for d in product(range(3), repeat=2) if any(d)]),
    (
        FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0)]), (1, 1)),
        [d for d in product(range(4), repeat=2) if any(d)],
    ),
]


def test_classify_builds_ascending_trees():
    # the chain is not re-sorted: it must already be a tree enumerate_trees gives
    rng = Random("classify-ascending")
    grown = 0
    for fq, dims in CLASSIFY_CASES:
        orders = (PathOrder.shortlex(), *weighted_orders(fq))
        for d in dims:
            trees = {order: {s.paths for s in enumerate_trees(fq, d, order)} for order in orders}
            for m in seeded_reps(fq, d, rng) + seeded_reps(fq, d, rng):
                for order in orders:
                    paths = classify(fq, m, order).paths
                    assert list(paths) == order.sort(paths), (fq, d, order)
                    assert paths in trees[order]
                    grown += 1
    assert grown > 200


def label_or_error(grow, fq, m, order):
    try:
        return grow(fq, m, order)
    except CellError:
        return CellError


def test_classify_matches_restart_oracle():
    # seeded stable reps, then sparse and zero ones, stable or not: the walk
    # grows the label the restarting greedy grows, or both refuse the rep
    rng = Random("classify-restart")
    outcomes = set()
    for fq, dims in CLASSIFY_CASES:
        orders = (PathOrder.shortlex(), *weighted_orders(fq))
        for d in dims:
            reps = seeded_reps(fq, d, rng) + [random_rep(fq, d, rng, b) for b in (1, 1, 0)]
            for m in reps:
                for order in orders:
                    got = label_or_error(classify, fq, m, order)
                    assert got == label_or_error(classify_by_restart, fq, m, order), (fq, d)
                    outcomes.add(got is CellError)
    assert outcomes == {True, False}


@pytest.mark.parametrize("loops, d", [(2, 4), (2, 5), (3, 4)])
def test_tree_order_reads_trees_stored_under_another_order(loops, d):
    fq = framed_loops(loops, 1)
    shortlex, lex = PathOrder.shortlex(), PathOrder.lex()
    for built, read in ((shortlex, lex), (lex, shortlex)):
        trees = enumerate_trees(fq, (d,), built)
        keys = [sorted(map(read.key, s.paths)) for s in trees]
        for a, key_a in zip(trees, keys):
            for b, key_b in zip(trees, keys):
                assert tree_leq(read, a, b) == (key_a <= key_b)
    # shortlex stores low as f, af, bf, aaf; under lex aaf < baf < bf, so low < high
    if (loops, d) == (2, 4):
        low = parse_tree(fq, shortlex, "f,af,bf,aaf")
        high = parse_tree(fq, shortlex, "f,af,baf,bbaf")
        assert tree_leq(lex, low, high) and not tree_leq(lex, high, low)
