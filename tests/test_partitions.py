from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohalab import (
    CellError,
    PathOrder,
    cell_dim,
    compare_partitions,
    enumerate_partitions,
    enumerate_trees,
    format_partition,
    format_tree,
    make_partition,
    make_subtree,
    parse_partition,
    parse_tree,
    partition_cell_dim,
    partition_to_tree,
    satisfies_phi,
    tree_key,
    tree_to_partition,
)
from cohalab.checks import roundtrip_fixtures
from cohalab.partitions import MultiPartition, _vertex_partitions
from conftest import framed_loops, vertex_only
from helpers import oracle_fixtures, oracle_orders, partition_to_tree_by_nominees


def phi_oracle(fq, d, lam):
    """Brute-force restatement of the labelling condition, test-local."""
    for beta in product(*(range(x + 1) for x in d)):
        if beta == tuple(d):
            continue
        c = fq.critical_dim_vector(beta)
        witness = False
        for i in range(fq.vertex_count):
            idx = d[i] - beta[i]
            if idx == 0:
                continue  # +infinity entry is never small enough
            if lam.parts[i][idx - 1] < c[i]:
                witness = True
                break
        if not witness:
            return False
    return True


def test_phi_21(two_loop):
    lam = make_partition(two_loop, (3,), [(2, 1)])
    assert satisfies_phi(two_loop, (3,), lam)


def test_phi_3_fails(two_loop):
    lam = make_partition(two_loop, (3,), [(3,)])
    assert not satisfies_phi(two_loop, (3,), lam)
    assert not phi_oracle(two_loop, (3,), lam)


def test_phi_vertex_only_empty():
    fq = vertex_only(1)
    for parts in [(), (1,), (1, 1)]:
        lam = make_partition(fq, (2,), [parts])
        assert not satisfies_phi(fq, (2,), lam)


def test_phi_matches_oracle(two_loop):
    for lam in enumerate_partitions(two_loop, (3,)):
        assert phi_oracle(two_loop, (3,), lam)


def test_enumerate_partitions_two_loop(two_loop):
    got = [format_partition(lam) for lam in enumerate_partitions(two_loop, (3,))]
    assert got == ["[]", "[1]", "[2]", "[1,1]", "[2,1]"]


def test_enumerate_partitions_grassmannian():
    assert len(enumerate_partitions(vertex_only(4), (2,))) == 6


def test_enumerate_partitions_d0(two_loop):
    lams = enumerate_partitions(two_loop, (0,))
    assert len(lams) == 1 and lams[0].size == 0


def test_entry_bound(two_loop, a2):
    for fq, dims in [(two_loop, [(2,), (3,)]), (a2, [(1, 1), (2, 1)])]:
        for d in dims:
            c = fq.critical_dim_vector(d)
            for lam in enumerate_partitions(fq, d):
                for i in range(fq.vertex_count):
                    if d[i]:
                        assert lam.parts[i][0] <= c[i]


def test_tree_to_partition_examples(two_loop, shortlex):
    s3 = parse_tree(two_loop, shortlex, "f,af,baf")
    assert format_partition(tree_to_partition(two_loop, s3, shortlex)) == "[2]"
    s4 = parse_tree(two_loop, shortlex, "f,bf,abf")
    assert format_partition(tree_to_partition(two_loop, s4, shortlex)) == "[1,1]"
    root = make_subtree(two_loop, shortlex, [])
    assert tree_to_partition(two_loop, root, shortlex).size == 0


def test_partition_to_tree_examples(two_loop, shortlex, lex):
    lam = make_partition(two_loop, (3,), [(2,)])
    assert format_tree(two_loop, partition_to_tree(two_loop, lam, shortlex)) == "f,af,baf"
    assert format_tree(two_loop, partition_to_tree(two_loop, lam, lex)) == "f,af,bf"
    empty = make_partition(two_loop, (0,), [()])
    assert partition_to_tree(two_loop, empty, shortlex).nonroot == ()


def test_partition_to_tree_rejects_nonlabel(two_loop, shortlex):
    lam = make_partition(two_loop, (3,), [(3,)])
    with pytest.raises(CellError):
        partition_to_tree(two_loop, lam, shortlex)


@pytest.mark.parametrize("kind", ["shortlex", "lex"])
def test_roundtrip_all_fixtures(kind):
    order = PathOrder.shortlex() if kind == "shortlex" else PathOrder.lex()
    for fq, d in roundtrip_fixtures():
        trees = enumerate_trees(fq, d, order)
        labels = enumerate_partitions(fq, d)
        assert len(trees) == len(labels), (fq.framing, d)
        seen = set()
        for s in trees:
            lam = tree_to_partition(fq, s, order)
            assert satisfies_phi(fq, d, lam)
            back = partition_to_tree(fq, lam, order)
            assert back.path_set == s.path_set
            seen.add(lam.parts)
        assert seen == {lam.parts for lam in labels}


def test_cell_dim_consistency(two_loop, shortlex, lex):
    for order in (shortlex, lex):
        for d in [(1,), (2,), (3,), (4,)]:
            for s in enumerate_trees(two_loop, d, order):
                lam = tree_to_partition(two_loop, s, order)
                assert cell_dim(two_loop, s, order) == partition_cell_dim(
                    two_loop, d, lam
                )


def test_partition_cell_dim_examples(two_loop):
    lam = make_partition(two_loop, (3,), [(2, 1)])
    assert partition_cell_dim(two_loop, (3,), lam) == 9
    empty = make_partition(two_loop, (3,), [()])
    assert partition_cell_dim(two_loop, (3,), empty) == two_loop.hilb_dim((3,))
    gr = vertex_only(4)
    full = make_partition(gr, (2,), [(2, 2)])
    assert partition_cell_dim(gr, (2,), full) == 0


def test_compare_partitions_examples(two_loop):
    a = make_partition(two_loop, (3,), [(2,)])
    b = make_partition(two_loop, (3,), [(1, 1)])
    assert compare_partitions(a, b) == -1
    assert compare_partitions(a, a) == 0
    empty = make_partition(two_loop, (3,), [()])
    one = make_partition(two_loop, (3,), [(1,)])
    assert compare_partitions(empty, one) == -1


def test_compare_partitions_shape_mismatch(two_loop):
    a = make_partition(two_loop, (3,), [(2,)])
    b = make_partition(two_loop, (2,), [(1,)])
    with pytest.raises(CellError):
        compare_partitions(a, b)


def test_single_vertex_order_transport(two_loop, shortlex, lex):
    # the tree order maps to the partition order identically for both orders
    for order in (shortlex, lex):
        for d in [(2,), (3,), (4,)]:
            trees = enumerate_trees(two_loop, d, order)
            assert [tree_key(order, s) for s in trees] == sorted(
                tree_key(order, s) for s in trees
            )
            labels = [tree_to_partition(two_loop, s, order) for s in trees]
            assert labels == sorted(
                labels, key=lambda lam: tuple(tuple(reversed(p)) for p in lam.parts)
            )
            assert [lam.parts for lam in labels] == [
                lam.parts for lam in enumerate_partitions(two_loop, d)
            ]


def test_format_parse_partition(two_loop, a2):
    lam = make_partition(two_loop, (3,), [(2, 1)])
    assert parse_partition(two_loop, (3,), format_partition(lam)) == lam
    mu = make_partition(a2, (2, 1), [(1,), (1,)])
    assert format_partition(mu) == "[1][1]"
    assert parse_partition(a2, (2, 1), "[1][1]") == mu


@settings(max_examples=60)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_phi_agrees_with_oracle_random(parts):
    fq = framed_loops(2, 1)
    lam_parts = tuple(sorted(parts, reverse=True))
    lam = make_partition(fq, (3,), [lam_parts])
    assert satisfies_phi(fq, (3,), lam) == phi_oracle(fq, (3,), lam)


def tree_or_error(build, fq, lam, order):
    try:
        return build(fq, lam, order)
    except CellError:
        return CellError


@pytest.mark.parametrize(
    "name, fq, dims", [pytest.param(*f, id=f[0]) for f in oracle_fixtures()]
)
def test_partition_to_tree_matches_nominee_oracle(name, fq, dims):
    # every multipartition in the enumerate_partitions box, labels or not
    labels = 0
    for d in dims:
        c = fq.critical_dim_vector(d)
        box = [list(_vertex_partitions(max(0, c[i]), d[i])) for i in range(fq.vertex_count)]
        for order in oracle_orders(fq):
            for combo in product(*box):
                lam = MultiPartition(tuple(combo))
                got = tree_or_error(partition_to_tree, fq, lam, order)
                assert got == tree_or_error(partition_to_tree_by_nominees, fq, lam, order)
                labels += got is not CellError
    assert labels > 0
