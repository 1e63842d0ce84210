import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohalab import (
    CellError,
    FramedQuiver,
    PathOrder,
    Quiver,
    QuiverError,
    cell_dim,
    cell_labels,
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
from cohalab import partitions, series
from cohalab.cells import _walk
from cohalab.checks import roundtrip_fixtures
from cohalab.coha import top_degree, verify_basis
from cohalab.partitions import MultiPartition
from cohalab.paths import path_target
from conftest import framed_loops, vertex_only
from helpers import (
    children,
    oracle_fixtures,
    oracle_orders,
    partition_to_tree_by_nominees,
    phi_box,
    weighted_orders,
)


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


@pytest.mark.parametrize(
    "parts", [(1.7, 0.5), (2.0,), (Fraction(2),), ("2",), "2"], ids=repr
)
def test_make_partition_refuses_non_integer_parts(two_loop, parts):
    with pytest.raises(CellError, match="must be integers"):
        make_partition(two_loop, (3,), [parts])


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


def test_enumerate_partitions_rejects_negative(two_loop, a2):
    for fq, d in [(two_loop, (-1,)), (a2, (1, -2))]:
        with pytest.raises(CellError, match="must be non-negative"):
            enumerate_partitions(fq, d)


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


def test_partition_to_tree_rejects_other_quiver(two_loop, shortlex):
    # one group per vertex, as satisfies_phi requires
    for lam in [MultiPartition(()), MultiPartition(((1, 0), (0,)))]:
        with pytest.raises(QuiverError):
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


A3_FLAG = FramedQuiver(Quiver.make(3, [("a", 0, 1), ("b", 1, 2)]), (4, 0, 0))
# shortlex grows the label [1][] between [][] and [][1] here, so the tree
# order is not the label order and cell_labels has to sort
TWO_CYCLE = FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0)]), (1, 1))
LABEL_CASES = roundtrip_fixtures() + [
    (framed_loops(2, 1), (0,)),
    (vertex_only(1), (2,)),
    (A3_FLAG, (3, 2, 1)),
    (TWO_CYCLE, (2, 2)),
]


def test_cell_labels_match_phi_enumeration():
    for fq, d in LABEL_CASES:
        assert cell_labels(fq, d) == enumerate_partitions(fq, d), (fq, d)
    assert cell_labels(vertex_only(1), (2,)) == []
    order = PathOrder.shortlex()
    trees = enumerate_trees(TWO_CYCLE, (2, 2), order)
    assert [tree_to_partition(TWO_CYCLE, s, order) for s in trees] != cell_labels(TWO_CYCLE, (2, 2))


def test_cell_labels_returns_fresh_lists():
    first = cell_labels(TWO_CYCLE, (2, 2))
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert cell_labels(TWO_CYCLE, (2, 2)) == expected
    assert cell_labels(TWO_CYCLE, [2, 2]) == expected


def test_verify_basis_sweep_enumerates_trees_once(monkeypatch):
    calls = []

    def counting(fq, d, order):
        calls.append(d)
        return enumerate_trees(fq, d, order)

    partitions._cell_labels.cache_clear()
    series._motivic_class.cache_clear()
    monkeypatch.setattr(partitions, "enumerate_trees", counting)
    monkeypatch.setattr(series, "enumerate_trees", counting)
    fq = framed_loops(2, 1)
    # as coha-lab verify-basis sweeps: up to one past the top degree
    reports = [verify_basis(fq, (3,), n) for n in range(top_degree(fq, (3,)) + 2)]
    assert len(reports) == 5 and all(r.independent for r in reports)
    assert calls == [(3,)]


def test_phi_enumeration_is_oracle_only():
    # production code takes its labels from the trees; the brute force is
    # defined in partitions.py, exported, and called only by the checks
    package = Path(__file__).resolve().parent.parent / "src" / "cohalab"

    def names(tree):
        for node in ast.walk(tree):
            for field in ("id", "attr", "name"):
                yield getattr(node, field, None)

    users = {
        source.name
        for source in package.glob("*.py")
        if "enumerate_partitions" in names(ast.parse(source.read_text(encoding="utf-8")))
    }
    assert users == {"partitions.py", "checks.py", "__init__.py"}


def test_format_parse_partition(two_loop, a2):
    lam = make_partition(two_loop, (3,), [(2, 1)])
    assert parse_partition(two_loop, (3,), format_partition(lam)) == lam
    mu = make_partition(a2, (2, 1), [(1,), (1,)])
    assert format_partition(mu) == "[1][1]"
    assert parse_partition(a2, (2, 1), "[1][1]") == mu
    assert parse_partition(two_loop, (3,), " [2, 1] ") == lam
    assert parse_partition(two_loop, (3,), "[]").size == 0
    assert format_partition(parse_partition(a2, (3, 1), "[2,1][0]")) == "[2,1][]"
    for text in ["[1]]", "[[1]", "[1,]", "[1,,1]", "[1] x", "[-1]"]:
        with pytest.raises(CellError):
            parse_partition(two_loop, (3,), text)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_phi_agrees_with_oracle_random(parts):
    fq = framed_loops(2, 1)
    lam_parts = tuple(sorted(parts, reverse=True))
    lam = make_partition(fq, (3,), [lam_parts])
    assert satisfies_phi(fq, (3,), lam) == phi_oracle(fq, (3,), lam)


@pytest.mark.parametrize(
    "name, fq, dims", [pytest.param(*f, id=f[0]) for f in oracle_fixtures()]
)
def test_phi_table_matches_oracle_on_boxes(name, fq, dims):
    # the (i, j, c) indexing and the sentinel skip, vertex by vertex, d=0 included
    labels = 0
    for d in dims:
        box = phi_box(fq, d)
        accepted = [lam for lam in box if phi_oracle(fq, d, lam)]
        assert [lam for lam in box if satisfies_phi(fq, d, lam)] == accepted
        assert enumerate_partitions(fq, d) == sorted(accepted, key=partitions.partition_sort_key)
        labels += len(accepted)
    assert labels > 0


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
        box = phi_box(fq, d)
        for order in oracle_orders(fq):
            for lam in box:
                got = tree_or_error(partition_to_tree, fq, lam, order)
                assert got == tree_or_error(partition_to_tree_by_nominees, fq, lam, order)
                labels += got is not CellError
    assert labels > 0


GROWER_CASES = (
    roundtrip_fixtures()
    + [(TWO_CYCLE, d) for d in product(range(4), repeat=2) if any(d)]
    + [(A3_FLAG, d) for d in product(range(5), repeat=3) if any(d) and sum(d) <= 7]
)


def test_walk_meets_the_children_of_each_tree_in_order():
    # with membership in s as the question, the walk asks about exactly the
    # children of the members, ascending, and grows s itself
    for fq, d in GROWER_CASES:
        for order in (PathOrder.shortlex(), PathOrder.lex(), *weighted_orders(fq)):
            for s in enumerate_trees(fq, d, order):
                members, asked = s.path_set, []

                def take(c, i):
                    asked.append((c, i))
                    return c in members

                assert _walk(fq, order, take) == s.paths, (fq, d, order)
                kids = order.sort(c for u in s.paths for c in children(fq, u))
                expected = [(c, path_target(fq, c)) for c in kids]
                assert asked == expected, (fq, d, order)


def test_partition_to_tree_builds_ascending_trees():
    # the chain is not re-sorted: it must already be the enumerated tree
    for fq, d in GROWER_CASES:
        labels = enumerate_partitions(fq, d)
        for order in (PathOrder.shortlex(), PathOrder.lex(), *weighted_orders(fq)):
            trees = {s.paths for s in enumerate_trees(fq, d, order)}
            built = set()
            for lam in labels:
                paths = partition_to_tree(fq, lam, order).paths
                assert list(paths) == order.sort(paths), (fq, d, order, lam)
                built.add(paths)
            assert built == trees, (fq, d, order)
