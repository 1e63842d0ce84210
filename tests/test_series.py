from collections import Counter
from itertools import combinations
from math import comb, factorial

from hypothesis import given
from hypothesis import strategies as st

from cohalab import (
    FramedQuiver,
    LaurentPoly,
    Quiver,
    betti_numbers,
    cell_dim,
    enumerate_partitions,
    enumerate_trees,
    gaussian_binomial,
    motivic_class,
    q_multinomial,
    series,
)
from cohalab.checks import framed_a2, framed_an, flag_parts
from cohalab.paths import PathOrder
from conftest import framed_loops, vertex_only


def test_motivic_two_loop(two_loop):
    assert str(motivic_class(two_loop, (3,))) == "L^12 + L^11 + 2*L^10 + L^9"


def test_motivic_grassmannian():
    assert motivic_class(vertex_only(4), (2,)).as_dict() == {
        4: 1,
        3: 1,
        2: 2,
        1: 1,
        0: 1,
    }


def test_motivic_empty():
    assert motivic_class(vertex_only(1), (2,)).is_zero()


def test_betti_p1():
    assert betti_numbers(vertex_only(2), (1,)) == [(0, 1), (2, 1)]


def test_betti_two_loop(two_loop):
    assert betti_numbers(two_loop, (3,)) == [(0, 1), (2, 1), (4, 2), (6, 1)]


def test_betti_d0(two_loop):
    assert betti_numbers(two_loop, (0,)) == [(0, 1)]


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1).as_dict() == {0: 1, 1: 1}
    assert gaussian_binomial(4, 2).as_dict() == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert gaussian_binomial(5, 0).as_dict() == {0: 1}
    assert gaussian_binomial(2, 3).is_zero()


@given(st.integers(0, 7))
def test_gaussian_row_sums(w):
    for d in range(w + 1):
        assert gaussian_binomial(w, d).evaluate_at_one() == comb(w, d)


def test_gaussian_palindromic():
    for w in range(7):
        for d in range(w + 1):
            g = gaussian_binomial(w, d)
            hi, lo = g.degree(), g.low_degree()
            assert g.as_dict() == {hi + lo - e: c for e, c in g.as_dict().items()}


def test_euler_characteristic_is_cell_count(two_loop):
    for d in [(1,), (2,), (3,), (4,)]:
        labels = enumerate_partitions(two_loop, d)
        trees = enumerate_trees(two_loop, d, PathOrder.shortlex())
        assert motivic_class(two_loop, d).evaluate_at_one() == len(labels) == len(trees)


def test_degree_range(two_loop):
    for d in [(1,), (2,), (3,)]:
        poly = motivic_class(two_loop, d)
        labels = enumerate_partitions(two_loop, d)
        assert poly.degree() == two_loop.hilb_dim(d)
        assert poly.low_degree() == two_loop.hilb_dim(d) - max(l.size for l in labels)


def test_motivic_order_independent():
    for loops in (1, 2, 3):
        fq = framed_loops(loops, 1)
        for d in [(2,), (3,)]:
            direct = motivic_class(fq, d).as_dict()
            for order in (PathOrder.shortlex(), PathOrder.lex()):
                trees = enumerate_trees(fq, d, order)
                assert Counter(cell_dim(fq, s, order) for s in trees) == direct


def test_cell_count_is_fuss_catalan():
    # Reineke (2005): the m-loop quiver with framing 1 has C(md, d)/((m-1)d+1)
    # cells at dimension d, sizes out of reach for phi-enumeration
    for loops, max_d in ((2, 9), (3, 7)):
        fq = framed_loops(loops, 1)
        for d in range(1, max_d + 1):
            cells = comb(loops * d, d) // ((loops - 1) * d + 1)
            assert len(enumerate_trees(fq, (d,), PathOrder.shortlex())) == cells
            assert motivic_class(fq, (d,)).evaluate_at_one() == cells


def test_laurent_display():
    p = LaurentPoly.from_dict({2: 3, 1: 1, 0: -1, -1: 1})
    assert str(p) == "3*L^2 + L - 1 + L^-1"
    assert str(LaurentPoly.zero()) == "0"


def test_motivic_class_takes_list_or_tuple(two_loop):
    assert motivic_class(two_loop, [3]) == motivic_class(two_loop, (3,))
    a2 = framed_a2(2)
    assert motivic_class(a2, [2, 1]) == motivic_class(a2, (2, 1))


def test_motivic_then_betti_enumerates_trees_once(monkeypatch):
    calls = []

    def counting(fq, d, order):
        calls.append(d)
        return enumerate_trees(fq, d, order)

    series._motivic_class.cache_clear()
    monkeypatch.setattr(series, "enumerate_trees", counting)
    fq = framed_loops(2, 1)
    mot = motivic_class(fq, (4,))
    assert betti_numbers(fq, [4]) == [(2 * (fq.hilb_dim((4,)) - e), c) for e, c in mot.coeffs]
    assert calls == [(4,)]


def test_q_multinomial_values():
    assert q_multinomial([]).as_dict() == {0: 1}
    assert q_multinomial([3]).as_dict() == {0: 1}
    # [3; 1,1,1] = [3]! = (1)(1+L)(1+L+L^2)
    assert q_multinomial([1, 1, 1]).as_dict() == {0: 1, 1: 2, 2: 2, 3: 1}
    assert q_multinomial([2, -1]).is_zero()


@given(st.lists(st.integers(0, 2), max_size=4))
def test_q_multinomial_counts_words(parts):
    # the class at L=1 is the multinomial coefficient; the top degree is the
    # inversion count of the descending word, parts[j]*parts[k] over j < k
    count = factorial(sum(parts))
    for p in parts:
        count //= factorial(p)
    mot = q_multinomial(parts)
    assert mot.evaluate_at_one() == count
    assert mot.degree() == sum(a * b for a, b in combinations(parts, 2))
    assert mot == q_multinomial(parts[::-1])


def test_gaussian_binomial_zero_outside_range():
    for w in range(7):
        for d in range(-1, w + 2):
            assert gaussian_binomial(w, d).is_zero() == (not 0 <= d <= w)


def test_framed_an_extends_framed_a2():
    for w in range(5):
        names = {1: ["f"], 2: ["e", "f"], 3: ["e", "f", "g"]}.get(w)
        want = FramedQuiver(Quiver.make(2, [("a", 0, 1)]), (w, 0), names)
        for fq in (framed_an(2, w), framed_a2(w)):
            assert fq == want and fq.arrows == want.arrows
    fq = framed_an(4, 2)
    assert [(x.name, x.source, x.target) for x in fq.arrows] == [
        ("e", -1, 0), ("f", -1, 0), ("a", 0, 1), ("b", 1, 2), ("c", 2, 3)
    ]


def test_flag_variety_series():
    # Fl(1,2;3): six cells, one of each length of a permutation of S_3
    fq = framed_an(3, 3)
    assert flag_parts(3, (2, 1, 0)) == [1, 1, 1, 0]
    assert motivic_class(fq, (2, 1, 0)).as_dict() == {0: 1, 1: 2, 2: 2, 3: 1}
