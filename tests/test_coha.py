from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod
from operator import add
from random import Random

import pytest

from cohalab import (
    CohaError,
    betti_numbers,
    elementary,
    enumerate_partitions,
    framing_idempotent,
    gaussian_binomial,
    kernel_graded_piece,
    make_partition,
    monomial_symmetric,
    motivic_class,
    shuffle_product,
    slice_basis,
    tautological_monomial,
    top_degree,
    unit,
    verify_basis,
)
from cohalab import coha
from cohalab.checks import framed_an, roundtrip_fixtures
from cohalab.cli import run
from cohalab.coha import SymPoly, _monomial_to_schur, _row, _schur_to_monomial
from cohalab.linalg import Span, rref
from cohalab.polys import Poly
from cohalab.quiver import FramedQuiver, Quiver, euler_form, serialize_quiver_file
from conftest import framed_a2, framed_loops, vertex_only
from helpers import (
    SHUFFLE_FIXTURES,
    canonical_rows,
    kostka_by_tableaux,
    per_shuffle_product,
    poly_coordinates,
    poly_cup_product,
    poly_tautological_monomial,
)


def random_sympoly(fq, d, degree, rng):
    """Random rational combination of the monomial-symmetric basis."""
    coords = {}
    for n in range(degree + 1):
        for sig in slice_basis(d, n):
            if rng.random() < 0.4:
                coords[sig] = rng.randint(-3, 3)
    return SymPoly(fq, d, coords)


def cup(f, g):
    """The cup product, through the expanded-polynomial oracle."""
    return SymPoly.from_poly(f.fq, f.d, poly_cup_product(f, g))


# -- shuffle product ---------------------------------------------------------------


def random_fraction_element(fq, d, degree, rng):
    """Random combination of the monomial-symmetric basis, Fraction coefficients."""
    coords = {}
    for n in range(degree + 1):
        for sig in slice_basis(d, n):
            coords[sig] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return SymPoly(fq, d, coords)




@pytest.mark.parametrize(
    "fq, dims, max_total", [f[1:] for f in SHUFFLE_FIXTURES], ids=[f[0] for f in SHUFFLE_FIXTURES]
)
def test_orbit_product_matches_per_shuffle_oracle(fq, dims, max_total):
    rng = Random(2024)
    for d in dims:
        for e in dims:
            if sum(d) + sum(e) > max_total:
                continue
            f = random_fraction_element(fq, d, 2, rng)
            g = random_fraction_element(fq, e, 2, rng)
            assert shuffle_product(f, g).poly == per_shuffle_product(f, g), (d, e)


@pytest.mark.parametrize(
    "fq, dims, max_total", [f[1:] for f in SHUFFLE_FIXTURES], ids=[f[0] for f in SHUFFLE_FIXTURES]
)
def test_shuffle_product_never_expands_orbits(fq, dims, max_total, monkeypatch):
    # the core is built from coordinates and orbit sizes alone
    rng = Random(5)
    pairs = []
    for d in dims:
        for e in dims:
            if sum(d) + sum(e) <= max_total:
                f = random_fraction_element(fq, d, 2, rng)
                pairs.append((f, random_fraction_element(fq, e, 2, rng)))
    want = [per_shuffle_product(f, g) for f, g in pairs]

    def expand(self):
        raise AssertionError("SymPoly.poly called")

    monkeypatch.setattr(SymPoly, "poly", property(expand))
    got = [shuffle_product(f, g) for f, g in pairs]
    monkeypatch.undo()
    assert [p.poly for p in got] == want


@pytest.mark.parametrize(
    "fq, dims, max_total", [f[1:] for f in SHUFFLE_FIXTURES], ids=[f[0] for f in SHUFFLE_FIXTURES]
)
def test_cup_product_matches_polynomial_oracle(fq, dims, max_total):
    # orbit sums pairwise, block by block through _block_product (the looped
    # blocks of _elementary_product), read back through the coordinates oracle
    for d in dims:
        for p, q in [(1, 1), (1, 2), (2, 2), (0, 3)]:
            basis = slice_basis(d, p + q)
            index = {sig: j for j, sig in enumerate(basis)}
            for a in slice_basis(d, p):
                for b in slice_basis(d, q):
                    f, g = monomial_symmetric(fq, d, a), monomial_symmetric(fq, d, b)
                    coords = Counter()
                    for combo in product(*map(coha._block_product, a, b)):
                        coords[tuple(gam for gam, _ in combo)] += prod(k for _, k in combo)
                    want = poly_coordinates(poly_cup_product(f, g), d, basis)
                    assert _row(coords, index) == want, (a, b)


@pytest.mark.parametrize(
    "fq, dims, max_total", [f[1:] for f in SHUFFLE_FIXTURES], ids=[f[0] for f in SHUFFLE_FIXTURES]
)
def test_int_elements_have_int_products(fq, dims, max_total):
    # integer inputs stay in integer arithmetic: the division by d! e! is exact
    rng = Random(7)
    for d in dims:
        for e in dims:
            if sum(d) + sum(e) > max_total:
                continue
            f, g = random_sympoly(fq, d, 2, rng), random_sympoly(fq, e, 2, rng)
            assert all(type(c) is int for c in f.poly.terms.values())
            product = shuffle_product(f, g)
            assert all(type(c) is int for c in product.poly.terms.values()), (d, e)


def test_one_loop_ones():
    fq = framed_loops(1, 1)
    one = unit(fq, (1,))
    assert shuffle_product(one, one).poly.const_value() == 2


def test_exterior_vanishing():
    fq = vertex_only(2)
    one = unit(fq, (1,))
    power = one
    for _ in range(2):
        power = shuffle_product(power, one)
    assert power.is_zero()


@pytest.mark.parametrize(
    "fixture", ["vertex_only", "one_loop", "two_loop", "a2"]
)
def test_associativity_sample(fixture):
    makers = {
        "vertex_only": vertex_only(2),
        "one_loop": framed_loops(1, 1),
        "two_loop": framed_loops(2, 1),
        "a2": framed_a2(2),
    }
    fq = makers[fixture]
    rng = Random(42)
    if fq.vertex_count == 1:
        dims = [(1,), (2,)]
    else:
        dims = [(1, 0), (0, 1), (1, 1)]
    for _ in range(8):
        da, db, dc = (dims[rng.randrange(len(dims))] for _ in range(3))
        f = random_sympoly(fq, da, 2, rng)
        g = random_sympoly(fq, db, 2, rng)
        h = random_sympoly(fq, dc, 2, rng)
        lhs = shuffle_product(shuffle_product(f, g), h)
        rhs = shuffle_product(f, shuffle_product(g, h))
        assert lhs.poly == rhs.poly


@pytest.mark.parametrize(
    "fq, dims",
    [
        (framed_loops(2, 1), [(1,), (2,)]),
        (framed_loops(3, 2), [(1,), (2,)]),
        (vertex_only(3), [(1,), (2,)]),
        (framed_an(3, 3), [(1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]),
        (FramedQuiver(Quiver.make(2, [("a", 0, 1), ("b", 1, 0)]), (1, 2)), [(1, 0), (0, 1), (1, 1)]),
    ],
    ids=["two-loop", "three-loop-w2", "point-w3", "a3-w3", "two-cycle-w12"],
)
def test_framing_idempotent_distributes_over_shuffle(fq, dims):
    # e_t cup (a * b) = (e_d cup a) * (e_e cup b): the Euler class of the
    # framing is symmetric and multiplicative over the split of variables
    rng = Random(7)
    for _ in range(6):
        d, e = (dims[rng.randrange(len(dims))] for _ in range(2))
        t = tuple(map(add, d, e))
        a, b = random_sympoly(fq, d, 2, rng), random_sympoly(fq, e, 2, rng)
        lhs = cup(framing_idempotent(fq, t), shuffle_product(a, b))
        rhs = shuffle_product(cup(framing_idempotent(fq, d), a), cup(framing_idempotent(fq, e), b))
        assert lhs == rhs


@pytest.mark.parametrize("fq", [vertex_only(1), framed_loops(2, 1)], ids=["point", "two-loop"])
def test_non_symmetric_factor_is_rejected(fq):
    # symmetry is guaranteed by the type, so building the element is what fails
    with pytest.raises(CohaError):
        SymPoly.from_poly(fq, (2,), Poly.variable(2, 0))
    x1_squared_x2 = Poly.monomial(3, (2, 1, 0)) + Poly.monomial(3, (1, 2, 0))
    with pytest.raises(CohaError):
        SymPoly.from_poly(fq, (3,), x1_squared_x2)
    symmetric = x1_squared_x2 + Poly.monomial(3, (2, 0, 1)) + Poly.monomial(3, (1, 0, 2))
    symmetric = symmetric + Poly.monomial(3, (0, 2, 1)) + Poly.monomial(3, (0, 1, 2))
    assert SymPoly.from_poly(fq, (3,), symmetric) == monomial_symmetric(fq, (3,), ((2, 1, 0),))


def test_from_poly_refuses_a_wrong_variable_count():
    fq = framed_loops(1, 1)
    with pytest.raises(CohaError, match="3 variables"):
        SymPoly.from_poly(fq, (2,), Poly(3, {(1, 0, 1): 1, (0, 1, 1): 1}))
    with pytest.raises(CohaError, match="d needs 2"):
        SymPoly.from_poly(fq, (2,), Poly.variable(1, 0))


def test_construction_normalises_coefficients():
    fq = vertex_only(1)
    x = ((1,),)
    with pytest.raises(TypeError, match="inexact"):
        SymPoly(fq, (1,), {x: 0.5})
    zero = SymPoly(fq, (1,), {x: 0, ((2,),): Fraction(0)})
    assert zero.is_zero() and zero == SymPoly(fq, (1,), {})
    f = SymPoly(fq, (1,), {x: Fraction(4, 2), ((0,),): Fraction(1, 2)})
    assert f.coords == {x: 2, ((0,),): Fraction(1, 2)}
    assert type(f.coords[x]) is int


def test_construction_normalises_the_dimension_vector():
    fq = framed_loops(1, 1)
    f = SymPoly.from_poly(fq, [1], Poly.variable(1, 0))
    assert f.d == (1,) and f == monomial_symmetric(fq, (1,), ((1,),))
    assert SymPoly(fq, [2], {((1, 0),): 1}) == monomial_symmetric(fq, (2,), ((0, 1),))


@pytest.mark.parametrize(
    "d, sig",
    [
        ((5,), ((1,),)),  # the d=1 piece labelled d=5
        ((2,), ((0, 1),)),  # not weakly decreasing
        ((1,), ((-1,),)),
        ((1,), ((1.0,),)),
        ((1,), ((True,),)),
        ((1,), ((1,), (0,))),  # one part too many
        ((1,), (1,)),  # a part that is not a tuple
        ((1,), 1),
    ],
)
def test_construction_refuses_a_signature_off_the_dimension_vector(d, sig):
    with pytest.raises(CohaError, match="signature does not match the dimension vector"):
        SymPoly(framed_loops(1, 1), d, {sig: 1})


def test_quiver_mismatch():
    f = unit(vertex_only(1), (1,))
    g = unit(framed_loops(1, 1), (1,))
    with pytest.raises(CohaError):
        shuffle_product(f, g)


# -- cup product and idempotents -----------------------------------------------------


def test_cup_examples():
    # m_1 m_1 = m_2 + 2 m_11, m_1 m_0 = m_1 and m_1 m_11 = m_21 in two variables
    assert dict(coha._block_product((1, 0), (1, 0))) == {(2, 0): 1, (1, 1): 2}
    assert dict(coha._block_product((1, 0), (0, 0))) == {(1, 0): 1}
    assert dict(coha._block_product((1, 0), (1, 1))) == {(2, 1): 1}


def test_framing_idempotent(two_loop):
    fq1 = vertex_only(1)
    assert framing_idempotent(fq1, (1,)).poly == Poly.variable(1, 0)
    e = framing_idempotent(two_loop, (2,))
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert e.poly == x1 * x2
    fq0 = vertex_only(0)
    assert framing_idempotent(fq0, (2,)).poly.is_const()


# -- kernel slices and the basis theorem ----------------------------------------------


def test_kernel_point_case():
    fq = vertex_only(1)
    k = kernel_graded_piece(fq, (1,), 1)
    assert k.dim == 1 and len(k.basis) == 1
    assert verify_basis(fq, (1,), 0).quotient_dim == 1
    for n in (1, 2, 3):
        assert verify_basis(fq, (1,), n).quotient_dim == 0


def test_kernel_p1_matches_betti():
    fq = vertex_only(2)
    ranks = dict(betti_numbers(fq, (1,)))
    for n in range(4):
        r = verify_basis(fq, (1,), n)
        assert r.quotient_dim == ranks.get(2 * n, 0)


def test_kernel_d0(two_loop):
    k = kernel_graded_piece(two_loop, (0,), 0)
    assert k.dim == 0


def test_kernel_dims_two_loop_d5(two_loop):
    # golden values at a size where elimination meets non-unit pivots
    dims = [kernel_graded_piece(two_loop, (5,), n).dim for n in range(12)]
    assert dims == [0, 0, 0, 0, 0, 2, 3, 6, 12, 19, 29, 37]


def test_kernel_dims_two_loop_d6(two_loop):
    # golden values, the same under the earlier Fraction elimination; the
    # kernel rows come back in the canonical int form
    reports = [verify_basis(two_loop, (6,), n) for n in range(14)]
    assert [r.kernel_dim for r in reports] == [0, 0, 0, 0, 0, 0, 2, 3, 6, 10, 19, 27, 44, 61]
    assert all(r.independent for r in reports)
    rows = canonical_rows(kernel_graded_piece(two_loop, (6,), 9))
    assert all(type(x) is int for row in rows for x in row)


def test_verify_basis_leaves_a_held_kernel_alone(two_loop, monkeypatch):
    # verify_basis adds the label rows to a copy of the kernel's echelon span
    kernel = kernel_graded_piece(two_loop, (6,), 9)
    echelon_rows = list(kernel.echelon.rows)
    monkeypatch.setattr(coha, "kernel_graded_piece", lambda fq, d, n: kernel)
    report = verify_basis(two_loop, (6,), 9)
    assert report.independent and report.partition_count > 0
    assert report.kernel_dim == kernel.dim == 10
    assert kernel.echelon.rows == echelon_rows
    assert canonical_rows(kernel) == canonical_rows(kernel_graded_piece(two_loop, (6,), 9))


def test_kernel_dims_two_loop_d7(two_loop):
    # golden values; the full sweep, n=0..21, is recorded in ROADMAP.md
    dims = [kernel_graded_piece(two_loop, (7,), n).dim for n in range(18)]
    assert dims == [0, 0, 0, 0, 0, 0, 0, 2, 3, 6, 10, 17, 28, 42, 61, 88, 124, 166]


def test_schur_to_monomial_matches_tableaux():
    # every shape with at most 5 parts, zeros included, and |lam| <= 8
    for t in range(6):
        for lam in combinations_with_replacement(range(8, -1, -1), t):
            if sum(lam) <= 8:
                assert dict(_schur_to_monomial(lam)) == kostka_by_tableaux(lam), lam


def test_monomial_to_schur_inverts_the_tableaux_kostka_matrix():
    # every shape with at most 5 parts, zeros included, and |mu| <= 8:
    # m_mu = sum c_lam s_lam = sum c_lam K_{lam,nu} m_nu is m_mu again
    for t in range(6):
        for mu in combinations_with_replacement(range(8, -1, -1), t):
            if sum(mu) > 8:
                continue
            expansion = _monomial_to_schur(mu)
            assert all(type(c) is int and c for _, c in expansion)
            for kostka in (kostka_by_tableaux, lambda lam: dict(_schur_to_monomial(lam))):
                back = Counter()
                for lam, c in expansion:
                    for nu, k in kostka(lam).items():
                        back[nu] += c * k
                assert {nu: c for nu, c in back.items() if c} == {mu: 1}, mu


def schur_element(fq, d, sig, loopless):
    """s_sig at the loopless blocks and m_sig at the looped ones, as a SymPoly
    whose monomial coordinates come from the tableaux Kostka numbers."""
    coords = Counter()
    for combo in product(
        *(kostka_by_tableaux(lam).items() if ll else [(lam, 1)] for lam, ll in zip(sig, loopless))
    ):
        coords[tuple(mu for mu, _ in combo)] += prod(k for _, k in combo)
    return SymPoly(fq, d, {mu: c for mu, c in coords.items() if c})


MIXED_FIXTURES = [  # loopless, looped and mixed quivers: (name, quiver, d, degrees)
    ("point-w3", vertex_only(3), (3,), range(7)),
    ("two-loop", framed_loops(2, 1), (3,), range(7)),
    ("a2", framed_a2(2), (2, 2), range(4)),
    ("looped-and-loopless", dict((f[0], f[1]) for f in SHUFFLE_FIXTURES)["looped-and-loopless"],
     (2, 2), range(5)),
]


@pytest.mark.parametrize(
    "fq, d, degrees", [f[1:] for f in MIXED_FIXTURES], ids=[f[0] for f in MIXED_FIXTURES]
)
def test_kernel_generators_are_shuffle_products_in_mixed_coordinates(fq, d, degrees, monkeypatch):
    # each generator kernel_graded_piece builds is the product of its two
    # basis elements, built from tableaux, by the per-shuffle oracle and by
    # the public product, read in mixed coordinates and left undivided:
    # times the (d, e) denominator
    captured = []
    shifts = coha._shifts

    def record(q, d, e, f, g):
        for (a, b), gen in zip(product(f, g), shifts(q, d, e, f, g), strict=True):
            assert f[a] == g[b] == 1
            captured.append((d, e, a, b, gen))
            yield gen

    monkeypatch.setattr(coha, "_shifts", record)
    for n in degrees:
        kernel_graded_piece(fq, d, n)
    monkeypatch.undo()
    loopless = coha._loopless(fq.base)
    repeated = 0
    for rest, e, a, b, gen in captured:
        fs, gs = schur_element(fq, rest, a, loopless), schur_element(fq, e, b, loopless)
        product_ = shuffle_product(fs, gs)
        assert product_ == SymPoly.from_poly(fq, product_.d, per_shuffle_product(fs, gs))
        denominator = prod(
            (-1) ** (x * y) if ll else factorial(x) * factorial(y)
            for x, y, ll in zip(rest, e, loopless)
        )
        mixed = coha._convert(product_.coords, loopless, _monomial_to_schur)
        assert {sig: c * denominator for sig, c in mixed.items()} == gen
        assert all(type(c) is int for c in gen.values())
        repeated += any(ll and len(set(lam)) < len(lam) for lam, ll in zip(a + b, loopless * 2))
    assert captured and (repeated or not any(loopless))


@pytest.mark.parametrize(
    "fq, d, degrees", [(vertex_only(7), (4,), range(14)), (framed_a2(3), (3, 2), range(5))]
)
def test_contains_takes_monomial_rows(fq, d, degrees):
    # the monomial generators f * (e_w cup g) with g at the framed vertex lie
    # in the kernel; the tautological monomials of the labels stay outside
    e = (1,) + (0,) * (len(d) - 1)
    rest = tuple(x - y for x, y in zip(d, e))
    idempotent = framing_idempotent(fq, e)
    labels = enumerate_partitions(fq, d)
    checked = 0
    for n in degrees:
        kernel = kernel_graded_piece(fq, d, n)
        rows = canonical_rows(kernel)
        span = Span.of(len(kernel.basis), rows)
        assert span.rank == kernel.dim and all(map(span.contains, rows))
        budget = n + euler_form(fq.base, rest, e) - fq.framing[0]
        for p in range(budget + 1):
            for sig_f, sig_g in product(slice_basis(rest, p), slice_basis(e, budget - p)):
                f = monomial_symmetric(fq, rest, sig_f)
                g = cup(idempotent, monomial_symmetric(fq, e, sig_g))
                assert span.contains(_row(shuffle_product(f, g).coords, kernel.index))
                checked += 1
        for lam in labels:
            if lam.size == n:
                row = _row(tautological_monomial(fq, lam).coords, kernel.index)
                assert not span.contains(row)
    assert checked


def test_kernel_dims_loopless_kostka_sizes():
    # golden values where Kostka numbers exceed 1 (loopless blocks of size 4, 5):
    # full sweeps of the Grassmannians Gr(4,7) and Gr(5,8)
    cases = [
        (7, 4, [0, 0, 0, 0, 1, 2, 4, 7, 11, 15, 21, 26, 33, 39]),
        (8, 5, [0, 0, 0, 0, 1, 2, 4, 7, 12, 17, 25, 33, 44, 55, 69, 83]),
    ]
    for w, k, dims in cases:
        reports = [verify_basis(vertex_only(w), (k,), n) for n in range(len(dims))]
        assert [r.kernel_dim for r in reports] == dims
        assert all(r.independent for r in reports)
        coeffs = gaussian_binomial(w, k).as_dict()
        assert [r.quotient_dim for r in reports] == [coeffs.get(n, 0) for n in range(len(dims))]
    a2 = framed_a2(3)
    assert [kernel_graded_piece(a2, (3, 2), n).dim for n in range(4)] == [0, 1, 4, 9]


def test_tautological_monomials_two_loop(two_loop):
    lam2 = make_partition(two_loop, (3,), [(2,)])
    t = tautological_monomial(two_loop, lam2)
    e1 = elementary(two_loop, (3,), 0, 1)
    assert t.poly == e1.poly * e1.poly
    assert t.degree() == 2
    lam11 = make_partition(two_loop, (3,), [(1, 1)])
    assert tautological_monomial(two_loop, lam11).poly == elementary(
        two_loop, (3,), 0, 2
    ).poly
    empty = make_partition(two_loop, (3,), [()])
    assert tautological_monomial(two_loop, empty).poly.is_const()


def test_tautological_matches_polynomial_oracle(two_loop):
    cases = [(two_loop, (d,)) for d in range(6)]
    cases += [(framed_a2(2), d) for d in product(range(3), repeat=2)]
    cases += [(vertex_only(7), (4,))]
    for fq, d in cases:
        for lam in enumerate_partitions(fq, d):
            t = tautological_monomial(fq, lam)
            assert t.poly == poly_tautological_monomial(fq, lam), (d, lam)


def test_tautological_degree_is_size(two_loop, a2):
    for fq, d in [(two_loop, (3,)), (a2, (2, 1))]:
        for lam in enumerate_partitions(fq, d):
            t = tautological_monomial(fq, lam)
            assert t.degree() == lam.size


def test_tautological_rejects_nonlabel(two_loop):
    lam = make_partition(two_loop, (3,), [(3,)])
    with pytest.raises(CohaError):
        tautological_monomial(two_loop, lam)


def cup_tautological(fq, d, parts):
    """prod over vertices i and k of e_k^(parts_k - parts_(k+1)) at vertex i,
    one cup product in monomial coordinates per factor."""
    result = unit(fq, d)
    for i, lam in enumerate(parts):
        for k in range(1, d[i] + 1):
            for _ in range(lam[k - 1] - (lam[k] if k < d[i] else 0)):
                result = cup(result, elementary(fq, d, i, k))
    return result


def conjugate(lam, length):
    """The conjugate partition of lam, padded to length parts."""
    return tuple(sum(x > j for x in lam) for j in range(length))


def test_elementary_product_matches_cup_products_and_kostka():
    # every block of at most 5 variables and shape with parts at most 3:
    # in Schur coordinates e_mu = sum K_{nu',mu} s_nu, mu = lam' the indices
    # of the factors, and both coordinates agree with the cup-product route
    fq = vertex_only(1)
    for t in range(6):
        for lam in combinations_with_replacement(range(3, -1, -1), t):
            monomial = cup_tautological(fq, (t,), [lam]).coords
            assert dict(coha._elementary_product(lam, False)) == {
                mu: c for (mu,), c in monomial.items()
            }, lam
            schur = dict(coha._elementary_product(lam, True))
            converted = coha._convert(monomial, (True,), _monomial_to_schur)
            assert schur == {nu: c for (nu,), c in converted.items()}, lam
            top = lam[0] if t else 0  # s_nu with nu_1 > lam_1 does not occur
            shapes = combinations_with_replacement(range(top, -1, -1), t)
            kostka = {
                nu: kostka_by_tableaux(conjugate(nu, top)).get(conjugate(lam, top), 0)
                for nu in shapes
                if sum(nu) == sum(lam)
            }
            assert schur == {nu: k for nu, k in kostka.items() if k}, lam


@pytest.mark.parametrize(
    "fq, d, degrees",
    [f[1:] for f in MIXED_FIXTURES] + [(framed_an(3, 4), (3, 2, 1), range(7))],
    ids=[f[0] for f in MIXED_FIXTURES] + ["fl-4"],
)
def test_label_rows_by_pieri_match_cup_products(fq, d, degrees):
    # the rows verify_basis reads, built by Pieri's rule, are the
    # cup-product tautological monomials converted to mixed coordinates
    labels = enumerate_partitions(fq, d)
    checked = 0
    for n in degrees:
        kernel = kernel_graded_piece(fq, d, n)
        for lam in labels:
            if lam.size == n:
                chained = cup_tautological(fq, d, lam.parts)
                assert tautological_monomial(fq, lam) == chained
                row = _row(coha._tautological(lam, kernel.loopless), kernel.index)
                mixed = coha._convert(chained.coords, kernel.loopless, _monomial_to_schur)
                assert row == _row(mixed, kernel.index), lam
                checked += 1
    assert checked


def test_verify_basis_grassmannian():
    fq = vertex_only(4)
    quotients = [verify_basis(fq, (2,), n) for n in range(5)]
    assert [r.quotient_dim for r in quotients] == [1, 1, 2, 1, 1]
    assert all(r.independent for r in quotients)


def test_verify_basis_two_loop_degree_two(two_loop):
    r = verify_basis(two_loop, (3,), 2)
    assert r.quotient_dim == 2 and r.partition_count == 2 and r.independent


def test_verify_basis_reports_dependent_labels(two_loop, monkeypatch, tmp_path, capsys):
    # two-loop d=3 n=2 has two labels; give both the same element, and the
    # slice must fail on independence alone
    honest = verify_basis(two_loop, (3,), 2)
    original = coha._tautological
    first = {}

    def collapsed(lam, loopless):
        return first.setdefault((lam.shape(), lam.size), original(lam, loopless))

    monkeypatch.setattr(coha, "_tautological", collapsed)
    r = verify_basis(two_loop, (3,), 2)
    assert r.partition_count == 2 and not r.independent
    assert (r.kernel_dim, r.quotient_dim) == (honest.kernel_dim, honest.quotient_dim)
    path = tmp_path / "twoloop.q"
    path.write_text(serialize_quiver_file(two_loop), encoding="utf-8")
    assert run(["verify-basis", "-q", str(path), "--dim", "3", "--max-degree", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in out] == ["PASS", "PASS", "FAIL"]


def test_verify_basis_empty_moduli():
    fq = vertex_only(1)
    for n in range(4):
        r = verify_basis(fq, (2,), n)
        assert r.quotient_dim == 0 and r.independent


@pytest.mark.parametrize("fq", [vertex_only(2), framed_loops(2, 1)])
def test_kernel_is_left_submodule_slice(fq):
    # f * k stays in the kernel for homogeneous f and kernel generators k
    d = (1,)
    rng = Random(9)
    spans = {}  # one monomial-coordinate span per slice
    for kernel_degree in (1, 2):
        k1 = kernel_graded_piece(fq, d, kernel_degree)
        for row in canonical_rows(k1):
            gen = SymPoly(fq, d, dict(zip(k1.basis, row)))
            for p in (0, 1, 2):
                for sig in slice_basis((1,), p)[:2]:
                    f = SymPoly(fq, (1,), {sig: rng.randint(1, 5)})
                    prod = shuffle_product(f, gen)
                    if prod.is_zero():
                        continue
                    key = prod.d, prod.degree()
                    if key not in spans:
                        piece = kernel_graded_piece(fq, *key)
                        spans[key] = piece, Span.of(len(piece.basis), canonical_rows(piece))
                    piece, span = spans[key]
                    assert span.contains(poly_coordinates(prod.poly, prod.d, piece.basis))


def test_top_degree(two_loop):
    assert top_degree(two_loop, (3,)) == 3
    assert top_degree(vertex_only(1), (2,)) == -1


def test_top_degree_is_hilb_dim_minus_lowest_cell_dim():
    for fq, d in roundtrip_fixtures():
        low = motivic_class(fq, d).low_degree()
        assert top_degree(fq, d) == (-1 if low is None else fq.hilb_dim(d) - low), (fq, d)


@pytest.mark.parametrize("build", [kernel_graded_piece, verify_basis])
def test_degree_must_be_an_integer(two_loop, build):
    with pytest.raises(CohaError, match="degree must be an integer"):
        build(two_loop, (2,), 2.0)
    with pytest.raises(CohaError, match="degree must be non-negative"):
        build(two_loop, (2,), -1)
    # an int subclass is stored as the int it stands for
    assert type(build(two_loop, (2,), True).n) is int


def test_kernel_refuses_negative_dimension_entries(two_loop):
    with pytest.raises(CohaError, match="dimension entry must be non-negative"):
        kernel_graded_piece(two_loop, (-1,), 0)


def test_slice_basis_refuses_negative_or_inexact_input():
    with pytest.raises(CohaError, match="dimension entry must be non-negative"):
        slice_basis((-1,), 2)
    with pytest.raises(CohaError, match="degree must be an integer"):
        slice_basis((2,), 2.0)


@pytest.mark.parametrize("lam", [(0.5, 1), (-1, 1)], ids=["half", "negative"])
def test_monomial_symmetric_exponents_are_naturals(two_loop, lam):
    with pytest.raises(CohaError, match="exponent must be"):
        monomial_symmetric(two_loop, (2,), (lam,))


@pytest.mark.parametrize("i", [-1, 2])
def test_elementary_vertex_in_range(i):
    with pytest.raises(CohaError, match="vertex"):
        elementary(framed_a2(2), (2, 1), i, 1)


def test_slice_basis_returns_fresh_lists():
    first = slice_basis((2, 1), 3)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    assert slice_basis((2, 1), 3) == expected
    assert slice_basis([2, 1], 3) == expected
    with pytest.raises(CohaError, match="dimension entry must be non-negative"):
        slice_basis((2, -1), 3)
    with pytest.raises(CohaError, match="dimension entry must be an integer"):
        slice_basis((2.0, 1), 3)
    with pytest.raises(CohaError, match="degree must be an integer"):
        slice_basis((2, 1), 3.0)
    with pytest.raises(CohaError, match="degree must be non-negative"):
        slice_basis((2, 1), -1)


def test_slice_basis_counts():
    # degree-n slice of 2 symmetric variables = partitions of n with <= 2 parts
    assert len(slice_basis((2,), 0)) == 1
    assert len(slice_basis((2,), 1)) == 1
    assert len(slice_basis((2,), 2)) == 2
    assert len(slice_basis((2,), 3)) == 2
    assert len(slice_basis((2,), 4)) == 3
    # two blocks of one variable each: compositions of n in two parts
    assert len(slice_basis((1, 1), 3)) == 4


def padded_partitions_oracle(total: int, length: int) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples of the given length with entries summing to total."""
    return [
        tuple(reversed(p))
        for p in combinations_with_replacement(range(total + 1), length)
        if sum(p) == total
    ]


@pytest.mark.parametrize("d", [(0,), (1,), (3,), (0, 2), (2, 0), (1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 1)])
def test_slice_basis_matches_brute_force(d):
    # every tuple of per-vertex padded partitions of size at most n, kept
    # when the sizes add up to n
    for n in range(7):
        per_vertex = [
            [lam for k in range(n + 1) for lam in padded_partitions_oracle(k, di)] for di in d
        ]
        oracle = sorted(sig for sig in product(*per_vertex) if sum(map(sum, sig)) == n)
        assert slice_basis(d, n) == oracle


def test_coordinates_roundtrip(two_loop):
    d = (2,)
    basis = slice_basis(d, 3)
    rows = []
    for sig in basis:
        rows.append(poly_coordinates(monomial_symmetric(two_loop, d, sig).poly, d, basis))
    assert rref(rows) == rref([tuple(Fraction(int(i == j)) for j in range(len(basis))) for i in range(len(basis))])
