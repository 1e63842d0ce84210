from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohalab import coha, linalg
from cohalab.linalg import Span, dense, rref, vec
from cohalab.polys import ExactDivisionError, Poly, det_bareiss
from conftest import framed_loops, vertex_only
from helpers import (
    canonical_rows,
    det_laplace,
    minors,
    monomial_rows,
    rank_fraction,
    rref_fraction,
    substitute,
    var_degree,
)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4,
).map(lambda d: Poly(2, {k: v for k, v in d.items() if v}))


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert (a + b).terms == (b + a).terms
    assert (a * b).terms == (b * a).terms
    assert ((a + b) * c).terms == (a * c + b * c).terms
    assert (a - a).is_zero()


@settings(max_examples=50)
@given(small_polys, small_polys)
def test_exact_div_inverts_mul(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b).terms == a.terms


def test_exact_div_failure():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    with pytest.raises(ExactDivisionError):
        (x * x + y).exact_div(x + y)


def test_pow():
    x = Poly.variable(1, 0)
    p = (x + Poly.const(1, 1)) ** 3
    assert p.terms == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}


def test_substitute():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = x * x + y
    q = substitute(p, {0: y + Poly.const(2, 1)})
    assert q == (y + Poly.const(2, 1)) ** 2 + y


def test_var_degree():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert var_degree(x * x * y + y, 0) == 2
    assert var_degree(Poly.zero(2), 0) == -1


def test_det_bareiss_numeric():
    c = lambda v: Poly.const(0, v)
    m = [[c(2), c(1), c(0)], [c(1), c(3), c(1)], [c(0), c(1), c(2)]]
    assert det_bareiss(m).const_value() == Fraction(8)


def test_det_bareiss_symbolic_vandermonde():
    # det [[1,1,1],[a,b,c],[a^2,b^2,c^2]] = (b-a)(c-a)(c-b)
    a, b, c = (Poly.variable(3, i) for i in range(3))
    one = Poly.const(3, 1)
    m = [[one, one, one], [a, b, c], [a * a, b * b, c * c]]
    expect = (b - a) * (c - a) * (c - b)
    assert det_bareiss(m) == expect


def test_det_bareiss_zero_pivot():
    c = lambda v: Poly.const(0, v)
    m = [[c(0), c(1)], [c(1), c(0)]]
    assert det_bareiss(m).const_value() == -1


def random_int_poly(rng: Random) -> Poly:
    """A polynomial in two variables: up to three terms, int coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-3, 3)
    return Poly(2, {e: c for e, c in terms.items() if c})


def test_det_bareiss_matches_laplace_oracle():
    # seeded matrices of size 1-4 in four kinds: random; a zero leading
    # pivot (a swap at the first step); the leading 2x2 block singular (a
    # zero pivot at the second step, or a singular matrix at size 2); the
    # last row a polynomial combination of the others (singular)
    rng = Random(41)
    seen = set()
    for n in range(1, 5):
        for case in range(40):
            m = [[random_int_poly(rng) for _ in range(n)] for _ in range(n)]
            kind = case % 4 if n > 1 else 0
            if kind == 1:
                m[0][0] = Poly.zero(2)
            elif kind == 2:
                f = random_int_poly(rng)
                m[1][:2] = [f * m[0][0], f * m[0][1]]
            elif kind == 3:
                fs = [random_int_poly(rng) for _ in range(n - 1)]
                m[-1] = [
                    sum((f * row[j] for f, row in zip(fs, m)), Poly.zero(2))
                    for j in range(n)
                ]
            det = det_bareiss(m)
            assert det == det_laplace(m)
            assert all(type(c) is int for c in det.terms.values())
            seen.add((n, kind, det.is_zero()))
    for n in (2, 3, 4):
        assert {(n, 0, False), (n, 1, False), (n, 2, n == 2), (n, 3, True)} <= seen
    assert (1, 0, True) in seen and (1, 0, False) in seen


def test_det_bareiss_divides_from_second_step(monkeypatch):
    # 4x4 of distinct variables: the first step divides by the unit and is
    # skipped; steps 2 and 3 divide their 4 and 1 entries by the previous
    # pivot, which is no constant
    x = [[Poly.variable(16, 4 * i + j) for j in range(4)] for i in range(4)]
    divisors = []
    exact_div = Poly.exact_div

    def counting(self, divisor):
        divisors.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Poly, "exact_div", counting)
    det = det_bareiss(x)
    assert len(divisors) == 5
    assert not any(d.is_const() for d in divisors)
    assert det == det_laplace(x) and len(det.terms) == 24


# -- the Laplace step: columns with at most one non-zero entry ---------------------


def dense_int_matrix(rng: Random, n: int) -> list[list[Poly]]:
    """n x n of random two-variable polys, every entry non-zero."""
    m = [[random_int_poly(rng) for _ in range(n)] for _ in range(n)]
    return [[p if not p.is_zero() else Poly.const(2, 1) for p in row] for row in m]


def count_exact_div(monkeypatch) -> list:
    """Record the divisor of every Poly.exact_div call from here on."""
    divisors = []
    exact_div = Poly.exact_div

    def counting(self, divisor):
        divisors.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Poly, "exact_div", counting)
    return divisors


def test_det_bareiss_zero_column():
    rng = Random(7)
    for n in range(2, 6):
        for j in range(n):
            m = dense_int_matrix(rng, n)
            for row in m:
                row[j] = Poly.zero(2)
            assert det_bareiss(m).is_zero() and det_laplace(m).is_zero()


def test_det_bareiss_singleton_column_sign():
    # one entry in column j, at row i: the cofactor sign (-1)^(i+j) must
    # come out right at every position, for constant and non-constant entries
    rng = Random(11)
    x = Poly.variable(2, 0)
    for n in (2, 3, 4):
        for i in range(n):
            for j in range(n):
                for entry in (Poly.const(2, -3), x * x + Poly.const(2, 2)):
                    m = dense_int_matrix(rng, n)
                    for r, row in enumerate(m):
                        row[j] = entry if r == i else Poly.zero(2)
                    det = det_bareiss(m)
                    assert det == det_laplace(m) and not det.is_zero()


def test_det_bareiss_singleton_column_after_first_expansion(monkeypatch):
    # column 0 holds one entry (row 2); column 1 holds two (rows 0 and 2),
    # so it is a singleton only once row 2 has gone.  Two expansions leave
    # a 2x2, which needs no division; stopping after one would leave a
    # 3x3, whose second Bareiss step divides once
    rng = Random(13)
    for _ in range(10):
        m = dense_int_matrix(rng, 4)
        for r, row in enumerate(m):
            if r != 2:
                row[0] = Poly.zero(2)
            if r not in (0, 2):
                row[1] = Poly.zero(2)
        divisors = count_exact_div(monkeypatch)
        assert det_bareiss(m) == det_laplace(m)
        assert divisors == []
        monkeypatch.undo()


def test_det_bareiss_signed_permutation():
    # one entry per row and column: the Laplace step alone, down to 0x0
    n = 5
    perm = [3, 0, 4, 1, 2]  # row i holds its entry in column perm[i]
    xs = [Poly.variable(n, k) for k in range(n)]
    m = [[Poly.zero(n)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = xs[i] if i % 2 else -xs[i]
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    product = Poly.const(n, (-1) ** inversions)
    for i in range(n):
        product = product * m[i][perm[i]]
    assert det_bareiss(m) == det_laplace(m) == product


def test_det_bareiss_unit_column_divides_once(monkeypatch):
    # a unit column leaves a dense 3x3 of distinct variables: Bareiss on it
    # divides only at its second step, one entry by the first pivot
    x = [[Poly.variable(9, 3 * i + j) for j in range(3)] for i in range(3)]
    one, zero = Poly.const(9, 1), Poly.zero(9)
    m = [[zero] + x[0], [zero] + x[1], [one] + x[0], [zero] + x[2]]
    divisors = count_exact_div(monkeypatch)
    det = det_bareiss(m)
    assert len(divisors) == 1
    assert det == det_laplace(m) and len(det.terms) == 6


# -- heap-ordered exact division ----------------------------------------------------


def test_exact_div_skips_cancelled_and_recreated_exponents():
    # (x^5 + 2x^4 + x^3 - x) / (x^2 + x + 1): the first quotient term
    # cancels x^3, the second brings it back (a second heap entry for it),
    # and the third cancels x^2 and x; the stale entries surface last
    x, one = Poly.variable(1, 0), Poly.const(1, 1)
    g = x * x + x + one
    f = x**3 + x * x - x
    assert (f * g).terms == {(5,): 1, (4,): 2, (3,): 1, (1,): -1}
    assert (f * g).exact_div(g) == f


def random_sparse_poly(rng: Random, nvars: int, nterms: int) -> Poly:
    """nterms distinct monomials of degree at most 3 per variable, int
    coefficients in [-5, 5] without 0."""
    terms = {}
    while len(terms) < nterms:
        exp = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(nvars))
        terms[exp] = rng.choice([c for c in range(-5, 6) if c])
    return Poly(nvars, terms)


def test_exact_div_inverts_mul_on_large_sparse_polys():
    rng = Random(29)
    for _ in range(4):
        f = random_sparse_poly(rng, 20, rng.randint(30, 80))
        g = random_sparse_poly(rng, 20, rng.randint(30, 80))
        product = f * g
        assert product.exact_div(g) == f
        assert product.exact_div(f) == g
        with pytest.raises(ExactDivisionError):
            (product + Poly.variable(20, 0) ** 7).exact_div(g)


def test_sub_is_add_of_negation():
    rng = Random(23)
    for _ in range(40):
        f = random_sparse_poly(rng, 4, rng.randint(0, 12))
        g = random_sparse_poly(rng, 4, rng.randint(0, 12))
        h = f + g.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for a, b in ((f, g), (h, f), (f, h), (g, g), (h, h)):
            assert (a - b).terms == (a + (-b)).terms
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x * y + x - (x + x * y)).terms == {}  # fully cancelling: no zero terms kept
    assert (x - y.scale(0)).terms == x.terms


@pytest.mark.parametrize(
    "build",
    [lambda: vec([0.1]), lambda: Poly.const(1, 0.5), lambda: Span(2).add((0.1, 1))],
    ids=["vec", "Poly.const", "Span.add"],
)
def test_a_float_is_refused(build):
    # 0.1 would become 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="inexact"):
        build()


def test_sub_refuses_a_variable_count_mismatch():
    with pytest.raises(ValueError, match="variable count mismatch"):
        Poly.variable(2, 0) - Poly.variable(3, 0)


def test_minors_order():
    c = lambda v: Poly.const(0, v)
    rows = [[c(1), c(2)], [c(3), c(4)], [c(5), c(6)]]
    out = [p.const_value() for p in minors(rows, 2)]
    assert out == [-2, -4, -2]  # row sets (0,1), (0,2), (1,2)


def test_rref_canonical():
    rows1 = [vec([1, 2, 3]), vec([0, 1, 1])]
    rows2 = [vec([2, 4, 6]), vec([1, 3, 4])]
    assert rref(rows1) == rref(rows2)


def test_rank():
    assert len(rref([vec([1, 0]), vec([0, 1]), vec([1, 1])])) == 2
    assert len(rref([vec([0, 0])])) == 0
    assert len(rref([])) == 0


def test_span_incremental():
    s = Span(3)
    assert s.add(vec([1, 1, 0]))
    assert not s.add(vec([2, 2, 0]))
    assert s.contains(vec([-3, -3, 0]))
    assert s.add(vec([0, 0, 5]))
    assert s.rank == 2
    assert not s.contains(vec([0, 1, 0]))


def test_full_span_answers_without_reducing():
    # a span of rank dim is all of Q^dim: contains and add need no elimination
    full = Span(3)
    for row in ([2, 1, 0], [0, 3, -1], [1, 0, 1]):
        assert full.add(vec(row))
    rows = list(full.rows)
    full.reduce = lambda v: pytest.fail("a full span reduced a vector")
    assert full.contains(vec([7, -4, 9]))
    assert full.contains(vec([Fraction(1, 3), Fraction(-5, 2), 0]))
    assert not full.add(vec([1, 2, 3]))
    assert not full.add(vec([Fraction(2, 7), 1, Fraction(1, 5)]))
    assert full.rows == rows
    # one row short, a vector outside the span is still rejected
    short = Span(3)
    assert short.add(vec([2, 1, 0])) and short.add(vec([0, 3, -1]))
    assert not short.contains(vec([1, 0, 1]))
    assert short.contains(vec([2, 4, -1]))
    assert short.add(vec([Fraction(1, 2), 0, Fraction(1, 2)]))
    assert short.rank == 3


entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
rows_of_entries = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4)
)
int_coeffs = st.dictionaries(st.integers(0, 3), st.integers(-5, 5).filter(bool), max_size=3)


def assert_exact(values):
    assert not any(isinstance(x, float) for x in values)


@settings(max_examples=50)
@given(rows_of_entries)
def test_int_and_fraction_rows_stay_exact(rows):
    # int, Fraction and mixed rows: elimination must never fall back to float
    reduced = rref(rows)
    assert_exact(x for row in reduced for x in row)
    span = Span(len(rows[0]) if rows else 0)
    for row in rows:
        span.add(row)
        assert_exact(x for _, vals in span.rows for x in vals)
    assert span.rank == len(reduced)


@settings(max_examples=50)
@given(int_coeffs, int_coeffs.filter(bool))
def test_exact_div_int_coefficients_stay_exact(a, b):
    f = Poly(1, {(e,): c for e, c in a.items()})
    g = Poly(1, {(e,): c for e, c in b.items()})
    product = Poly(1, {e: int(c) for e, c in (f * g).terms.items()})
    quotient = product.exact_div(g)
    assert_exact(quotient.terms.values())
    assert quotient == f


def test_exact_div_promotes_only_non_integral_quotients():
    x, one = Poly.variable(1, 0), Poly.const(1, 1)
    q = ((x + one) * (x.scale(3) - one.scale(2))).exact_div(x + one)
    assert q == x.scale(3) - one.scale(2)
    assert all(type(c) is int for c in q.terms.values())
    # a Fraction input whose quotient is integral comes back as int
    q = Poly(1, {(1,): Fraction(6), (0,): Fraction(3)}).exact_div(Poly.const(1, 3))
    assert q.terms == {(1,): 2, (0,): 1}
    assert all(type(c) is int for c in q.terms.values())
    # (2x^2 + x) / 2x = x + 1/2: only the non-integral coefficient is a Fraction
    q = ((x * x).scale(2) + x).exact_div(x.scale(2))
    assert q.terms == {(1,): 1, (0,): Fraction(1, 2)}
    assert type(q.terms[(1,)]) is int and type(q.terms[(0,)]) is Fraction
    q = (x + one).exact_div(Poly.const(1, -2))
    assert q.terms == {(1,): Fraction(-1, 2), (0,): Fraction(-1, 2)}


# -- fraction-free elimination against the Fraction Gauss-Jordan oracle -------------

small_ints = st.integers(-9, 9)
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
ENTRIES = {
    "int": small_ints,
    "fraction": small_fractions,
    "mixed": st.one_of(small_ints, small_fractions),
}


@st.composite
def matrices(draw):
    """int, Fraction or mixed rows with entries up to 9 in size, followed by
    combinations of them, so that non-unit pivots and dependent rows occur."""
    ncols = draw(st.integers(1, 5))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    if rows:
        weights = st.lists(small_ints, min_size=len(rows), max_size=len(rows))
        for ws in draw(st.lists(weights, max_size=2)):
            rows.append([sum(w * r[j] for w, r in zip(ws, rows)) for j in range(ncols)])
    rows = draw(st.permutations(rows))
    return ncols, rows


def primitive(row) -> tuple[int, ...]:
    """A rational row scaled to a primitive integer row, keeping its sign."""
    scale = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def assert_canonical_rows(rows):
    """Primitive int rows whose first non-zero entry (the pivot) is positive."""
    for row in rows:
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        assert next(x for x in row if x) > 0


@settings(max_examples=100)
@given(matrices())
def test_rref_and_rank_match_fraction_oracle(shape):
    _, rows = shape
    oracle = rref_fraction(rows)
    got = rref(rows)
    assert got == [primitive(r) for r in oracle]
    assert_canonical_rows(got)


def assert_echelon_span(span):
    """Sparse rows: increasing columns, non-zero primitive int values with a
    positive pivot first, each row zero at the pivots of the rows before it."""
    pivots = set()
    for cols, vals in span.rows:
        assert len(cols) == len(vals) and all(map(bool, vals))
        assert list(cols) == sorted(set(cols)) and 0 <= cols[0] and cols[-1] < span.dim
        assert all(type(j) is int for j in cols) and all(type(x) is int for x in vals)
        assert gcd(*vals) == 1 and vals[0] > 0
        assert pivots.isdisjoint(cols)
        pivots.add(cols[0])
    assert_canonical_rows(dense(row, span.dim) for row in span.rows)


def kernel_generator_spans(monkeypatch):
    """(generator rows, echelon span, kernel) of real kernel slices, captured
    where kernel_graded_piece adds its generators to its echelon span:
    two-loop d=5 n=5..11 and Gr(4,7).  The rows are in the kernel's mixed
    coordinates (Schur at Gr(4,7)'s loopless vertex)."""
    captured = []

    class Recording(Span):
        def __init__(self, dim):
            super().__init__(dim)
            self.added = []
            captured.append(self)

        def add(self, v):
            self.added.append(v)
            return super().add(v)

    monkeypatch.setattr(coha, "Span", Recording)
    kernels = [coha.kernel_graded_piece(framed_loops(2, 1), (5,), n) for n in range(5, 12)]
    kernels += [coha.kernel_graded_piece(vertex_only(7), (4,), n) for n in range(14)]
    monkeypatch.undo()
    assert len(captured) == len(kernels) == 21
    return [(span.added, span, k) for span, k in zip(captured, kernels)]


def test_rref_matches_fraction_oracle_on_kernel_generators(monkeypatch):
    non_unit = 0
    for rows, _, _ in kernel_generator_spans(monkeypatch):
        got = rref(rows)
        assert got == [primitive(r) for r in rref_fraction(rows)]
        assert_canonical_rows(got)
        non_unit += any(next(x for x in row if x) > 1 for row in got)
    assert non_unit  # pivots other than 1 do occur


def test_kernel_echelon_spans_are_primitive(monkeypatch):
    # what linalg.nonexact_entries read off the kernel rows when rref ran
    # inside kernel_graded_piece: every stored row is exact and canonical
    for rows, span, kernel in kernel_generator_spans(monkeypatch):
        assert span is kernel.echelon and span.dim == len(kernel.basis)
        assert_echelon_span(span)
        assert kernel.dim == span.rank == rank_fraction(rows)


def test_kernel_rows_are_rref_of_generators(monkeypatch):
    loopless = 0
    for rows, _, kernel in kernel_generator_spans(monkeypatch):
        assert list(canonical_rows(kernel)) == rref(monomial_rows(kernel, rows))
        loopless += any(kernel.loopless)
    assert loopless == 14  # the Gr(4,7) slices convert through Kostka numbers


@settings(max_examples=100)
@given(matrices(), st.data())
def test_rref_equal_for_equal_spans(shape, data):
    _, rows = shape
    # rescale, permute and shear the rows: the span stays the same
    nonzero = st.one_of(small_ints, small_fractions).filter(bool)
    scalars = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    other = [[c * x for x in r] for c, r in zip(scalars, rows)]
    other = data.draw(st.permutations(other))
    if len(other) > 1:
        w = data.draw(small_ints)
        other[0] = [a + w * b for a, b in zip(other[0], other[1])]
    assert rref(other) == rref(rows)


@pytest.mark.parametrize("limit", [1, linalg._SCALED_LIMIT, 1 << 4096])
def test_content_division_limit_keeps_the_result(monkeypatch, limit):
    # 30-bit entries make each multiplier up to 30 bits, so at the default
    # limit the content is divided out every few steps; dividing at every
    # step or never must give the same spans
    monkeypatch.setattr(linalg, "_SCALED_LIMIT", limit)
    rng = Random(31)
    rows = [[rng.randint(-(1 << 30), 1 << 30) for _ in range(9)] for _ in range(7)]
    rows += [[3 * a - 5 * b for a, b in zip(rows[0], rows[4])]]
    assert rref(rows) == [primitive(r) for r in rref_fraction(rows)]
    span = Span(9)
    assert [span.add(row) for row in rows] == [True] * 7 + [False]
    assert_echelon_span(span)
    probe = [rng.randint(-9, 9) for _ in range(9)]
    assert span.contains(probe) == (rank_fraction(rows + [probe]) == 7)


@settings(max_examples=100)
@given(matrices(), st.data())
def test_span_matches_fraction_oracle(shape, data):
    ncols, rows = shape
    span = Span(ncols)
    for k, row in enumerate(rows):
        enlarged = rank_fraction(rows[: k + 1]) > rank_fraction(rows[:k])
        assert span.add(row) == enlarged
        assert span.contains(row)
    assert span.rank == rank_fraction(rows)
    assert_echelon_span(span)
    probes = data.draw(st.lists(st.lists(ENTRIES["mixed"], min_size=ncols, max_size=ncols), max_size=3))
    for probe in probes:
        inside = rank_fraction(rows + [probe]) == rank_fraction(rows)
        assert span.contains(probe) == inside
        assert any(span.reduce(probe)) != inside
