import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    StructureError,
    compose,
    divisor_leq,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    pullback,
    twist,
)
from oracles import brute_minimal_twist, compose_matrix, pullback_orders, reference_compose, reference_pullback
from strategies import charts, composable_pair_maps, composable_triples, divisors, monomial_maps, pair_maps, pairs

A1_T = Chart(("t",))
A1_Y = Chart(("y",))
A2 = Chart(("x1", "x2"))
POINT = Chart(())

SQUARE = MonomialMap(A1_T, A1_Y, ((2,),))  # y <- t^2
PRODUCT = MonomialMap(A2, A1_Y, ((1, 1),))  # y <- x1 * x2


def curve_map(m, p, q):
    return PairMap(
        MonomialMap(A1_T, A1_Y, ((m,),)),
        Pair(A1_T, Divisor((p,))),
        Pair(A1_Y, Divisor((q,))),
    )


@given(st.data())
def test_a_map_keeps_the_nonzero_exponents_of_its_matrix_as_sparse_rows(data):
    source, target = data.draw(charts(0, 6)), data.draw(charts(0, 6))
    exponent = st.integers(0, 3) | st.integers(0, 10**20)
    expo = data.draw(st.lists(st.lists(exponent, min_size=source.dim, max_size=source.dim),
                              min_size=target.dim, max_size=target.dim))
    m = MonomialMap(source, target, expo)
    assert m.expo == tuple(map(tuple, expo))
    # canonical: per target, the (index, exponent) factors with a positive exponent, by increasing index
    assert m.rows == tuple(tuple((i, e) for i, e in enumerate(row) if e) for row in expo)
    assert all(type(m.rows) is tuple and type(row) is tuple for row in m.rows)
    for row in m.rows:
        assert all(e > 0 for _, e in row) and [i for i, _ in row] == sorted({i for i, _ in row})
    assert m == MonomialMap(source, target, m.expo) and hash(m) == hash(MonomialMap(source, target, m.expo))


class TestPullback:
    def test_power_map(self):
        expected = pullback_orders(SQUARE, Divisor((3,)))
        assert expected == (6,)
        assert pullback(SQUARE, Divisor((3,))).mults == expected

    def test_identity(self):
        ident = MonomialMap.identity(A2)
        d = Divisor((4, 7))
        assert pullback(ident, d) == d

    def test_product_map(self):
        expected = pullback_orders(PRODUCT, Divisor((1,)))
        assert expected == (1, 1)
        assert pullback(PRODUCT, Divisor((1,))).mults == expected

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            pullback(SQUARE, Divisor((1, 2)))


class TestPointChart:
    """Maps to, from and through the point chart, whose exponent matrices are empty."""

    def test_map_onto_the_point_pulls_back_to_zeros(self):
        to_point = MonomialMap(A2, POINT, ())
        assert pullback(to_point, Divisor(())) == Divisor((0, 0))

    def test_map_from_the_point_pulls_back_to_the_empty_divisor(self):
        from_point = MonomialMap(POINT, A2, ((), ()))
        assert pullback(from_point, Divisor((3, 5))) == Divisor(())

    def test_compose_through_the_point_is_the_zero_matrix(self):
        to_point = MonomialMap(A2, POINT, ())
        from_point = MonomialMap(POINT, Chart(("u", "v", "w")), ((), (), ()))
        assert compose(from_point, to_point).expo == ((0, 0), (0, 0), (0, 0))
        assert compose(from_point, to_point) == reference_compose(from_point, to_point)

    def test_compose_from_and_to_the_point(self):
        to_point = MonomialMap(A2, POINT, ())
        assert compose(to_point, MonomialMap.identity(A2)) == to_point
        from_point = MonomialMap(POINT, A2, ((), ()))
        assert compose(MonomialMap.identity(A2), from_point) == from_point
        assert compose(to_point, from_point) == MonomialMap.identity(POINT)

    def test_twist_kernels_on_a_map_onto_the_point(self):
        f = PairMap(MonomialMap(A2, POINT, ()), Pair(A2, Divisor((0, 4))), Pair(POINT, Divisor(())))
        assert minimal_twist(f) == 1
        assert hom_log_exists(f) and is_admissible(f)
        assert not is_minimal(f)


class TestDivisorLeq:
    def test_dominates(self):
        assert divisor_leq(Divisor((2, 0)), Divisor((1, 0)))

    def test_incomparable(self):
        assert not divisor_leq(Divisor((1, 2)), Divisor((2, 1)))
        assert not divisor_leq(Divisor((2, 1)), Divisor((1, 2)))

    def test_reflexive(self):
        assert divisor_leq(Divisor((6,)), Divisor((6,)))

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            divisor_leq(Divisor((1,)), Divisor((1, 2)))


class TestAdmissible:
    def test_square_enough(self):
        assert is_admissible(curve_map(2, 6, 3))

    def test_square_short(self):
        assert not is_admissible(curve_map(2, 5, 3))

    def test_identity_equal(self):
        assert is_admissible(curve_map(1, 3, 3))


class TestTwist:
    def test_unit(self):
        p = Pair(A2, Divisor((1, 2)))
        assert twist(p, 1) == p

    def test_monoidal(self):
        p = Pair(A2, Divisor((1, 2)))
        assert twist(twist(p, 2), 3) == twist(p, 6)

    def test_golden(self):
        assert twist(Pair(A1_T, Divisor((1,))), 3) == Pair(A1_T, Divisor((3,)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            twist(Pair(A1_T, Divisor((1,))), 0)


class TestMinimalTwist:
    def test_square(self):
        f = curve_map(2, 1, 3)
        assert brute_minimal_twist(f, 10) == 6
        assert minimal_twist(f) == 6

    def test_infeasible_support(self):
        f = curve_map(1, 0, 1)
        assert minimal_twist(f) is None
        assert brute_minimal_twist(f, 32) is None

    def test_identity_equal_divisors(self):
        assert minimal_twist(curve_map(1, 1, 1)) == 1


class TestHomLog:
    def test_square_exists(self):
        assert hom_log_exists(curve_map(2, 1, 3))

    def test_empty_source_divisor(self):
        assert not hom_log_exists(curve_map(1, 0, 1))

    def test_admissible_implies_exists(self):
        f = curve_map(2, 6, 3)
        assert is_admissible(f) and hom_log_exists(f)


class TestMinimal:
    def test_identity(self):
        assert is_minimal(curve_map(1, 1, 1))

    def test_square_exact(self):
        assert is_minimal(curve_map(2, 2, 1))

    def test_square_strict(self):
        assert not is_minimal(curve_map(2, 1, 1))


class TestCompose:
    def test_identity_neutral(self):
        assert compose(MonomialMap.identity(A1_Y), SQUARE) == SQUARE
        assert compose(SQUARE, MonomialMap.identity(A1_T)) == SQUARE

    def test_powers_multiply(self):
        cube_map = MonomialMap(A1_Y, Chart(("u",)), ((3,),))
        assert compose(cube_map, SQUARE).expo == ((6,),)

    def test_substitution_oracle(self):
        param = MonomialMap(A1_T, A2, ((2,), (3,)))  # x1 <- t^2, x2 <- t^3
        expected = compose_matrix(PRODUCT, param)
        assert expected == ((5,),)
        assert compose(PRODUCT, param).expo == expected

    def test_chart_mismatch(self):
        with pytest.raises(StructureError):
            compose(SQUARE, SQUARE)


class TestFormatDivisor:
    def test_zeros_omitted(self):
        assert format_divisor(A2, Divisor((1, 0))) == "{x1: 1}"

    def test_all_entries(self):
        assert format_divisor(A2, Divisor((2, 5))) == "{x1: 2, x2: 5}"

    def test_empty(self):
        assert format_divisor(A2, Divisor((0, 0))) == "{}"
        assert format_divisor(Chart(()), Divisor(())) == "{}"


class TestStructure:
    def test_divisor_length(self):
        with pytest.raises(StructureError):
            Pair(A2, Divisor((1,)))

    def test_negative_multiplicity(self):
        with pytest.raises(StructureError):
            Divisor((-1,))

    def test_duplicate_coord(self):
        with pytest.raises(StructureError):
            Chart(("t", "t"))

    def test_pair_map_chart_check(self):
        with pytest.raises(StructureError):
            PairMap(SQUARE, Pair(A1_Y, Divisor((1,))), Pair(A1_Y, Divisor((1,))))


# properties


@given(composable_triples())
def test_pullback_functorial(maps):
    f, g, h = maps
    gh = compose(g, f)
    assert compose(h, gh) == compose(compose(h, g), f)
    d = Divisor(tuple(1 for _ in range(g.target.dim)))
    assert pullback(gh, d) == pullback(f, pullback(g, d))


@settings(max_examples=60)
@given(pair_maps(max_dim=3, max_expo=4, max_mult=8))
def test_twist_threshold(f):
    n_star = minimal_twist(f)
    for n in range(1, 33):
        twisted = PairMap(f.map, twist(f.src, n), f.dst)
        assert is_admissible(twisted) == (n_star is not None and n >= n_star)


@given(pair_maps(max_dim=3))
def test_support_criterion(f):
    pulled = pullback(f.map, f.dst.divisor)
    finite = pulled.support <= f.src.divisor.support
    assert (minimal_twist(f) is not None) == finite
    assert hom_log_exists(f) == finite


@given(composable_pair_maps())
def test_submultiplicative(fg):
    f, g = fg
    nf, ng = minimal_twist(f), minimal_twist(g)
    if nf is None or ng is None:
        return
    composite = PairMap(compose(g.map, f.map), f.src, g.dst)
    n = minimal_twist(composite)
    assert n is not None and n <= nf * ng


@given(pair_maps(max_dim=3), st.integers(1, 8))
def test_twist_both_sides(f, n):
    if not is_admissible(f):
        return
    both = PairMap(f.map, twist(f.src, n), twist(f.dst, n))
    assert is_admissible(both)


@given(pair_maps(max_dim=3))
def test_minimal_implies_admissible(f):
    if is_minimal(f):
        assert is_admissible(f)
        assert minimal_twist(f) == 1


@given(pairs(), st.integers(1, 6), st.integers(1, 6))
def test_twist_strictly_monoidal(p, n, m):
    assert twist(twist(p, n), m) == twist(p, n * m)
    assert twist(p, 1) == p


@settings(max_examples=50)
@given(pair_maps(max_dim=3, max_expo=3, max_mult=6))
def test_pullback_matches_symbolic(f):
    assert pullback(f.map, f.dst.divisor).mults == pullback_orders(f.map, f.dst.divisor)


_BIG = 10**30


@st.composite
def _kernel_chain(draw, point):
    """``f : A -> B``, ``g : B -> C`` with divisors on ``A``, ``B`` and ``C``;
    the chart named by ``point`` is the point chart."""
    a, b, c = (POINT if name == point else draw(charts(0, 6)) for name in ("source", "middle", "target"))
    f = draw(monomial_maps(source=a, target=b, max_expo=20))
    g = draw(monomial_maps(source=b, target=c, max_expo=20))
    return f, g, draw(divisors(a, _BIG)), draw(divisors(b, _BIG)), draw(divisors(c, _BIG))


@pytest.mark.parametrize("point", [None, "source", "middle", "target"])
@settings(max_examples=75)
@given(data=st.data())
def test_column_kernels_match_reference(point, data):
    f, g, da, db, dc = data.draw(_kernel_chain(point))
    assert pullback(f, db) == reference_pullback(f, db)
    assert pullback(g, dc) == reference_pullback(g, dc)
    gf = compose(g, f)
    assert gf == reference_compose(g, f)
    assert pullback(gf, dc) == reference_pullback(gf, dc)
    # the twist kernels on the same large entries, against the definition of the least twist
    pf = PairMap(f, Pair(f.source, da), Pair(f.target, db))
    pulled = reference_pullback(f, db).mults
    n = minimal_twist(pf)
    assert hom_log_exists(pf) == all(x > 0 for x, e in zip(da.mults, pulled) if e > 0)
    assert is_admissible(pf) == all(x >= e for x, e in zip(da.mults, pulled))
    assert is_minimal(pf) == (da.mults == pulled)
    if n is None:
        assert any(e > 0 and x == 0 for x, e in zip(da.mults, pulled))
    else:
        assert all(n * x >= e for x, e in zip(da.mults, pulled))
        assert n == 1 or not all((n - 1) * x >= e for x, e in zip(da.mults, pulled))
