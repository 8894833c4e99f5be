import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpairs.pairs import (
    Chart,
    Divisor,
    Pair,
    StructureError,
    is_admissible,
    pullback,
    twist,
)
from modpairs.qdivisors import (
    QPair,
    cube,
    cube_projection,
    cube_weight,
    q_eq,
    q_normalize,
    q_rationals,
    q_transition,
)
from strategies import pair_maps, pairs, qpairs

A2 = Chart(("a", "b"))
POINT = Pair(Chart(()), Divisor(()))


def qp(level, mults, chart=A2):
    return QPair(level, Pair(chart, Divisor(mults)))


class TestNormalize:
    def test_common_factor(self):
        assert q_normalize(qp(6, (4, 2))) == qp(3, (2, 1))
        assert q_rationals(qp(6, (4, 2))) == q_rationals(qp(3, (2, 1)))

    def test_already_reduced(self):
        q = qp(1, (4, 2))
        assert q_normalize(q) == q

    def test_inverts_transition(self):
        assert q_normalize(qp(2, (2,), Chart(("a",)))) == qp(1, (1,), Chart(("a",)))

    def test_point_chart(self):
        assert q_normalize(QPair(7, POINT)) == QPair(1, POINT)

    def test_level_positive(self):
        with pytest.raises(StructureError):
            QPair(0, POINT)


class TestEq:
    def test_transition_equal(self):
        assert q_eq(qp(2, (2,), Chart(("a",))), qp(1, (1,), Chart(("a",))))

    def test_different_values(self):
        assert not q_eq(qp(2, (1,), Chart(("a",))), qp(3, (1,), Chart(("a",))))

    def test_cross_multiplied(self):
        assert q_eq(qp(6, (4, 2)), qp(3, (2, 1)))

    def test_chart_mismatch(self):
        with pytest.raises(StructureError):
            q_eq(qp(1, (1, 1)), QPair(1, Pair(Chart(("a", "c")), Divisor((1, 1)))))


class TestTransition:
    def test_from_level_one(self):
        q = qp(1, (1, 2))
        assert q_transition(q, 4) == qp(4, (4, 8))

    def test_identifies(self):
        q = qp(2, (1, 0))
        assert q_eq(q_transition(q, 3), q)

    def test_golden(self):
        assert q_transition(qp(2, (1, 0)), 3) == qp(6, (3, 0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            q_transition(qp(1, (1, 1)), 0)


class TestCube:
    def test_point_interval(self):
        assert cube(POINT, 1) == Pair(Chart(("inf",)), Divisor((1,)))

    def test_extends_divisor(self):
        p = Pair(A2, Divisor((1, 2)))
        assert cube(p, 5).divisor.mults == (1, 2, 5)
        assert cube(p, 5).chart.coords == ("a", "b", "inf")

    def test_twist_exchange(self):
        p = Pair(A2, Divisor((1, 2)))
        assert twist(cube(p, 2), 3) == cube(twist(p, 3), 6)

    def test_name_collision(self):
        with pytest.raises(StructureError):
            cube(Pair(Chart(("inf",)), Divisor((1,))), 1)

    def test_custom_name(self):
        assert cube(POINT, 2, coord="w").chart.coords == ("w",)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            cube(POINT, 0)

    def test_projection_admissible(self):
        p = Pair(A2, Divisor((1, 2)))
        proj = cube_projection(p, 3)
        assert is_admissible(proj)
        pulled = pullback(proj.map, p.divisor)
        # shared components pull back exactly; the added one to nothing
        assert pulled.mults == (1, 2, 0)

    def test_weight_recognizer(self):
        p = Pair(A2, Divisor((1, 2)))
        assert cube_weight(cube_projection(p, 3)) == 3
        assert cube_weight(cube_projection(p, 1, coord="zz")) == 1

    def test_weight_recognizer_rejects(self):
        from modpairs.pairs import MonomialMap, PairMap

        p = Pair(A2, Divisor((1, 2)))
        proj = cube_projection(p, 3)
        not_proj = PairMap(
            MonomialMap(proj.src.chart, p.chart, ((1, 0, 1), (0, 1, 0))),
            proj.src,
            p,
        )
        assert cube_weight(not_proj) is None
        # one coordinate squared, one row empty, one coordinate taken twice
        for expo in (((2, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 0))):
            assert cube_weight(PairMap(MonomialMap(proj.src.chart, p.chart, expo), proj.src, p)) is None


# properties


@given(qpairs())
def test_normalize_idempotent(q):
    once = q_normalize(q)
    assert q_normalize(once) == once
    assert q_rationals(once) == q_rationals(q)


@given(qpairs(), qpairs())
def test_eq_iff_normal_forms(a, b):
    if a.pair.chart != b.pair.chart:
        return
    same = q_eq(a, b)
    assert same == (q_normalize(a) == q_normalize(b))
    assert same == (q_rationals(a) == q_rationals(b))
    cross = all(
        b.level * x == a.level * y
        for x, y in zip(a.pair.divisor.mults, b.pair.divisor.mults)
    )
    assert same == cross


@given(qpairs(), st.integers(1, 6), st.integers(1, 6))
def test_transition_composes(q, m1, m2):
    assert q_transition(q_transition(q, m1), m2) == q_transition(q, m1 * m2)
    assert q_rationals(q_transition(q, m1)) == q_rationals(q)


@given(pairs(max_dim=4), st.integers(1, 6), st.integers(1, 6))
def test_cube_twist_exchange(p, n, m):
    assert twist(cube(p, n), m) == cube(twist(p, m), n * m)


@given(pairs(max_dim=4), st.integers(1, 6))
def test_projection_properties(p, n):
    proj = cube_projection(p, n)
    assert is_admissible(proj)
    assert cube_weight(proj) == n


@settings(max_examples=80)
@given(pair_maps(max_dim=3))
def test_weight_recognizer_matches_threshold(f):
    n = cube_weight(f)
    if n is not None:
        assert is_admissible(f)
        assert f.src.chart.dim == f.dst.chart.dim + 1
