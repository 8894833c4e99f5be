import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpairs.correspondences import (
    ConstantCorr,
    CorrLocalRecord,
    NonConstantCorr,
    corr_minimal_twist,
    from_monomial_param,
    graph_corr,
    in_colim_mcor,
    in_lcor,
    in_mcor,
)
from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    StructureError,
    hom_log_exists,
    is_admissible,
)
from oracles import brute_corr_minimal_twist, scale_source_coeffs
from strategies import curve_corrs


def single(n_x, n_y, e_x, e_y):
    return NonConstantCorr((CorrLocalRecord("w", n_x, n_y, e_x, e_y),))


def curve_map(m, p, q):
    src, dst = Chart(("t",)), Chart(("y",))
    return PairMap(
        MonomialMap(src, dst, ((m,),)),
        Pair(src, Divisor((p,))),
        Pair(dst, Divisor((q,))),
    )


class TestMcor:
    def test_cusp_family_fails(self):
        assert not in_mcor(single(1, 1, 2, 3))

    def test_cube_graph_passes(self):
        c = single(3, 1, 1, 3)
        assert in_mcor(c)
        assert is_admissible(curve_map(3, 3, 1))

    def test_empty_records(self):
        assert in_mcor(NonConstantCorr(()))

    def test_constant(self):
        assert in_mcor(ConstantCorr(True))
        assert not in_mcor(ConstantCorr(False))


class TestColim:
    def test_cusp_family_passes(self):
        assert in_colim_mcor(single(1, 1, 2, 3))

    def test_zero_source_coefficient(self):
        assert not in_colim_mcor(single(0, 1, 1, 1))

    def test_mcor_implies_colim(self):
        c = single(3, 1, 1, 3)
        assert in_mcor(c) and in_colim_mcor(c)


class TestLcor:
    def test_cusp_family_fails(self):
        assert not in_lcor(single(1, 1, 2, 3))

    def test_identity_graph(self):
        assert in_lcor(single(1, 1, 1, 1))

    def test_divisible(self):
        assert in_lcor(single(1, 1, 2, 4))

    def test_zero_conventions(self):
        assert in_lcor(single(0, 0, 3, 5))       # 0 | 0
        assert not in_lcor(single(0, 1, 3, 5))   # 0 divides only 0
        assert in_lcor(single(2, 0, 3, 5))       # everything divides 0


class TestCorrMinimalTwist:
    def test_cusp(self):
        c = single(1, 1, 2, 3)
        assert brute_corr_minimal_twist(c, 8) == 2
        assert corr_minimal_twist(c) == 2

    def test_infeasible(self):
        assert corr_minimal_twist(single(0, 1, 1, 1)) is None

    def test_no_target_coefficients(self):
        c = NonConstantCorr(
            (
                CorrLocalRecord("a", 2, 0, 3, 4),
                CorrLocalRecord("b", 0, 0, 1, 1),
            )
        )
        assert corr_minimal_twist(c) == 1

    def test_constant(self):
        assert corr_minimal_twist(ConstantCorr(True)) == 1
        assert corr_minimal_twist(ConstantCorr(False)) is None


class TestConstructors:
    def test_monomial_param(self):
        c = from_monomial_param(2, 3, 1, 1)
        assert c.records == (CorrLocalRecord("0", 1, 1, 2, 3),)

    def test_monomial_identity(self):
        assert from_monomial_param(1, 1, 1, 1).records == (CorrLocalRecord("0", 1, 1, 1, 1),)

    def test_monomial_non_coprime(self):
        assert from_monomial_param(2, 4, 1, 1).records == (CorrLocalRecord("0", 1, 1, 2, 4),)

    def test_monomial_rejects_zero(self):
        # a plain ValueError, not the StructureError of a wrong class, is what the readers report as E052
        for a, b in [(0, 3), (2, 0), (-1, 2)]:
            with pytest.raises(ValueError) as info:
                from_monomial_param(a, b, 1, 1)
            assert type(info.value) is ValueError and str(info.value) == "parametrization exponents must be positive"

    def test_graph_cube(self):
        c = graph_corr(curve_map(3, 3, 1))
        assert c.records == (CorrLocalRecord("0", 3, 1, 1, 3),)
        assert in_mcor(c)

    def test_graph_identity(self):
        c = graph_corr(curve_map(1, 1, 1))
        assert in_mcor(c) and in_colim_mcor(c) and in_lcor(c)

    def test_graph_square_fails_mcor(self):
        c = graph_corr(curve_map(2, 1, 1))
        assert not in_mcor(c)
        assert not is_admissible(curve_map(2, 1, 1))

    def test_graph_constant(self):
        assert graph_corr(curve_map(0, 1, 0)) == ConstantCorr(True)
        assert graph_corr(curve_map(0, 1, 2)) == ConstantCorr(False)

    def test_graph_needs_curves(self):
        flat = Chart(("a", "b"))
        f = PairMap(
            MonomialMap(flat, Chart(("y",)), ((1, 1),)),
            Pair(flat, Divisor((1, 0))),
            Pair(Chart(("y",)), Divisor((1,))),
        )
        with pytest.raises(StructureError):
            graph_corr(f)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructureError):
            NonConstantCorr(
                (CorrLocalRecord("w", 1, 1, 1, 1), CorrLocalRecord("w", 2, 2, 2, 2))
            )


# properties


@given(curve_corrs())
def test_implication_chain(c):
    if in_lcor(c):
        assert in_colim_mcor(c)
    if in_mcor(c):
        assert in_colim_mcor(c)


@settings(max_examples=150)
@given(curve_corrs(allow_constant=False))
def test_twist_threshold(c):
    n_star = corr_minimal_twist(c)
    assert in_colim_mcor(c) == (n_star is not None)
    for n in range(1, 9):
        assert in_mcor(scale_source_coeffs(c, n)) == (n_star is not None and n >= n_star)


@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 12))
def test_graph_compatibility(m, p, q):
    f = curve_map(m, p, q)
    c = graph_corr(f)
    assert in_mcor(c) == is_admissible(f)
    assert in_colim_mcor(c) == hom_log_exists(f)


@given(st.integers(2, 20), st.integers(1, 20))
def test_counterexample_family(a, b):
    from math import gcd

    if gcd(a, b) != 1:
        return
    c = from_monomial_param(a, b, 1, 1)
    assert in_colim_mcor(c)
    assert not in_lcor(c)
