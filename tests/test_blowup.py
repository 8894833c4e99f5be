import pytest
from hypothesis import given, settings

from modpairs.blowup import (
    BlowupChart,
    BlowupClass,
    BlowupSpec,
    InvalidBlowupError,
    blowup_charts,
    classify,
)
from modpairs.pairs import Chart, Divisor, MonomialMap, Pair, StructureError, pullback
from oracles import blowup_transform_orders, reference_blowup_charts
from strategies import blowup_specs


def spec(mults, center):
    chart = Chart(tuple(f"x{i}" for i in range(len(mults))))
    return BlowupSpec(Pair(chart, Divisor(tuple(mults))), frozenset(center))


class TestClassify:
    def test_center_inside_support(self):
        assert classify(spec((1, 1), {0, 1})) is BlowupClass.MODIFICATION

    def test_center_meets_support(self):
        assert classify(spec((1, 0), {0, 1})) is BlowupClass.SMOOTH_BLOWUP

    def test_center_misses_support(self):
        assert classify(spec((1, 0), {1})) is BlowupClass.INVALID

    def test_out_of_range(self):
        with pytest.raises(StructureError):
            spec((1, 0), {2})

    def test_empty_center(self):
        with pytest.raises(StructureError):
            spec((1, 0), set())


class TestCharts:
    def test_partial_support(self):
        charts = blowup_charts(spec((1, 0), {0, 1}))
        assert [c.total_transform.mults for c in charts] == [(1, 0), (1, 1)]
        expected0 = blowup_transform_orders(spec((1, 0), {0, 1}).pair, {0, 1}, 0)
        expected1 = blowup_transform_orders(spec((1, 0), {0, 1}).pair, {0, 1}, 1)
        assert (expected0, expected1) == ((1, 0), (1, 1))

    def test_full_support(self):
        charts = blowup_charts(spec((1, 1), {0, 1}))
        assert [c.total_transform.mults for c in charts] == [(2, 1), (1, 2)]

    def test_untouched_coordinate(self):
        charts = blowup_charts(spec((1, 0, 0), {0, 1}))
        assert [c.total_transform.mults for c in charts] == [(1, 0, 0), (1, 1, 0)]
        for c in charts:
            # third coordinate pulls back to itself
            assert c.chart_map.expo[2] == (0, 0, 1)

    def test_singleton_center_is_identity(self):
        (chart,) = blowup_charts(spec((2, 1), {0}))
        assert chart.chart_map == MonomialMap.identity(Chart(("x0", "x1")))
        assert chart.total_transform == Divisor((2, 1))

    def test_invalid_rejected(self):
        with pytest.raises(InvalidBlowupError) as exc:
            blowup_charts(spec((1, 0), {1}))
        assert exc.value.verdict is BlowupClass.INVALID


@settings(max_examples=150)
@given(blowup_specs())
def test_charts_consistent(s):
    verdict = classify(s)
    if verdict is BlowupClass.INVALID:
        with pytest.raises(InvalidBlowupError):
            blowup_charts(s)
        return
    charts = blowup_charts(s)
    assert len(charts) == len(s.center)
    assert [c.index for c in charts] == sorted(s.center)
    exceptional = sum(s.pair.divisor.mults[b] for b in s.center)
    for c in charts:
        assert isinstance(c, BlowupChart)
        # recomputed, not trusted
        assert c.total_transform == pullback(c.chart_map, s.pair.divisor)
        assert c.total_transform.mults == blowup_transform_orders(s.pair, s.center, c.index)
        assert c.total_transform.mults[c.index] == exceptional


@given(blowup_specs())
def test_modification_nests_in_blowup_condition(s):
    if classify(s) is BlowupClass.MODIFICATION:
        assert s.center & s.pair.divisor.support


@settings(max_examples=150)
@given(blowup_specs(max_dim=6, max_mult=10**30))
def test_closed_form_matches_reference(s):
    if classify(s) is not BlowupClass.INVALID:
        assert blowup_charts(s) == reference_blowup_charts(s)
