"""Blowups of a pair at a coordinate-subspace center, one affine chart at a time.

The center is cut out by a set of coordinates.  Centers meeting the divisor
support give honest blowups; centers contained in the support satisfy the
stronger condition and are reported as modifications; centers missing the
support are invalid.  Charts are emitted individually with monomial maps
back to the original chart (no gluing data): every criterion downstream is
chart-local, so nothing more is needed.
"""

from __future__ import annotations

from enum import Enum

from .pairs import Divisor, MonomialMap, Pair, StructureError, Value, _divisor, _monomial_map, _setters


class BlowupClass(Enum):
    """How a center sits relative to the divisor support."""

    SMOOTH_BLOWUP = "smooth-blowup"  # meets the support but is not inside it
    MODIFICATION = "modification"    # contained in the support (the stronger condition)
    INVALID = "invalid"              # misses the support entirely


class InvalidBlowupError(ValueError):
    """Center disjoint from the divisor support; no charts can be produced."""

    verdict = BlowupClass.INVALID


class BlowupSpec(Value):
    """A pair plus the coordinate indices (0-based) cutting out the center.

    Validity of the center against the divisor support is decided by
    ``classify``, not at construction.
    """

    __slots__ = ("pair", "center")

    def __init__(self, pair: Pair, center: frozenset[int]):
        center = frozenset(center)
        if not center:
            raise StructureError("blowup center must name at least one coordinate")
        for i in center:
            if type(i) is not int:
                raise StructureError(f"center indices must be integers, got {i!r}")
            if not 0 <= i < pair.chart.dim:
                raise StructureError(
                    f"center index {i!r} out of range for a chart of dimension {pair.chart.dim}"
                )
        _spec_pair(self, pair)
        _spec_center(self, center)


_spec_pair, _spec_center = _setters(BlowupSpec)


class BlowupChart(Value):
    """Affine chart of the blowup in which coordinate ``index`` is exceptional."""

    __slots__ = ("index", "chart_map", "total_transform")

    def __init__(self, index: int, chart_map: MonomialMap, total_transform: Divisor):
        _bchart_index(self, index)
        _bchart_map(self, chart_map)
        _bchart_total(self, total_transform)


_bchart_index, _bchart_map, _bchart_total = _setters(BlowupChart)


def classify(spec: BlowupSpec) -> BlowupClass:
    """Coordinate test on the center; containment in the support wins over contact."""
    support = spec.pair.divisor.support
    if not spec.center & support:
        return BlowupClass.INVALID
    if spec.center <= support:
        return BlowupClass.MODIFICATION
    return BlowupClass.SMOOTH_BLOWUP


def blowup_charts(spec: BlowupSpec) -> tuple[BlowupChart, ...]:
    """One chart per center coordinate, with the divisor's total transform.

    In the chart where coordinate ``j`` is exceptional the original
    coordinates substitute as ``y_j = x_j``, ``y_b = x_j * x_b`` for the
    other center coordinates ``b``, and ``y_i = x_i`` elsewhere.  The new
    chart reuses the coordinate names of the original chart.  A singleton
    center yields the identity chart (blowing up a hyperplane changes
    nothing).  The total transform is the pullback of the divisor ``D``,
    in closed form: ``E_j = sum_{b in center} D_b`` and ``E_i = D_i`` for
    ``i != j``, since only ``x_j`` enters more than one substitution.
    """
    if classify(spec) is BlowupClass.INVALID:
        raise InvalidBlowupError("blowup center misses the divisor support")
    chart, mults = spec.pair.chart, spec.pair.divisor.mults
    center = sorted(spec.center)
    exceptional = sum([mults[b] for b in center])
    identity = [((r, 1),) for r in range(len(mults))]  # sparse rows, shared by every chart
    out = []
    for j in center:
        rows = identity.copy()  # each chart replaces its own center rows
        for b in center:
            if b != j:  # row j keeps its identity row
                rows[b] = ((b, 1), (j, 1)) if b < j else ((j, 1), (b, 1))
        total = _divisor(mults[:j] + (exceptional,) + mults[j + 1:])
        out.append(BlowupChart(j, _monomial_map(chart, chart, tuple(rows)), total))
    return tuple(out)
