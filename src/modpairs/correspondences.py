"""Pointwise admissibility tests for prime correspondences between curve pairs.

A correspondence between two curve pairs is described by one local record
per closed point of its normalization: the divisor multiplicities under the
two projections and the ramification degrees of the induced valuation-ring
extensions.  Three tests consume exactly this data:

  * level-one admissibility:       n_x * e_x >= n_y * e_y at every point;
  * admissibility after a twist:   n_x = 0 forces n_y = 0 at every point;
  * log admissibility:             n_x * e_x divides n_y * e_y at every point.

Finiteness and properness of the projections are assumed of the input and
never checked; so is completeness of the record list.
"""

from __future__ import annotations

from .pairs import PairMap, StructureError, Value, _setters

__all__ = ["ConstantCorr", "CorrLocalRecord", "CurveCorr", "NonConstantCorr", "corr_minimal_twist",
           "from_monomial_param", "graph_corr", "in_colim_mcor", "in_lcor", "in_mcor"]


class CorrLocalRecord(Value):
    """Local data at one closed point: divisor coefficients and ramification."""

    __slots__ = ("label", "n_x", "n_y", "e_x", "e_y")

    def __init__(self, label: str, n_x: int, n_y: int, e_x: int, e_y: int):
        if not isinstance(label, str):
            raise StructureError(f"label must be a str, got {type(label).__name__}")
        if type(n_x) is not int or type(n_y) is not int or n_x < 0 or n_y < 0:
            raise StructureError("divisor coefficients must be non-negative")
        if type(e_x) is not int or type(e_y) is not int or e_x < 1 or e_y < 1:
            raise StructureError("ramification degrees must be positive")
        _record_label(self, label)
        _record_n_x(self, n_x)
        _record_n_y(self, n_y)
        _record_e_x(self, e_x)
        _record_e_y(self, e_y)


_record_label, _record_n_x, _record_n_y, _record_e_x, _record_e_y = _setters(CorrLocalRecord)


class ConstantCorr(Value):
    """Correspondence whose second projection is constant; only the image matters."""

    __slots__ = ("image_in_interior",)

    def __init__(self, image_in_interior: bool):
        if type(image_in_interior) is not bool:  # the tests answer with it
            raise StructureError(f"image_in_interior must be a bool, got {type(image_in_interior).__name__}")
        _constant_image(self, image_in_interior)


(_constant_image,) = _setters(ConstantCorr)


class NonConstantCorr(Value):
    """Complete record list, one entry per point where either coefficient is nonzero.

    Completeness is the caller's obligation; it cannot be verified from the
    records alone.
    """

    __slots__ = ("records",)

    def __init__(self, records: tuple[CorrLocalRecord, ...]):
        records = tuple(records)
        labels = [r.label for r in records]
        if len(set(labels)) != len(labels):
            raise StructureError("record labels must be distinct")
        _nonconstant_records(self, records)


(_nonconstant_records,) = _setters(NonConstantCorr)


CurveCorr = ConstantCorr | NonConstantCorr


def in_mcor(c: CurveCorr) -> bool:
    """Admissible at level one: every record satisfies n_x * e_x >= n_y * e_y."""
    if isinstance(c, ConstantCorr):
        return c.image_in_interior
    for r in c.records:
        if r.n_x * r.e_x < r.n_y * r.e_y:
            return False
    return True


def in_colim_mcor(c: CurveCorr) -> bool:
    """Admissible after some finite twist of the source: n_x = 0 forces n_y = 0,
    which is when ``corr_minimal_twist`` finds a level.
    """
    if isinstance(c, ConstantCorr):
        return c.image_in_interior
    for r in c.records:
        if r.n_y and not r.n_x:
            return False
    return True


def in_lcor(c: CurveCorr) -> bool:
    """Log admissible: every record satisfies n_x * e_x | n_y * e_y.

    The convention at zero (0 divides only 0, everything divides 0) makes
    log admissibility imply twisted admissibility on the nose.
    """
    if isinstance(c, ConstantCorr):
        return c.image_in_interior
    for r in c.records:
        d, m = r.n_x * r.e_x, r.n_y * r.e_y
        if (m % d if d else m):  # 0 divides only 0
            return False
    return True


def corr_minimal_twist(c: CurveCorr) -> int | None:
    """Least ``n >= 1`` whose rescaling ``n_x -> n * n_x`` passes the level-one test.

    None when no rescaling works, i.e. some record has n_x = 0 with n_y > 0.
    A constant correspondence needs no rescaling when its image avoids the
    divisor, and no rescaling helps when it does not.
    """
    if isinstance(c, ConstantCorr):
        return 1 if c.image_in_interior else None
    need = 1
    for r in c.records:
        if r.n_y:
            if not r.n_x:
                return None
            n = -(-r.n_y * r.e_y // (r.n_x * r.e_x))
            if n > need:
                need = n
    return need


def from_monomial_param(a: int, b: int, n_x: int, n_y: int) -> NonConstantCorr:
    """Correspondence cut out by the curve ``t -> (t**a, t**b)`` between
    one-dimensional pairs with multiplicities ``n_x`` and ``n_y`` at the origin.

    The only closed point where either coefficient can be nonzero is the one
    over the origin, where the two projections ramify with degrees ``a`` and
    ``b``.  The exponents need not be coprime.
    """
    if type(a) is not int or type(b) is not int or type(n_x) is not int or type(n_y) is not int:
        # the readers pass ints, so the loop runs only to name the first argument that is not one
        for name, value in (("a", a), ("b", b), ("n_x", n_x), ("n_y", n_y)):
            if type(value) is not int:
                raise StructureError(f"{name} must be an int, got {type(value).__name__}")
    if a < 1 or b < 1:
        raise ValueError("parametrization exponents must be positive")
    return NonConstantCorr((CorrLocalRecord("0", n_x, n_y, a, b),))


def graph_corr(f: PairMap) -> CurveCorr:
    """Record set of the graph of a monomial map between curve pairs.

    The graph curve is the source itself, so the first projection never
    ramifies while the second ramifies with the monomial degree.  A
    degree-zero map is treated as constant at the divisor's base point, so
    its image stays in the interior only when the target modulus vanishes.
    """
    if f.src.chart.dim != 1 or f.dst.chart.dim != 1:
        raise StructureError("graph records are defined for one-dimensional charts only")
    (row,) = f.map.rows
    m = row[0][1] if row else 0
    p = f.src.divisor.mults[0]
    q = f.dst.divisor.mults[0]
    if m == 0:
        return ConstantCorr(image_in_interior=(q == 0))
    return NonConstantCorr((CorrLocalRecord("0", p, q, 1, m),))
