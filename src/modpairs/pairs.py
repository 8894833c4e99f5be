"""Charts, divisors and monomial morphisms, with exact integer arithmetic.

A chart is an affine space with named coordinates.  A divisor on a chart
assigns a non-negative multiplicity to each coordinate hyperplane, and a
pair couples a chart with such a divisor; the pair's interior is the
complement of the divisor's support.  Morphisms are monomial: each target
coordinate pulls back to a single unit-coefficient monomial in the source
coordinates, recorded as a matrix of exponents.  Scalar coefficients are
dropped throughout since they change no vanishing order and no support.

Everything in this module is an immutable value or a pure function of its
inputs, so values can be shared freely between threads.
"""

from __future__ import annotations

from operator import attrgetter, ge, mul

# Writes a field of a value under construction, past ``Value.__setattr__``.
setfield = object.__setattr__
_map = map  # the builtin, which ``pullback``'s parameter of that name hides


class Value:
    """Base of the frozen value classes, whose ``__slots__`` name their fields.

    Two values are equal when they are of the same class with equal fields, and
    hash over those fields; the repr reads ``Name(field=value, ...)``.  Fields
    are set once, by the class's ``__init__`` through ``setfield``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:  # every field is an immutable value equal to itself
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class StructureError(ValueError):
    """Mismatched shapes: wrong divisor length, incompatible charts, bad entries."""


class Chart(Value):
    """Affine chart with named coordinates; dimension 0 is the point chart."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[str, ...]):
        if not isinstance(coords, tuple):
            coords = tuple(coords)
        for name in coords:
            if not isinstance(name, str) or not name:
                raise StructureError(f"coordinate names must be nonempty strings, got {name!r}")
        if len(set(coords)) != len(coords):
            raise StructureError(f"coordinate names must be distinct: {coords}")
        setfield(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise StructureError(f"chart has no coordinate {name!r}") from None


class Divisor(Value):
    """Non-negative multiplicity for each coordinate hyperplane of a chart."""

    __slots__ = ("mults",)

    def __init__(self, mults: tuple[int, ...]):
        if not isinstance(mults, tuple):
            mults = tuple(mults)
        for m in mults:
            if not isinstance(m, int) or m < 0:
                raise StructureError(f"multiplicities must be non-negative integers, got {m!r}")
        setfield(self, "mults", mults)

    def __len__(self) -> int:
        return len(self.mults)

    @property
    def support(self) -> frozenset[int]:
        """Indices of the hyperplanes that actually appear."""
        return frozenset(i for i, m in enumerate(self.mults) if m > 0)

    def scaled(self, n: int) -> Divisor:
        return Divisor(tuple(n * m for m in self.mults))


class Pair(Value):
    """A chart together with an effective divisor bounding poles along it."""

    __slots__ = ("chart", "divisor")

    def __init__(self, chart: Chart, divisor: Divisor):
        if len(divisor.mults) != len(chart.coords):
            raise StructureError(
                f"divisor has {len(divisor)} entries for a chart of dimension {chart.dim}"
            )
        setfield(self, "chart", chart)
        setfield(self, "divisor", divisor)


class MonomialMap(Value):
    """Exponent-matrix presentation of a monomial morphism of charts.

    Row ``j`` of ``expo`` records the monomial that target coordinate ``j``
    pulls back to: ``y_j = prod_i x_i ** expo[j][i]``, coefficient 1.
    """

    __slots__ = ("source", "target", "expo")

    def __init__(self, source: Chart, target: Chart, expo: tuple[tuple[int, ...], ...]):
        rows, dim = tuple(tuple(row) for row in expo), len(source.coords)
        if len(rows) != len(target.coords):
            raise StructureError(
                f"exponent matrix has {len(rows)} rows for a target of dimension {target.dim}"
            )
        for row in rows:
            if len(row) != dim:
                raise StructureError(
                    f"exponent row has {len(row)} entries for a source of dimension {source.dim}"
                )
            for e in row:
                if not isinstance(e, int) or e < 0:
                    raise StructureError(f"exponents must be non-negative integers, got {e!r}")
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "expo", rows)

    @classmethod
    def identity(cls, chart: Chart) -> MonomialMap:
        d = chart.dim
        rows = tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))
        return cls(chart, chart, rows)


class PairMap(Value):
    """Candidate morphism of pairs; admissibility is queried, never assumed."""

    __slots__ = ("map", "src", "dst")

    def __init__(self, map: MonomialMap, src: Pair, dst: Pair):
        if src.chart != map.source:
            raise StructureError("source pair does not live on the map's source chart")
        if dst.chart != map.target:
            raise StructureError("destination pair does not live on the map's target chart")
        setfield(self, "map", map)
        setfield(self, "src", src)
        setfield(self, "dst", dst)


def pullback(map: MonomialMap, divisor: Divisor) -> Divisor:
    """Pull a divisor on the target chart back along a monomial map.

    The multiplicity of the pullback along ``{x_i = 0}`` is the vanishing
    order there of the product of the pulled-back target equations, which
    for monomials is the transpose action of the exponent matrix:
    ``E_i = sum_j expo[j][i] * D_j``, a sum down column ``i`` (all 0 when
    the target is the point chart and ``expo`` has no rows).
    """
    mults = divisor.mults
    if len(mults) != len(map.target.coords):
        raise StructureError(
            f"divisor has {len(mults)} entries for a target of dimension {map.target.dim}"
        )
    columns = zip(*map.expo) if mults else ((),) * len(map.source.coords)
    return Divisor(tuple(sum(_map(mul, column, mults)) for column in columns))


def divisor_leq(a: Divisor, b: Divisor) -> bool:
    """True when ``a`` contains ``b`` as an effective divisor: a_i >= b_i for all i."""
    if len(a.mults) != len(b.mults):
        raise StructureError(f"cannot compare divisors of lengths {len(a)} and {len(b)}")
    return all(map(ge, a.mults, b.mults))


def is_admissible(f: PairMap) -> bool:
    """True when the source divisor dominates the pulled-back target divisor."""
    return divisor_leq(f.src.divisor, pullback(f.map, f.dst.divisor))


def twist(p: Pair, n: int) -> Pair:
    """Multiply the divisor by ``n >= 1``, keeping the chart and the support."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"twist level must be a positive integer, got {n!r}")
    return Pair(p.chart, p.divisor.scaled(n))


def minimal_twist(f: PairMap) -> int | None:
    """Least ``n >= 1`` making ``twist(f.src, n) -> f.dst`` admissible, or None.

    None means no twist works: the pulled-back divisor touches a hyperplane
    the source divisor misses, and scaling the source cannot repair that.
    Whenever the support condition holds, the answer is the maximum of the
    ceilings ``E_i / x_i`` over the support of the pullback (at least 1).
    """
    need = 1
    for e, x in zip(pullback(f.map, f.dst.divisor).mults, f.src.divisor.mults):
        if e:
            if not x:
                return None
            n = -(-e // x)
            if n > need:
                need = n
    return need


def hom_log_exists(f: PairMap) -> bool:
    """Whether the map survives after some finite twist of the source.

    That is when ``minimal_twist`` finds a level: the pulled-back support
    lies in the source support.  Maps that do are exactly the morphisms
    between the log charts the two pairs determine; two such morphisms agree
    there iff their monomial data coincide, so the underlying ``MonomialMap``
    is a faithful presentation.
    """
    return minimal_twist(f) is not None


def is_minimal(f: PairMap) -> bool:
    """True when the source divisor is exactly the pulled-back target divisor."""
    return f.src.divisor.mults == pullback(f.map, f.dst.divisor).mults


def compose(g: MonomialMap, f: MonomialMap) -> MonomialMap:
    """Composite ``g after f`` by monomial substitution; exponent matrices multiply.

    Entry ``(k, i)`` is row ``k`` of ``g`` against column ``i`` of ``f``, and
    0 when the middle chart is the point chart and ``f`` has no rows.
    """
    if f.target != g.source:
        raise StructureError("cannot compose: target of the first map differs from source of the second")
    columns = tuple(zip(*f.expo)) if f.expo else ((),) * len(f.source.coords)
    rows = tuple(tuple(sum(map(mul, row, column)) for column in columns) for row in g.expo)
    return MonomialMap(f.source, g.target, rows)


def format_divisor(chart: Chart, divisor: Divisor) -> str:
    """Render ``{coord: mult, ...}`` with zero entries omitted, declaration order."""
    if len(divisor.mults) != len(chart.coords):
        raise StructureError("divisor does not match the chart")
    entries = [f"{name}: {m}" for name, m in zip(chart.coords, divisor.mults) if m > 0]
    return "{" + ", ".join(entries) + "}"
