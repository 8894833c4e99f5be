"""Charts, divisors and monomial morphisms, with exact integer arithmetic.

A chart is an affine space with named coordinates.  A divisor on a chart
assigns a non-negative multiplicity to each coordinate hyperplane, and a
pair couples a chart with such a divisor; the pair's interior is the
complement of the divisor's support.  Morphisms are monomial: each target
coordinate pulls back to a single unit-coefficient monomial in the source
coordinates.  A map stores that monomial sparse, as the row of its
``(source index, exponent)`` factors with positive exponents by increasing
index, so every kernel, reader and the printer walk only the nonzero
exponents; the dense exponent matrix is the public constructor's input and
is built again on demand.  Scalar coefficients are dropped throughout since
they change no vanishing order and no support.

Everything in this module is an immutable value or a pure function of its
inputs, so values can be shared freely between threads.  The public
constructors check every field, since their arguments may come from any
caller.  The kernels (``pullback``, ``compose`` and ``twist`` here,
``blowup_charts``, ``q_normalize`` and ``cube`` beside them) build their
results past those checks, through ``_divisor``, ``_pair`` and
``_monomial_map``: the fields they pass hold by construction, computed by
integer arithmetic from values that were checked when they were built.
Every field of every value class is written through its slot's own setter,
bound once below the class (``_pair_chart, _pair_divisor = _setters(Pair)``),
which looks no name up on the type per write; ``Value.__setattr__`` refuses
every other write.

No function or method here, nor in ``blowup``, ``correspondences`` and
``qdivisors``, holds a generator expression.  A test over the entries
(``in_mcor``, ``in_lcor``, ``q_eq``) is a ``for`` loop that returns at the
first entry that fails, and a result is built from a list (``twist``,
``q_normalize``): on the few coordinates of a chart, the frame a generator
builds and resumes once per entry costs more than the arithmetic it feeds.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, ge

_new = object.__new__  # a value with no field set yet, for the kernels' builders below


def _setters(cls: type) -> list:
    """The ``__set__`` of each slot of ``cls``, in field order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class Value:
    """Base of the frozen value classes, whose ``__slots__`` name their fields.

    Two values are equal when they are of the same class with equal fields, and
    hash over those fields; the repr reads ``Name(field=value, ...)``.  Fields
    are set once, through the slot setters bound beside each class: by the
    class's ``__init__``, which checks and normalises them, or by a kernel's
    builder in this module, which skips those checks because the kernel's
    fields hold by construction.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # a subclass of a value class keeps its base's fields, then any slots it adds
        cls._fields = getattr(cls, "_fields", ()) + tuple(vars(cls).get("__slots__", ()))
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
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


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
        _chart_coords(self, coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


(_chart_coords,) = _setters(Chart)


class Divisor(Value):
    """Non-negative multiplicity for each coordinate hyperplane of a chart."""

    __slots__ = ("mults",)

    def __init__(self, mults: tuple[int, ...]):
        if not isinstance(mults, tuple):
            mults = tuple(mults)
        for m in mults:
            if type(m) is not int or m < 0:
                raise StructureError(f"multiplicities must be non-negative integers, got {m!r}")
        _divisor_mults(self, mults)

    def __len__(self) -> int:
        return len(self.mults)

    @property
    def support(self) -> frozenset[int]:
        """Indices of the hyperplanes that actually appear."""
        return frozenset(compress(range(len(self.mults)), self.mults))

    def scaled(self, n: int) -> Divisor:
        return Divisor(tuple([n * m for m in self.mults]))


(_divisor_mults,) = _setters(Divisor)


class Pair(Value):
    """A chart together with an effective divisor bounding poles along it."""

    __slots__ = ("chart", "divisor")

    def __init__(self, chart: Chart, divisor: Divisor):
        if len(divisor.mults) != len(chart.coords):
            raise StructureError(
                f"divisor has {len(divisor)} entries for a chart of dimension {chart.dim}"
            )
        _pair_chart(self, chart)
        _pair_divisor(self, divisor)


_pair_chart, _pair_divisor = _setters(Pair)


class MonomialMap(Value):
    """Monomial morphism of charts, one sparse row per target coordinate.

    Row ``j`` of ``rows`` lists the factors ``(i, e)`` of the monomial that
    target coordinate ``j`` pulls back to, ``y_j = prod x_i ** e`` with
    coefficient 1: positive exponents only, by increasing source index, and
    ``()`` for the empty monomial 1.  That form is canonical, so equal maps
    have equal rows.  The constructor takes the dense exponent matrix,
    ``expo[j][i]`` the exponent of ``x_i`` in row ``j``; ``expo`` builds it
    again on demand, and the repr, copies and pickles go through it.
    """

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: Chart, target: Chart, expo: tuple[tuple[int, ...], ...]):
        dense, dim = tuple(map(tuple, expo)), len(source.coords)
        if len(dense) != len(target.coords):
            raise StructureError(
                f"exponent matrix has {len(dense)} rows for a target of dimension {target.dim}"
            )
        rows = []
        for row in dense:
            if len(row) != dim:
                raise StructureError(
                    f"exponent row has {len(row)} entries for a source of dimension {source.dim}"
                )
            factors = []
            for i, e in enumerate(row):  # one pass checks each entry and keeps the nonzero ones
                if type(e) is not int or e < 0:
                    raise StructureError(f"exponents must be non-negative integers, got {e!r}")
                if e:
                    factors.append((i, e))
            rows.append(tuple(factors))
        _map_source(self, source)
        _map_target(self, target)
        _map_rows(self, tuple(rows))

    @property
    def expo(self) -> tuple[tuple[int, ...], ...]:
        """The dense exponent matrix, built from the rows at each call."""
        dim, out = len(self.source.coords), []
        for row in self.rows:
            dense = [0] * dim
            for i, e in row:
                dense[i] = e
            out.append(tuple(dense))
        return tuple(out)

    def __repr__(self):
        return f"{type(self).__qualname__}(source={self.source!r}, target={self.target!r}, expo={self.expo!r})"

    def __reduce__(self):
        return type(self), (self.source, self.target, self.expo)

    @classmethod
    def identity(cls, chart: Chart) -> MonomialMap:
        return _monomial_map(chart, chart, tuple([((i, 1),) for i in range(len(chart.coords))]), cls)


_map_source, _map_target, _map_rows = _setters(MonomialMap)


class PairMap(Value):
    """Candidate morphism of pairs; admissibility is queried, never assumed."""

    __slots__ = ("map", "src", "dst")

    def __init__(self, map: MonomialMap, src: Pair, dst: Pair):
        # charts are most often shared, so identity settles the test before ``Value.__eq__``
        if src.chart is not map.source and src.chart != map.source:
            raise StructureError("source pair does not live on the map's source chart")
        if dst.chart is not map.target and dst.chart != map.target:
            raise StructureError("destination pair does not live on the map's target chart")
        _pairmap_map(self, map)
        _pairmap_src(self, src)
        _pairmap_dst(self, dst)


_pairmap_map, _pairmap_src, _pairmap_dst = _setters(PairMap)


# The kernels' builders, one per class.  Each takes fields that already pass
# its class's ``__init__`` checks in their normal form (exact tuples of ints,
# lengths that match the charts, a map's rows sparse and sorted as
# ``MonomialMap`` keeps them) and skips those checks.


def _divisor(mults: tuple[int, ...]) -> Divisor:
    divisor = _new(Divisor)
    _divisor_mults(divisor, mults)
    return divisor


def _pair(chart: Chart, divisor: Divisor) -> Pair:
    pair = _new(Pair)
    _pair_chart(pair, chart)
    _pair_divisor(pair, divisor)
    return pair


def _monomial_map(source: Chart, target: Chart, rows: tuple[tuple[tuple[int, int], ...], ...],
                  cls: type = MonomialMap) -> MonomialMap:
    m = _new(cls)
    _map_source(m, source)
    _map_target(m, target)
    _map_rows(m, rows)
    return m


def pullback(map: MonomialMap, divisor: Divisor) -> Divisor:
    """Pull a divisor on the target chart back along a monomial map.

    The multiplicity of the pullback along ``{x_i = 0}`` is the vanishing
    order there of the product of the pulled-back target equations, which
    for monomials is the transpose action of the exponents:
    ``E_i = sum_j expo[j][i] * D_j``.  One pass over the rows with
    ``D_j > 0`` adds each factor ``(i, e)`` of row ``j`` as ``e * D_j``.
    """
    mults = divisor.mults
    if len(mults) != len(map.target.coords):
        raise StructureError(
            f"divisor has {len(mults)} entries for a target of dimension {map.target.dim}"
        )
    out = [0] * len(map.source.coords)
    for row, m in zip(map.rows, mults):
        if m:
            for i, e in row:
                out[i] += e * m
    return _divisor(tuple(out))


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
    if type(n) is not int or n < 1:
        raise ValueError(f"twist level must be a positive integer, got {n!r}")
    return _pair(p.chart, _divisor(tuple([n * m for m in p.divisor.mults])))


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

    Each factor ``(j, e)`` of a row of ``g`` contributes the row ``j`` of
    ``f`` raised to ``e``; exponents of the same source coordinate add.
    """
    if f.target is not g.source and f.target != g.source:
        raise StructureError("cannot compose: target of the first map differs from source of the second")
    inner, rows = f.rows, []
    for row in g.rows:
        acc: dict[int, int] = {}
        for j, e in row:
            for i, x in inner[j]:
                acc[i] = acc.get(i, 0) + e * x
        rows.append(tuple(sorted(acc.items())))
    return _monomial_map(f.source, g.target, tuple(rows))


def format_divisor(chart: Chart, divisor: Divisor) -> str:
    """Render ``{coord: mult, ...}`` with zero entries omitted, declaration order."""
    if len(divisor.mults) != len(chart.coords):
        raise StructureError("divisor does not match the chart")
    entries = [f"{name}: {m}" for name, m in zip(chart.coords, divisor.mults) if m > 0]
    return "{" + ", ".join(entries) + "}"
