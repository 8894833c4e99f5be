"""The contract of the frozen value classes, and what ``import modpairs`` loads.

Every value class compares equal exactly when its class and its fields are
equal, hashes over the same fields, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and keeps its constructor's parameter
names, order and defaults.  So does a user subclass that adds no field,
built through its base's constructor, whose slot setters write its fields.
``MonomialMap`` stores sparse ``rows``; its repr, copies and pickles pass
the dense ``expo`` that its constructor takes.
"""

import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modpairs
from modpairs.blowup import BlowupChart, BlowupSpec, classify
from modpairs.cli import Report, run_command
from modpairs.correspondences import ConstantCorr, CorrLocalRecord, NonConstantCorr, from_monomial_param
from modpairs.dsl import BlowupDecl, CorrDecl, Diagnostic, MapDecl, Model, PairDecl, QPairDecl, parse, print_model
from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    StructureError,
    compose,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    pullback,
    twist,
)
from modpairs.qdivisors import QPair, cube, q_eq, q_normalize, q_rationals, q_transition
from randgen import random_model

EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"


class UserPair(Pair):
    """A subclass with no ``__slots__`` of its own, so its instances also get a ``__dict__``."""


class UserChart(Chart):
    __slots__ = ()


class SlottedUserDiagnostic(Diagnostic):
    """A subclass with its own empty ``__slots__``, so its instances have no ``__dict__`` either."""

    __slots__ = ()


# field names in constructor order, one entry per value class and per user subclass above
FIELDS = {
    Chart: ("coords",),
    Divisor: ("mults",),
    Pair: ("chart", "divisor"),
    MonomialMap: ("source", "target", "expo"),
    PairMap: ("map", "src", "dst"),
    BlowupSpec: ("pair", "center"),
    BlowupChart: ("index", "chart_map", "total_transform"),
    CorrLocalRecord: ("label", "n_x", "n_y", "e_x", "e_y"),
    ConstantCorr: ("image_in_interior",),
    NonConstantCorr: ("records",),
    QPair: ("level", "pair"),
    Diagnostic: ("line", "column", "length", "message", "code"),
    PairDecl: ("name", "pair"),
    MapDecl: ("name", "src", "dst", "pair_map"),
    CorrDecl: ("name", "corr", "src", "dst"),
    QPairDecl: ("name", "pair_name", "qpair"),
    BlowupDecl: ("name", "pair_name", "spec"),
    Model: ("decls",),
    Report: ("status", "records", "diagnostics"),
    UserPair: ("chart", "divisor"),
    SlottedUserDiagnostic: ("line", "column", "length", "message", "code"),
}

TEXT = """\
pair X { dim 1; coords t; divisor { t: 1 } }
pair Z { dim 2; coords x y; divisor { x: 1, y: 2 } }
map f : Z -> X { t <- x * y^2 }
corr c : X -> X { point w { nx 1; ny 2; ex 3; ey 1 } }
qpair q = (2, Z)
blowup b on Z center { x, y }
"""


def build(k: int = 1) -> dict:
    """One value of each class, built afresh from fresh inputs; ``k`` varies every field."""
    x = Chart(("t",) if k == 1 else ("u",))
    z = Chart(["x", "y"])  # normalised to a tuple
    px = Pair(x, Divisor([k]))
    pz = Pair(z, Divisor((1, k + 1)))
    mono = MonomialMap(z, x, [[1, k + 1]])
    pmap = PairMap(mono, pz, px)
    spec = BlowupSpec(pz, {0, 1} if k == 1 else [1])
    rec = CorrLocalRecord("w", k, 2, 3, 1)
    corr = NonConstantCorr([rec])
    qpair = QPair(k + 1, pz)
    decls = (
        PairDecl("X", px),
        PairDecl("Z", pz),
        MapDecl("f", "Z", "X", pmap),
        CorrDecl("c", corr, src="X", dst="X"),
        QPairDecl("q", "Z", qpair),
        BlowupDecl("b", "Z", spec),
    )
    diag = Diagnostic(k, 2, 3, "unknown pair 'nope'", "E021")
    return {
        Chart: x,
        Divisor: Divisor([k, 0]),
        Pair: px,
        MonomialMap: mono,
        PairMap: pmap,
        BlowupSpec: spec,
        BlowupChart: BlowupChart(k, mono, Divisor((k, 0))),
        CorrLocalRecord: rec,
        ConstantCorr: ConstantCorr(image_in_interior=k == 1),
        NonConstantCorr: corr,
        QPair: qpair,
        Diagnostic: diag,
        PairDecl: decls[0],
        MapDecl: decls[2],
        CorrDecl: CorrDecl("m", from_monomial_param(k, 1, 1, 1)),
        QPairDecl: decls[4],
        BlowupDecl: decls[5],
        Model: Model(decls[: 4 + k]),
        Report: Report(k, ({"verdict": k == 1},), (diag,)),
        UserPair: UserPair(x, Divisor([k])),
        SlottedUserDiagnostic: SlottedUserDiagnostic(k, 2, 3, "unknown pair 'nope'", "E021"),
    }


def test_every_value_class_is_covered():
    assert set(build()) == set(FIELDS)
    assert all(type(value) is cls for cls, value in build().items())


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = build()[cls], build()[cls]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_value_equals_itself_and_its_copy(cls):
    value = build()[cls]
    twin = copy.copy(value)
    assert value == value and not value != value and value.__eq__(value) is True
    assert twin is not value and twin == value and value == twin and not twin != value
    assert hash(twin) == hash(value)
    # equality with itself is no answer for an object of another class
    assert value.__eq__(object()) is NotImplemented and value != object()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_different_field_gives_a_different_object(cls):
    a, other = build()[cls], build(2)[cls]
    assert a != other and not a == other


def test_objects_of_different_classes_never_compare_equal():
    values = list(build().values())
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b and not a == b
                assert a.__eq__(b) is NotImplemented
    # the same field values under another class, or bare
    assert PairDecl("p", build()[Pair]) != QPairDecl("p", "Z", build()[QPair])
    assert Chart(("x",)) != ("x",) and Divisor((1,)) != (1,)
    assert ConstantCorr(True) != True  # noqa: E712
    # equal fields under two value classes
    for a, b in ((Chart(()), Divisor(())), (Model(()), NonConstantCorr(()))):
        assert a != b and not a == b and a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_is_name_and_fields(cls):
    value = build()[cls]
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({fields})"


def test_repr_reads_like_a_constructor_call():
    assert repr(Chart(("x",))) == "Chart(coords=('x',))"
    assert repr(Divisor([2, 0])) == "Divisor(mults=(2, 0))"
    assert repr(ConstantCorr(False)) == "ConstantCorr(image_in_interior=False)"
    assert repr(Model()) == "Model(decls=())"


def test_the_identity_map_is_of_the_class_it_is_called_on():
    class UserMap(MonomialMap):
        pass

    ident = UserMap.identity(PLANE)
    assert type(ident) is UserMap and ident == UserMap(PLANE, PLANE, [[1, 0], [0, 1]])
    assert type(MonomialMap.identity(PLANE)) is MonomialMap


def test_a_maps_repr_and_pickle_pass_its_dense_matrix():
    f = MonomialMap(LINE, PLANE, [[2], [0]])
    assert f.rows == (((0, 2),), ())
    assert repr(f) == f"MonomialMap(source={LINE!r}, target={PLANE!r}, expo=((2,), (0,)))"
    assert f.__reduce__() == (MonomialMap, (LINE, PLANE, ((2,), (0,))))
    assert eval(repr(f)) == f


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = build()[cls]
    # the constructor's parameters and the stored slots, which differ only for a map (expo, rows)
    for name in dict.fromkeys(FIELDS[cls] + value._fields):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        if name in value._fields:
            assert getattr(value, name) is before
        else:  # built on demand
            assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.extra = 1
    # only a subclass that declares no __slots__ has a __dict__, and nothing gets into it
    assert not hasattr(value, "__dict__") or (cls is UserPair and value.__dict__ == {})


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_by_position_and_keyword(cls):
    value = build()[cls]
    values = [getattr(value, name) for name in FIELDS[cls]]
    assert cls(*values) == value
    assert cls(**dict(zip(FIELDS[cls], values))) == value


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_keep_the_value(cls):
    value = build()[cls]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_value_whose_memos_are_filled_is_still_a_fresh_value(cls):
    # the map and the blowup that the declarations and the model of ``build`` hold
    values, fresh = build(), build()[cls]
    f, spec = values[PairMap], values[BlowupSpec]
    answers = [is_admissible(f), minimal_twist(f), hom_log_exists(f), is_minimal(f), classify(spec)]
    assert f._facts == ((1, 2), 1)
    value = values[cls]
    assert value == fresh and fresh == value and hash(value) == hash(fresh)
    assert repr(value) == repr(fresh) and pickle.dumps(value) == pickle.dumps(fresh)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == fresh and repr(twin) == repr(fresh)
    # a copy starts with an empty memo, and its answers are the same
    f2, f3 = copy.copy(f), pickle.loads(pickle.dumps(f))
    assert f2._facts is None and f3._facts is None
    assert [is_admissible(f2), minimal_twist(f2), hom_log_exists(f2), is_minimal(f2), classify(spec)] == answers
    assert [is_admissible(f3), minimal_twist(f3), hom_log_exists(f3), is_minimal(f3), classify(spec)] == answers


def test_a_memo_belongs_to_its_own_value():
    line = Pair(LINE, Divisor((1,)))
    square, identity = PairMap(MonomialMap(LINE, LINE, [[2]]), line, line), PairMap(MonomialMap.identity(LINE), line, line)
    assert (minimal_twist(square), is_minimal(square)) == (2, False)
    assert (minimal_twist(identity), is_minimal(identity)) == (1, True)
    assert PairMap._fields == ("map", "src", "dst") and BlowupSpec._fields == ("pair", "center")
    with pytest.raises(AttributeError):
        square._facts = None


def test_defaults():
    corr = NonConstantCorr(())
    decl = CorrDecl(name="c", corr=corr)
    assert (decl.src, decl.dst, decl.monomial) == (None, None, None)
    assert CorrDecl("c", corr, None, None) == decl
    report = Report(status=0, records=())
    assert report.diagnostics == () and report.text == ""
    # hashed over its other fields, since its records are dicts
    assert hash(Report(1, ({"verdict": False},))) == hash(Report(1, ({"verdict": False},)))
    assert ConstantCorr(image_in_interior=True).image_in_interior is True
    assert Model().decls == () and Model() == Model(())


def test_inputs_are_normalised():
    assert Chart(iter("xy")).coords == ("x", "y")
    assert Divisor([1, 2]).mults == (1, 2)
    chart = Chart(("x", "y"))
    assert MonomialMap(chart, chart, [[1, 0], [0, 1]]).expo == ((1, 0), (0, 1))
    assert MonomialMap(chart, chart, iter([[1, 0], (0, 1)])).rows == (((0, 1),), ((1, 1),))
    assert BlowupSpec(Pair(chart, Divisor((1, 1))), [0, 1, 1]).center == frozenset({0, 1})
    assert NonConstantCorr([CorrLocalRecord("a", 1, 1, 1, 1)]).records == (CorrLocalRecord("a", 1, 1, 1, 1),)


LINE, PLANE, OTHER = Chart(("x",)), Chart(("x", "y")), Chart(("y",))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Chart(("x", "x")), "coordinate names must be distinct: ('x', 'x')"),
        (lambda: Chart(("",)), "coordinate names must be nonempty strings, got ''"),
        # a string would be iterated into one coordinate per character
        (lambda: Chart("ab"), "coords must be a sequence of names, got str"),
        (lambda: Divisor((-1,)), "multiplicities must be non-negative integers, got -1"),
        (lambda: Pair(Chart(("x",)), Divisor(())), "divisor has 0 entries for a chart of dimension 1"),
        (lambda: MonomialMap(Chart(("x",)), Chart(()), [[1]]),
         "exponent matrix has 1 rows for a target of dimension 0"),
        (lambda: MonomialMap(LINE, OTHER, [[1, 2]]), "exponent row has 2 entries for a source of dimension 1"),
        (lambda: format_divisor(LINE, Divisor((1, 2))), "divisor does not match the chart"),
        (lambda: BlowupSpec(Pair(Chart(("x",)), Divisor((1,))), ()),
         "blowup center must name at least one coordinate"),
        # an int center index out of range keeps the range message
        (lambda: BlowupSpec(Pair(PLANE, Divisor((1, 1))), {2}), "center index 2 out of range for a chart of dimension 2"),
        (lambda: BlowupSpec(Pair(PLANE, Divisor((1, 1))), {-1}),
         "center index -1 out of range for a chart of dimension 2"),
        (lambda: CorrLocalRecord("a", 1, 1, 0, 1), "ramification degrees must be positive"),
        (lambda: CorrLocalRecord(5, 1, 1, 1, 1), "label must be a str, got int"),
        (lambda: CorrLocalRecord(None, 1, 1, 1, 1), "label must be a str, got NoneType"),
        (lambda: NonConstantCorr([CorrLocalRecord("a", 1, 1, 1, 1)] * 2), "record labels must be distinct"),
        # the tests on a constant correspondence return its image as their answer, so it is a bool
        (lambda: ConstantCorr("no"), "image_in_interior must be a bool, got str"),
        (lambda: ConstantCorr(0), "image_in_interior must be a bool, got int"),
        (lambda: QPair(0, Pair(Chart(()), Divisor(()))), "level must be a positive integer, got 0"),
        (lambda: QPair(1, "x"), "pair must be a Pair, got str"),
        (lambda: QPair(1, None), "pair must be a Pair, got NoneType"),
        (lambda: QPair(1, Divisor((1,))), "pair must be a Pair, got Divisor"),
        # each argument of from_monomial_param is an exact int, checked before the exponents' signs
        (lambda: from_monomial_param(1.5, 1, 1, 1), "a must be an int, got float"),
        (lambda: from_monomial_param(True, 1, 1, 1), "a must be an int, got bool"),
        (lambda: from_monomial_param("a", 1, 1, 1), "a must be an int, got str"),
        (lambda: from_monomial_param(0, 1.5, 1, 1), "b must be an int, got float"),
        (lambda: from_monomial_param(1, 1, None, 1), "n_x must be an int, got NoneType"),
        (lambda: from_monomial_param(1, 1, 1, False), "n_y must be an int, got bool"),
        (lambda: PairMap(MonomialMap.identity(LINE), Pair(OTHER, Divisor((1,))), Pair(LINE, Divisor((1,)))),
         "source pair does not live on the map's source chart"),
        (lambda: PairMap(MonomialMap.identity(LINE), Pair(LINE, Divisor((1,))), Pair(OTHER, Divisor((1,)))),
         "destination pair does not live on the map's target chart"),
        # a field of another class is named once an attribute access on it fails
        (lambda: Pair(None, Divisor((1,))), "chart must be a Chart, got NoneType"),
        (lambda: Pair(Chart(("x",)), (1,)), "divisor must be a Divisor, got tuple"),
        (lambda: Pair(Divisor((1,)), Chart(("x",))), "chart must be a Chart, got Divisor"),
        (lambda: Pair(UserChart(("x",)), None), "divisor must be a Divisor, got NoneType"),  # a subclass passes
        (lambda: PairMap(None, Pair(LINE, Divisor((1,))), Pair(LINE, Divisor((1,)))),
         "map must be a MonomialMap, got NoneType"),
        (lambda: PairMap(MonomialMap.identity(LINE), None, Pair(LINE, Divisor((1,)))), "src must be a Pair, got NoneType"),
        (lambda: PairMap(MonomialMap.identity(LINE), Pair(LINE, Divisor((1,))), LINE), "dst must be a Pair, got Chart"),
        (lambda: BlowupSpec(LINE, {0}), "pair must be a Pair, got Chart"),
        # a field that cannot be iterated, or a chart of another class, is named on the failing path alone
        (lambda: MonomialMap(None, LINE, ()), "source must be a Chart, got NoneType"),
        (lambda: MonomialMap(LINE, Divisor((1,)), [[1]]), "target must be a Chart, got Divisor"),
        (lambda: MonomialMap(LINE, LINE, None), "expo must be a sequence of rows, got NoneType"),
        (lambda: MonomialMap(LINE, LINE, 5), "expo must be a sequence of rows, got int"),
        (lambda: Divisor(None), "mults must be a sequence of integers, got NoneType"),
        (lambda: Divisor(3), "mults must be a sequence of integers, got int"),
        (lambda: BlowupSpec(Pair(LINE, Divisor((1,))), None), "center must be a collection of indices, got NoneType"),
        (lambda: BlowupSpec(Pair(LINE, Divisor((1,))), 0), "center must be a collection of indices, got int"),
    ],
)
def test_validation_is_unchanged(make, message):
    with pytest.raises(StructureError) as info:
        make()
    assert str(info.value) == message


def test_a_chart_and_a_record_take_subclasses_of_str():
    class Name(str):
        pass

    assert Chart([Name("x")]).coords == ("x",) and CorrLocalRecord(Name("w"), 1, 1, 1, 1).label == "w"
    with pytest.raises(StructureError, match="coords must be a sequence of names, got Name"):
        Chart(Name("xy"))  # a string still, so iterated it would give one coordinate per character


def test_a_qpair_takes_a_subclass_of_pair():
    q = QPair(2, UserPair(LINE, Divisor((4,))))
    assert q.pair.divisor == Divisor((4,)) and q_normalize(q) == QPair(1, Pair(LINE, Divisor((2,))))


def test_an_iterable_whose_entries_fail_keeps_its_own_error():
    # only a field that cannot be iterated at all is named; a row or an index that fails is not
    with pytest.raises(TypeError, match="not iterable") as info:
        MonomialMap(LINE, LINE, [5])
    assert not isinstance(info.value, StructureError)
    with pytest.raises(TypeError, match="unhashable") as info:
        BlowupSpec(Pair(LINE, Divisor((1,))), [[0]])
    assert not isinstance(info.value, StructureError)


def test_a_blowup_on_none_names_its_pair():
    # apart from the table above, whose ids are its messages, and QPair's says the same
    with pytest.raises(StructureError) as info:
        BlowupSpec(None, {0})
    assert str(info.value) == "pair must be a Pair, got NoneType"


def test_a_pair_map_and_a_blowup_take_subclasses_of_their_fields_classes():
    line = UserPair(UserChart(("x",)), Divisor((1,)))
    assert PairMap(MonomialMap.identity(line.chart), line, line).src is line
    assert BlowupSpec(line, {0}).pair is line


@pytest.mark.parametrize("corr", [ConstantCorr(True), ConstantCorr(False), CorrLocalRecord("w", 1, 1, 1, 1), None],
                         ids=["constant-in-the-interior", "constant-on-the-divisor", "a-bare-record", "none"])
def test_a_declared_corr_has_records(corr):
    # no statement declares a constant correspondence, and the printer and the
    # CLI's corr-check read the records of every declared one
    with pytest.raises(StructureError) as info:
        CorrDecl("c", corr, src="X", dst="X")
    assert type(info.value) is StructureError
    assert str(info.value) == f"a declared correspondence must be a NonConstantCorr, got {corr!r}"


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None], ids=repr)
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda x: Divisor((1, x)), "multiplicities must be non-negative integers, got {!r}"),
        (lambda x: MonomialMap(LINE, PLANE, [[1], [x]]), "exponents must be non-negative integers, got {!r}"),
        (lambda x: QPair(x, Pair(LINE, Divisor((1,)))), "level must be a positive integer, got {!r}"),
        (lambda x: CorrLocalRecord("a", x, 1, 1, 1), "divisor coefficients must be non-negative"),
        (lambda x: CorrLocalRecord("a", 1, x, 1, 1), "divisor coefficients must be non-negative"),
        (lambda x: CorrLocalRecord("a", 1, 1, x, 1), "ramification degrees must be positive"),
        (lambda x: CorrLocalRecord("a", 1, 1, 1, x), "ramification degrees must be positive"),
        (lambda x: BlowupSpec(Pair(PLANE, Divisor((1, 1))), {x}), "center indices must be integers, got {!r}"),
    ],
    ids=["Divisor", "MonomialMap", "QPair", "n_x", "n_y", "e_x", "e_y", "BlowupSpec"],
)
def test_integer_fields_take_exact_ints_only(make, message, bad):
    # a bool would print as True, which the DSL cannot read back; a float or a str is no integer
    make(1)
    with pytest.raises(StructureError) as info:
        make(bad)
    assert type(info.value) is StructureError and str(info.value) == message.format(bad)


@given(st.lists(st.one_of(st.integers(0, 3), st.booleans(), st.floats(0, 3), st.text("1", max_size=1)),
                min_size=7, max_size=7))
def test_no_integer_field_breaks_the_round_trip(values):
    # every value the constructors accept prints as a model that parses back equal
    mult, expo, level, n_x, n_y, e_x, e_y = values
    try:
        line = Pair(Chart(("t",)), Divisor((mult,)))
        decls = (
            PairDecl("X", line),
            MapDecl("f", "X", "X", PairMap(MonomialMap(line.chart, line.chart, ((expo,),)), line, line)),
            CorrDecl("c", NonConstantCorr((CorrLocalRecord("w", n_x, n_y, e_x, e_y),)), src="X", dst="X"),
            QPairDecl("q", "X", QPair(level, line)),
        )
    except StructureError:
        assert not all(type(v) is int for v in values) or level == 0 or 0 in (e_x, e_y)
        return
    model = Model(decls)
    assert parse(print_model(model)) == model


@pytest.mark.parametrize(
    "make, error, message",
    [
        # scaled is public and builds through the checked constructor; the kernels build past it
        (lambda: Divisor((1,)).scaled(-1), StructureError, "multiplicities must be non-negative integers, got -1"),
        (lambda: Divisor((1,)).scaled(1.5), StructureError, "multiplicities must be non-negative integers, got 1.5"),
        (lambda: twist(Pair(LINE, Divisor((1,))), 0), ValueError, "twist level must be a positive integer, got 0"),
        (lambda: twist(Pair(LINE, Divisor((1,))), True), ValueError, "twist level must be a positive integer, got True"),
        (lambda: q_transition(QPair(1, Pair(LINE, Divisor((1,)))), True), ValueError,
         "transition factor must be a positive integer, got True"),
        (lambda: pullback(MonomialMap(LINE, PLANE, [[1], [1]]), Divisor((1,))), StructureError,
         "divisor has 1 entries for a target of dimension 2"),
        (lambda: compose(MonomialMap(LINE, PLANE, [[1], [1]]), MonomialMap(LINE, PLANE, [[1], [1]])), StructureError,
         "cannot compose: target of the first map differs from source of the second"),
        (lambda: cube(Pair(LINE, Divisor((1,))), 1, "x"), StructureError,
         "fresh coordinate name 'x' collides with the chart"),
        (lambda: cube(Pair(LINE, Divisor((1,))), 1, ""), StructureError,
         "coordinate names must be nonempty strings, got ''"),
        (lambda: cube(Pair(LINE, Divisor((1,))), 1, None), StructureError,
         "coordinate names must be nonempty strings, got None"),
        (lambda: cube(Pair(LINE, Divisor((1,))), 1, 5), StructureError,
         "coordinate names must be nonempty strings, got 5"),
        (lambda: cube(Pair(LINE, Divisor((1,))), True), ValueError, "cube weight must be a positive integer, got True"),
        (lambda: q_eq(QPair(1, Pair(LINE, Divisor((1,)))), QPair(1, Pair(OTHER, Divisor((1,))))),
         StructureError, "cannot compare levelled divisors on different charts"),
    ],
    ids=["scaled-negative", "scaled-fraction", "twist-zero", "twist-bool", "q_transition-bool", "pullback-length",
         "compose-mismatch", "cube-collision", "cube-empty", "cube-none", "cube-int", "cube-bool", "q_eq-charts"],
)
def test_kernels_keep_their_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_the_chart_checks_take_an_equal_chart_that_is_another_object():
    # the checks test identity first; an equal chart built apart must pass all the same
    line, plane = Chart(("x",)), Chart(("x", "y"))
    assert line is not LINE and line == LINE and plane is not PLANE and plane == PLANE
    f, g = MonomialMap(LINE, PLANE, [[1], [1]]), MonomialMap(plane, LINE, [[1, 2]])
    assert PairMap(f, Pair(line, Divisor((2,))), Pair(plane, Divisor((1, 1)))).src.chart is line
    assert compose(g, f) == MonomialMap(LINE, LINE, [[3]])
    assert q_eq(QPair(1, Pair(line, Divisor((1,)))), QPair(2, Pair(LINE, Divisor((2,)))))


def test_model_built_directly():
    parsed = parse(TEXT)
    built = Model(tuple(parsed.decls))
    assert built == parsed and hash(built) == hash(parsed)
    assert built.namespace(PairDecl)["Z"] == parsed.namespace(PairDecl)["Z"]
    assert list(built.namespace(MapDecl)) == ["f"] and list(built.namespace(BlowupDecl)) == ["b"]
    assert built.namespace(CorrDecl)["c"].src == "X" and built.namespace(QPairDecl)["q"].qpair.level == 2
    assert dict(Model().namespace(MapDecl)) == {}
    with pytest.raises(TypeError):
        built.namespace(PairDecl)["W"] = parsed.namespace(PairDecl)["X"]  # the index is read-only


def _modules(code: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after running ``code``: without
    ``site``, so that no module a ``.pth`` file preloads (``re``, say) hides one."""
    src = str(Path(modpairs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys; {code}loaded = sorted(sys.modules); import json; print(json.dumps(loaded))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    return set(json.loads(out))


_FRONT_ENDS = {"modpairs.dsl", "modpairs.cli", "modpairs.tokens", "re"}


def test_import_loads_no_heavy_module():
    loaded = _modules("import modpairs; ") - _modules("")
    assert {"modpairs.pairs", "modpairs.blowup", "modpairs.correspondences", "modpairs.qdivisors"} <= loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "argparse", "json"}
    assert not heavy & loaded
    assert not _FRONT_ENDS & loaded  # the library import leaves out the DSL, its regexes and the CLI


def test_a_dsl_name_loads_the_dsl_alone():
    loaded = _modules("from modpairs import parse; ")
    assert {"modpairs.dsl", "re"} <= loaded and not {"modpairs.cli", "modpairs.tokens"} & loaded


def test_the_kernel_script_loads_no_dsl():
    loaded = _imported([str(EXAMPLE.parent / "counterexample_scan.py"), "--max", "2"])
    assert "modpairs.correspondences" in loaded and "modpairs.dsl" not in loaded


def test_a_model_unpickles_where_only_modpairs_was_imported():
    model = parse(TEXT)
    src = str(Path(modpairs.__file__).resolve().parents[1])
    # unpickled before any DSL name is used, so the pickle itself must load modpairs.dsl
    code = "import pickle, sys, modpairs; m = pickle.loads(sys.stdin.buffer.read()); sys.stdout.write(modpairs.print_model(m))"
    out = subprocess.run([sys.executable, "-S", "-c", code], input=pickle.dumps(model), capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.decode() == print_model(model)


def test_a_deferred_name_is_read_from_its_module_on_each_use(monkeypatch):
    from modpairs import dsl

    def other(text):
        return []

    monkeypatch.setattr(dsl, "parse", other)
    assert modpairs.parse is dsl.parse is other


def test_the_cli_names_stay_public():
    from modpairs import cli, dsl

    deferred = {cli: ("Report", "main", "run_command"),
                dsl: ("BlowupDecl", "CorrDecl", "Diagnostic", "MapDecl", "Model", "PairDecl", "QPairDecl",
                      "format_decl", "format_diagnostic", "parse", "print_model")}
    for module, names in deferred.items():
        assert set(names) <= set(modpairs.__all__)
        assert all(getattr(modpairs, name) is getattr(module, name) for name in names)
    namespace = {}
    exec("from modpairs import *", namespace)
    assert set(modpairs.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(modpairs, name) for name in modpairs.__all__)
    with pytest.raises(AttributeError, match=r"^module 'modpairs' has no attribute 'nosuch'$"):
        modpairs.nosuch


# modpairs.__all__, sorted: a name listed twice would not match
_PUBLIC = [
    "BlowupChart", "BlowupClass", "BlowupDecl", "BlowupSpec", "Chart", "ConstantCorr", "CorrDecl", "CorrLocalRecord",
    "CurveCorr", "Diagnostic", "Divisor", "InvalidBlowupError", "MapDecl", "Model", "MonomialMap", "NonConstantCorr",
    "Pair", "PairDecl", "PairMap", "QPair", "QPairDecl", "Report", "StructureError", "blowup_charts", "classify",
    "compose", "corr_minimal_twist", "cube", "cube_projection", "cube_weight", "divisor_leq", "format_decl",
    "format_diagnostic", "format_divisor", "from_monomial_param", "graph_corr", "hom_log_exists", "in_colim_mcor",
    "in_lcor", "in_mcor", "is_admissible", "is_minimal", "main", "minimal_twist", "parse", "print_model", "pullback",
    "q_eq", "q_normalize", "q_rationals", "q_transition", "run_command", "twist",
]


def test_the_public_names_are_pinned_and_each_is_its_modules_own():
    from modpairs import blowup, correspondences, pairs, qdivisors

    assert sorted(modpairs.__all__) == _PUBLIC
    for module in (blowup, correspondences, pairs, qdivisors):
        assert module.__all__ and all(getattr(modpairs, name) is getattr(module, name) for name in module.__all__)


def test_dir_lists_every_public_name_before_first_use():
    code = "import modpairs; assert set(modpairs.__all__) <= set(dir(modpairs)); "
    assert not _FRONT_ENDS & _modules(code)  # listing the names loads neither front end


def _imported(argv: list[str], status: int | None = None) -> set[str]:
    """The modules ``python -X importtime argv`` imports, from its stderr: a run
    that answers, with status 0 or 1 and some output, or exits with ``status``."""
    src = str(Path(modpairs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=env,
                         stdin=subprocess.DEVNULL)
    assert run.returncode == status if status is not None else run.returncode in (0, 1) and run.stdout
    return set(re.findall(r"^import time:.*\| +([\w.]+)$", run.stderr, re.M))


def test_a_verb_call_loads_json_only_for_machine_output_and_never_argparse():
    loaded = _imported(["-m", "modpairs", "twist", "X", "2", "--model", str(EXAMPLE)])
    assert "modpairs.cli" in loaded and not {"argparse", "json"} & loaded
    loaded = _imported(["-m", "modpairs", "twist", "X", "2", "--model", str(EXAMPLE), "--machine"])
    assert "json" in loaded and "argparse" not in loaded
    # the help text and a usage error are modpairs' own words
    for argv, status in ((["--help"], 0), (["twist", "--help"], 0), (["twist", "X"], 2), (["nosuch"], 2)):
        loaded = _imported(["-m", "modpairs", *argv], status)
        assert "modpairs.cli" in loaded and not {"argparse", "json"} & loaded, argv


def test_token_module_loads_only_off_the_canonical_path(tmp_path):
    # dsl.parse imports the token path only where the matcher stops early
    assert "modpairs.tokens" not in _modules("import modpairs, modpairs.dsl; ")
    canonical = tmp_path / "canonical.lp"
    canonical.write_text(print_model(random_model(random.Random(11))))
    loaded = _imported(["-m", "modpairs", "check-all", "--model", str(canonical), "--machine"])
    assert "modpairs.dsl" in loaded and "modpairs.tokens" not in loaded
    # the example spells divisors spaced, which only the token parser reads
    loaded = _imported(["-m", "modpairs", "check-all", "--model", str(EXAMPLE), "--machine"])
    assert "modpairs.tokens" in loaded


def test_readers_and_the_cli_never_run_the_read_back(monkeypatch):
    # parse builds past Model's check on the matcher's path and the token
    # parser's alike, and no verb builds a model
    canonical = print_model(random_model(random.Random(11)))
    expected = run_command(parse(TEXT), ["check-all"])

    def read_back(self, decls=()):
        raise AssertionError("Model.__init__ ran")

    monkeypatch.setattr(Model, "__init__", read_back)
    model = parse(canonical)
    assert type(model) is Model and print_model(model) == canonical
    assert [d.code for d in parse(TEXT.replace("x * y^2", "x * w"))] == ["E032"]
    unicode = parse("pair \u00e9 { dim 1; coords \u00fc; divisor {\u00fc: 1} }\nqpair q = (2, \u00e9)\n")
    assert [d.name for d in unicode.decls] == ["\u00e9", "q"]
    assert run_command(model, ["check-all"]).status in (0, 1)
    assert run_command(parse(TEXT), ["check-all"]) == expected


def test_q_rationals_gives_fractions():
    q = QPair(4, Pair(Chart(("x", "y")), Divisor((2, 3))))
    assert q_rationals(q) == (Fraction(1, 2), Fraction(3, 4))
    assert all(type(r) is Fraction for r in q_rationals(q))
