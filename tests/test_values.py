"""The contract of the frozen value classes, and what ``import modpairs`` loads.

Every value class compares equal exactly when its class and its fields are
equal, hashes over the same fields, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and keeps its constructor's parameter
names, order and defaults.
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

import modpairs
from modpairs.blowup import BlowupChart, BlowupSpec
from modpairs.cli import Report
from modpairs.correspondences import ConstantCorr, CorrLocalRecord, NonConstantCorr
from modpairs.dsl import BlowupDecl, CorrDecl, Diagnostic, MapDecl, Model, PairDecl, QPairDecl, parse, print_model
from modpairs.pairs import Chart, Divisor, MonomialMap, Pair, PairMap, StructureError
from modpairs.qdivisors import QPair, q_rationals
from randgen import random_model

EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"

# field names in constructor order, one entry per value class
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
    Diagnostic: ("severity", "line", "column", "length", "message", "code"),
    PairDecl: ("name", "pair"),
    MapDecl: ("name", "src", "dst", "pair_map"),
    CorrDecl: ("name", "corr", "src", "dst", "monomial"),
    QPairDecl: ("name", "pair_name", "qpair"),
    BlowupDecl: ("name", "pair_name", "center_coords", "spec"),
    Model: ("decls",),
    Report: ("status", "text", "records", "diagnostics"),
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
        BlowupDecl("b", "Z", ("x", "y"), spec),
    )
    diag = Diagnostic("error", k, 2, 3, "unknown pair 'nope'", "E021")
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
        CorrDecl: CorrDecl("m", corr, monomial=(k, 1, 1, 1)),
        QPairDecl: decls[4],
        BlowupDecl: decls[5],
        Model: Model(decls[: 4 + k]),
        Report: Report(k, "error: unknown pair 'nope'", (), (diag,)),
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


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = build()[cls]
    for name in FIELDS[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


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


def test_defaults():
    corr = NonConstantCorr(())
    decl = CorrDecl(name="c", corr=corr)
    assert (decl.src, decl.dst, decl.monomial) == (None, None, None)
    assert CorrDecl("c", corr, None, None, None) == decl
    report = Report(status=0, text="", records=())
    assert report.diagnostics == ()
    with pytest.raises(TypeError):
        hash(Report(1, "", ({"verdict": False},)))  # hashes over its records, which are dicts
    assert ConstantCorr(image_in_interior=True).image_in_interior is True
    assert Model().decls == () and Model() == Model(())


def test_inputs_are_normalised():
    assert Chart(iter("xy")).coords == ("x", "y")
    assert Divisor([1, 2]).mults == (1, 2)
    chart = Chart(("x", "y"))
    assert MonomialMap(chart, chart, [[1, 0], [0, 1]]).expo == ((1, 0), (0, 1))
    assert BlowupSpec(Pair(chart, Divisor((1, 1))), [0, 1, 1]).center == frozenset({0, 1})
    assert NonConstantCorr([CorrLocalRecord("a", 1, 1, 1, 1)]).records == (CorrLocalRecord("a", 1, 1, 1, 1),)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Chart(("x", "x")), "coordinate names must be distinct: ('x', 'x')"),
        (lambda: Chart(("",)), "coordinate names must be nonempty strings, got ''"),
        (lambda: Divisor((-1,)), "multiplicities must be non-negative integers, got -1"),
        (lambda: Pair(Chart(("x",)), Divisor(())), "divisor has 0 entries for a chart of dimension 1"),
        (lambda: MonomialMap(Chart(("x",)), Chart(()), [[1]]),
         "exponent matrix has 1 rows for a target of dimension 0"),
        (lambda: BlowupSpec(Pair(Chart(("x",)), Divisor((1,))), ()),
         "blowup center must name at least one coordinate"),
        (lambda: CorrLocalRecord("a", 1, 1, 0, 1), "ramification degrees must be positive"),
        (lambda: NonConstantCorr([CorrLocalRecord("a", 1, 1, 1, 1)] * 2), "record labels must be distinct"),
        (lambda: QPair(0, Pair(Chart(()), Divisor(()))), "level must be a positive integer, got 0"),
    ],
)
def test_validation_is_unchanged(make, message):
    with pytest.raises(StructureError) as info:
        make()
    assert str(info.value) == message


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
    src = str(Path(modpairs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}loaded = sorted(sys.modules); import json; print(json.dumps(loaded))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return set(json.loads(out))


def test_import_loads_no_heavy_module():
    loaded = _modules("import modpairs; ") - _modules("")
    assert "modpairs.dsl" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "argparse", "json"}
    assert not heavy & loaded
    assert "modpairs.cli" not in loaded  # the library import leaves the CLI out


def test_the_cli_names_stay_public():
    from modpairs import cli

    assert modpairs.main is cli.main and modpairs.run_command is cli.run_command and modpairs.Report is cli.Report
    assert {"main", "run_command", "Report"} <= set(modpairs.__all__)
    namespace = {}
    exec("from modpairs import *", namespace)
    assert set(modpairs.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(modpairs, name) for name in modpairs.__all__)
    with pytest.raises(AttributeError, match=r"^module 'modpairs' has no attribute 'nosuch'$"):
        modpairs.nosuch


def _imported(argv: list[str]) -> set[str]:
    """The modules ``python -X importtime argv`` imports, from its stderr."""
    src = str(Path(modpairs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=env)
    assert run.returncode in (0, 1) and run.stdout
    return set(re.findall(r"^import time:.*\| +([\w.]+)$", run.stderr, re.M))


def test_a_verb_call_loads_json_only_for_machine_output_and_never_argparse():
    loaded = _imported(["-m", "modpairs", "twist", "X", "2", "--model", str(EXAMPLE)])
    assert "modpairs.cli" in loaded and not {"argparse", "json"} & loaded
    loaded = _imported(["-m", "modpairs", "twist", "X", "2", "--model", str(EXAMPLE), "--machine"])
    assert "json" in loaded and "argparse" not in loaded


def test_token_module_loads_only_off_the_canonical_path(tmp_path):
    # dsl.parse imports the token path only where the matcher stops early
    assert "modpairs.tokens" not in _modules("import modpairs; ")
    canonical = tmp_path / "canonical.lp"
    canonical.write_text(print_model(random_model(random.Random(11))))
    loaded = _imported(["-m", "modpairs", "check-all", "--model", str(canonical), "--machine"])
    assert "modpairs.dsl" in loaded and "modpairs.tokens" not in loaded
    # the example spells divisors spaced, which only the token parser reads
    loaded = _imported(["-m", "modpairs", "check-all", "--model", str(EXAMPLE), "--machine"])
    assert "modpairs.tokens" in loaded


def test_q_rationals_gives_fractions():
    q = QPair(4, Pair(Chart(("x", "y")), Divisor((2, 3))))
    assert q_rationals(q) == (Fraction(1, 2), Fraction(3, 4))
    assert all(type(r) is Fraction for r in q_rationals(q))
