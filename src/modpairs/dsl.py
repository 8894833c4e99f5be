"""Text format for declaring pairs, maps, correspondences, levelled pairs and blowups.

Grammar, one declaration per statement, ``#`` starting a line comment,
whitespace insensitive::

    pair NAME { dim INT; coords a b c; divisor {a: INT, ...} }
    map NAME : SRC -> DST { y <- x1^2 * x2; ... }
    corr NAME : SRC -> DST { point LABEL { nx INT; ny INT; ex INT; ey INT } ... }
    corr NAME monomial(A, B, NX, NY)
    qpair NAME = (LEVEL, PAIR)
    blowup NAME on PAIR center { a, b }

A name (NAME, SRC, DST, PAIR, a coordinate) is a letter, Unicode included,
or ``_``, then word characters; an integer literal (INT, A, LEVEL, ...) is
ASCII digits, at most ``MAX_INT_DIGITS`` (300) of them, so that every answer
converts to text under any digit limit Python accepts; a point LABEL is a
name or an integer literal.  The matcher reads only names led by an ASCII
letter or ``_``, and the token parser every other name.

Names are unique per namespace and references resolve to earlier
declarations.  The parser recovers at statement boundaries, so one run
reports every malformed statement.  ``print_model`` emits the canonical
form: declaration order preserved, divisor entries in coordinate order
with zeros omitted; parsing it back gives a structurally equal model.  That
holds because a model is what its text reads back as: ``Model`` reads each
declaration's line back through the readers and refuses one that gives a
diagnostic or another declaration, so the grammar's rules live in the
readers alone; ``parse`` builds past that check.  This module holds the
declarations, ``parse``, the printer and the matcher that reads statements
in that spelling whole, each distinct chart once per parse, shared by the
pairs declared on it.  Any other spelling, such as
``divisor { a: 1 }``, is accepted too and read by the token parser of
``modpairs.tokens``, which makes every diagnostic; ``parse`` imports it only
when the matcher stops before the end of the text, so a canonical model
never loads it.  Both readers only read, resolve and check: this module
builds every declaration, a pair or a map by one builder they share.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .blowup import BlowupSpec
from .correspondences import CorrLocalRecord, NonConstantCorr, from_monomial_param
from .pairs import (Chart, MonomialMap, Pair, PairMap, StructureError, Value, _divisor, _monomial_map, _new, _pair,
                    _setters, format_divisor)
from .qdivisors import QPair


class Diagnostic(Value):
    """One problem in an input text, with a source span the text contains.

    Every diagnostic is an error: ``severity`` is the class constant
    ``"error"``, which ``format_diagnostic`` prints."""

    __slots__ = ("line", "column", "length", "message", "code")
    severity = "error"

    def __init__(self, line: int, column: int, length: int, message: str, code: str):
        _diag_line(self, line)      # 1-based
        _diag_column(self, column)  # 1-based
        _diag_length(self, length)
        _diag_message(self, message)
        _diag_code(self, code)


_diag_line, _diag_column, _diag_length, _diag_message, _diag_code = _setters(Diagnostic)


def format_diagnostic(d: Diagnostic) -> str:
    return f"{d.line}:{d.column}: {d.severity}: {d.message} [{d.code}]"


class PairDecl(Value):
    __slots__ = ("name", "pair")

    def __init__(self, name: str, pair: Pair):
        _pairdecl_name(self, name)
        _pairdecl_pair(self, pair)


_pairdecl_name, _pairdecl_pair = _setters(PairDecl)


class MapDecl(Value):
    __slots__ = ("name", "src", "dst", "pair_map")

    def __init__(self, name: str, src: str, dst: str, pair_map: PairMap):
        _mapdecl_name(self, name)
        _mapdecl_src(self, src)
        _mapdecl_dst(self, dst)
        _mapdecl_pair_map(self, pair_map)


_mapdecl_name, _mapdecl_src, _mapdecl_dst, _mapdecl_pair_map = _setters(MapDecl)


class CorrDecl(Value):
    """A correspondence given by its records, between the pairs ``src`` and
    ``dst``, or with neither as ``from_monomial_param``'s curve."""

    __slots__ = ("name", "corr", "src", "dst")

    def __init__(self, name: str, corr: NonConstantCorr, src: str | None = None, dst: str | None = None):
        if type(corr) is not NonConstantCorr:  # no statement declares a constant correspondence
            raise StructureError(f"a declared correspondence must be a NonConstantCorr, got {corr!r}")
        _corrdecl_name(self, name)
        _corrdecl_corr(self, corr)
        _corrdecl_src(self, src)
        _corrdecl_dst(self, dst)

    @property
    def monomial(self) -> tuple[int, int, int, int] | None:
        """``(a, b, n_x, n_y)`` when this is ``from_monomial_param(a, b, n_x, n_y)``
        with neither endpoint, as ``corr NAME monomial(A, B, NX, NY)`` reads; else None."""
        records = self.corr.records
        if self.src is None and self.dst is None and len(records) == 1:
            r = records[0]
            if r.label == "0":
                return r.e_x, r.e_y, r.n_x, r.n_y
        return None


_corrdecl_name, _corrdecl_corr, _corrdecl_src, _corrdecl_dst = _setters(CorrDecl)


class QPairDecl(Value):
    __slots__ = ("name", "pair_name", "qpair")

    def __init__(self, name: str, pair_name: str, qpair: QPair):
        _qpairdecl_name(self, name)
        _qpairdecl_pair_name(self, pair_name)
        _qpairdecl_qpair(self, qpair)


_qpairdecl_name, _qpairdecl_pair_name, _qpairdecl_qpair = _setters(QPairDecl)


class BlowupDecl(Value):
    __slots__ = ("name", "pair_name", "spec")

    def __init__(self, name: str, pair_name: str, spec: BlowupSpec):
        _blowupdecl_name(self, name)
        _blowupdecl_pair_name(self, pair_name)
        _blowupdecl_spec(self, spec)

    @property
    def center_coords(self) -> tuple[str, ...]:
        """The center's coordinates, in chart order."""
        return tuple(map(self.spec.pair.chart.coords.__getitem__, sorted(self.spec.center)))


_blowupdecl_name, _blowupdecl_pair_name, _blowupdecl_spec = _setters(BlowupDecl)


Decl = PairDecl | MapDecl | CorrDecl | QPairDecl | BlowupDecl
# each declaration kind and the keyword that opens its statement
KEYWORDS = {PairDecl: "pair", MapDecl: "map", CorrDecl: "corr", QPairDecl: "qpair", BlowupDecl: "blowup"}


class Model(Value):
    """Ordered declarations; equality is structural on the declaration list.

    A model is what its text reads back as: the constructor formats each
    declaration and reads its line back, after the lines of those before it,
    by the readers ``parse`` uses, and raises ``StructureError`` for the first
    whose line gives a diagnostic or reads back as anything but that one
    declaration.  The message quotes the line, then the first diagnostic or
    that it reads back as another declaration; a value that is no
    declaration raises ``TypeError``, as ``format_decl`` does.  ``parse``
    builds its models past this check, by ``_model``.

    No name index is kept: ``namespace`` scans ``decls`` on each call.  The
    CLI looks up at most two names per command and ``check-all`` and the
    benchmark iterate ``decls``."""

    __slots__ = ("decls",)

    def __init__(self, decls: tuple[Decl, ...] = ()):
        matcher = _Matcher()
        for decl in decls:
            line, count = format_decl(decl), len(matcher.decls)
            start = matcher.match(line)
            if start < len(line):
                from .tokens import read_from

                read = read_from(matcher, line, start)
                if type(read) is list:
                    raise StructureError(f"{line!r}: {format_diagnostic(read[0])}")
            # exactly one declaration, as a name may spell a second statement, and this one
            if len(matcher.decls) != count + 1 or matcher.decls[-1] != decl:
                raise StructureError(f"{line!r}: reads back as another declaration")
        _model_decls(self, decls)

    def namespace(self, kind: type) -> Mapping[str, Decl]:
        """Read-only view of the declarations of one kind, by name."""
        return MappingProxyType({d.name: d for d in self.decls if type(d) is kind})


(_model_decls,) = _setters(Model)


def _model(decls: tuple[Decl, ...]) -> Model:
    """A model of what a reader read, past the read-back of ``Model.__init__``."""
    model = _new(Model)
    _model_decls(model, decls)
    return model


# --- declaration builders, one per form derived from what is read ------------
# A qpair, a corr or a blowup derives nothing: each reader calls its constructors.


def _pair_decl(name: str, chart: Chart, mults: dict[int, int]) -> PairDecl:
    """A pair from ``{coordinate index: multiplicity}``, 0 where nothing is given."""
    dense = [0] * len(chart.coords)
    for i, m in mults.items():
        dense[i] = m
    return PairDecl(name, _pair(chart, _divisor(tuple(dense))))  # each read from digits, so past the checks


def _map_decl(name: str, src: str, s: Pair, dst: str, d: Pair,
              monomials: dict[int, list[tuple[int, int]]]) -> MapDecl:
    """A map from each target index's ``(source index, exponent)`` factors as read."""
    rows = []
    for j in range(len(d.chart.coords)):
        factors = monomials[j]  # made a row: exponents summed per coordinate, ``^0`` dropped, sorted
        if len(factors) < 2:
            rows.append(() if not factors or not factors[0][1] else (factors[0],))
            continue
        exps = dict(factors)
        if len(exps) < len(factors):  # a coordinate repeated, as in ``x * x``
            exps = {}
            for i, e in factors:
                exps[i] = exps.get(i, 0) + e
        row = sorted(exps.items())
        rows.append(tuple([f for f in row if f[1]] if 0 in exps.values() else row))
    return MapDecl(name, src, dst, PairMap(_monomial_map(s.chart, d.chart, tuple(rows)), s, d))


# --- statement matcher -------------------------------------------------------

# Longer literals are rejected (E012).  Python refuses int/str conversion past
# ``sys.get_int_max_str_digits()``, which no setting can bring below
# ``sys.int_info.str_digits_check_threshold``, 640 digits.  Every number that
# ``parse`` or the CLI converts or prints is a literal or at most a sum of
# products of two literals (a pullback multiplicity, a twist, a ceiling ratio,
# a corr twist, an exceptional multiplicity), so it stays within 600 digits
# plus the log of its term count, under that floor whatever the setting.
MAX_INT_DIGITS = 300
# blanks and comments, skipped between statements here and between tokens by
# the lexer (``tokens._TOKEN``)
_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_GAP = re.compile(_SKIP)


class _Matcher:
    """The state of one parse, shared by both readers: the declarations so far
    (``decls``), by kind and name (``names``), and one chart with its coordinate
    index per distinct coordinate list (``charts``).  ``match`` reads canonical
    statements whole, built as the token parser's are, by the builders above
    or the declaration constructors; ``accept`` records what either reader
    builds."""

    def __init__(self):
        self.decls: list[Decl] = []
        self.names: dict[type, dict[str, Decl]] = {kind: {} for kind in KEYWORDS}
        # a chart and its {coordinate: index}, by its coordinates joined with " ",
        # as the readers find them, and by the chart's own coordinate tuple
        self.charts: dict[str | tuple[str, ...], tuple[Chart, dict[str, int]]] = {}

    def accept(self, decl: Decl):
        self.decls.append(decl)
        self.names[type(decl)][decl.name] = decl

    def match(self, text: str, pos: int = 0) -> int:
        """Accept the canonically spelled statements of ``text`` from ``pos`` on;
        the offset of the first other statement, or ``len(text)``."""
        names, forms, accept = self.names, _FORMS, self.accept
        pos, end = _GAP.match(text, pos).end(), len(text)  # past the blanks and comments
        while pos < end:
            form = forms.get(text[pos])
            m = form and form[0].match(text, pos)
            try:
                decl = m and form[1](self, m)
            except (LookupError, ValueError):  # a lookup or a value constructor refused it
                break
            if decl is None or decl.name in names[type(decl)]:
                break
            accept(decl)
            pos = m.end()
        return pos

    def _chart(self, key: str) -> tuple[Chart, dict[str, int]]:
        """The chart on the coordinates ``key`` names and its coordinate index, built at the first ask."""
        entry = self.charts.get(key)
        if entry is None:
            chart = Chart(key.split())
            entry = chart, {c: i for i, c in enumerate(chart.coords)}
            self.charts[key] = self.charts[chart.coords] = entry
        return entry

    def _index(self, pair: Pair) -> dict[str, int]:
        return self.charts[pair.chart.coords][1]

    # whole statements: the lookups, of names and of coordinates in a chart's
    # index, and the value constructors raise on most faults, and a reader
    # returns None on the few that nothing else finds, marked by their codes

    def _whole_pair(self, m) -> Decl | None:
        name, dim, coords, entries = m.groups()
        (chart, index), entries = self._chart(coords[1:]), _ENTRY.findall(entries)  # coords has a leading " "
        mults = {}
        for coord, mult in entries:
            mults[index[coord]] = int(mult)
        if int(dim) != len(index) or len(mults) != len(entries):  # E030, E033
            return None
        return _pair_decl(name, chart, mults)

    def _whole_map(self, m) -> Decl | None:
        name, src, dst, assigns = m.groups()
        s, d = self.names[PairDecl][src].pair, self.names[PairDecl][dst].pair
        src_index, dst_index, monomials = self._index(s), self._index(d), {}
        for target, coord, exp in _FACTOR.findall(assigns or ""):
            if target:
                j = dst_index[target]
                if j in monomials:  # E041
                    return None
                factors = monomials[j] = []
            if coord:  # "" in the empty monomial 1
                factors.append((src_index[coord], int(exp or 1)))
        return _map_decl(name, src, s, dst, d, monomials)

    def _whole_corr(self, m) -> Decl | None:
        name, a, b, n_x, n_y, src, dst, points = m.groups()
        if a is not None:
            return CorrDecl(name, from_monomial_param(int(a), int(b), int(n_x), int(n_y)))
        pairs = self.names[PairDecl]
        if len(pairs[src].pair.chart.coords) != 1 or len(pairs[dst].pair.chart.coords) != 1:  # E080
            return None
        records = (CorrLocalRecord(label, *map(int, values)) for label, *values in _RECORD.findall(points))
        return CorrDecl(name, NonConstantCorr(tuple(records)), src=src, dst=dst)

    def _whole_qpair(self, m) -> Decl:
        name, level, pair_name = m.groups()
        return QPairDecl(name, pair_name, QPair(int(level), self.names[PairDecl][pair_name].pair))

    def _whole_blowup(self, m) -> Decl | None:
        name, pair_name, center = m.groups()
        pair, center = self.names[PairDecl][pair_name].pair, center.split(", ")
        indices = set(map(self._index(pair).__getitem__, center))
        if len(indices) != len(center):  # E071
            return None
        return BlowupDecl(name, pair_name, BlowupSpec(pair, indices))


def _is_name(word: str) -> bool:
    """The name rule, which the lexer applies to every word (a run of ``\\w``,
    ``str.isalnum()`` or ``_``): a letter, Unicode included, or ``_`` first."""
    return word[0].isalpha() or word[0] == "_"


# A statement spelled exactly as ``format_decl`` prints it is matched whole by
# one pattern per form, which also takes the blanks and comments after it.
# ``_N`` and ``_I`` are the matcher's ASCII fast-path subset of the names and
# literals above: any other name, or a literal longer than MAX_INT_DIGITS,
# fails the pattern, and the token parser reads the statement.

_N = r"[A-Za-z_]\w*"
_I = rf"[0-9]{{1,{MAX_INT_DIGITS}}}"
_ASSIGN = rf"{_N} <- (?:1|{_N}(?:\^{_I})?(?: \* {_N}(?:\^{_I})?)*)"
_POINT = rf"point ({_N}|{_I}) \{{ nx ({_I}); ny ({_I}); ex ({_I}); ey ({_I}) \}}"
_POINT_SHAPE = _POINT.replace("(", "(?:")  # _N and _I hold no "("
_ENTRY = re.compile(rf"({_N}): ({_I})")
# one factor, after its assignment's target if it is the first
_FACTOR = re.compile(rf"(?:({_N}) <- )?(?:({_N})(?:\^({_I}))?|1)")
_RECORD = re.compile(_POINT)
# each form's pattern and reader, by the first letter of its keyword
_FORMS = {
    keyword[0]: (re.compile(f"{keyword} {form}{_SKIP}"), getattr(_Matcher, "_whole_" + keyword))
    for keyword, form in (
        ("pair", rf"({_N}) \{{ dim ({_I}); coords((?: {_N})*); divisor \{{((?:{_N}: {_I}(?:, {_N}: {_I})*)?)\}} \}}"),
        ("map", rf"({_N}) : ({_N}) -> ({_N}) \{{ (?:({_ASSIGN}(?:; {_ASSIGN})*) )?\}}"),
        ("corr", rf"({_N}) (?:monomial\(({_I}), ({_I}), ({_I}), ({_I})\)"
                 rf"|: ({_N}) -> ({_N}) \{{ ((?:{_POINT_SHAPE} )*)\}})"),
        ("qpair", rf"({_N}) = \(({_I}), ({_N})\)"),
        ("blowup", rf"({_N}) on ({_N}) center \{{ ({_N}(?:, {_N})*) \}}"),
    )
}


def parse(text: str) -> Model | list[Diagnostic]:
    """Parse a declaration text into a model, or report every problem found.

    Canonically spelled text is matched whole; the token path
    (``modpairs.tokens``) is loaded and reads the rest only where the
    matcher stops before the end.
    """
    matcher = _Matcher()
    start = matcher.match(text)
    if start == len(text):
        return _model(tuple(matcher.decls))
    from .tokens import read_from

    return read_from(matcher, text, start)


# --- canonical printer -------------------------------------------------------

def format_monomial(chart: Chart, row: tuple[tuple[int, int], ...]) -> str:
    """``x^2 * y`` from a map's sparse row over the chart's coordinates, or ``1`` for ``()``."""
    coords = chart.coords
    return " * ".join([coords[i] if e == 1 else f"{coords[i]}^{e}" for i, e in row]) or "1"


def format_assignments(m: MonomialMap) -> str:
    """``y <- x^2; z <- 1``: each target coordinate's monomial over the source."""
    return "; ".join(
        f"{name} <- {format_monomial(m.source, row)}" for name, row in zip(m.target.coords, m.rows)
    )


def _fmt_block(inner: str) -> str:
    return f"{{ {inner} }}" if inner else "{ }"


def format_decl(decl: Decl) -> str:
    """Canonical single-line rendering of one declaration."""
    if isinstance(decl, PairDecl):
        chart = decl.pair.chart
        coords = ("coords " + " ".join(chart.coords) if chart.coords else "coords") + ";"
        div = format_divisor(chart, decl.pair.divisor)
        return f"pair {decl.name} {{ dim {chart.dim}; {coords} divisor {div} }}"
    if isinstance(decl, MapDecl):
        assigns = format_assignments(decl.pair_map.map)
        return f"map {decl.name} : {decl.src} -> {decl.dst} {_fmt_block(assigns)}"
    if isinstance(decl, CorrDecl):
        if decl.monomial is not None:
            a, b, n_x, n_y = decl.monomial
            return f"corr {decl.name} monomial({a}, {b}, {n_x}, {n_y})"
        points = " ".join(
            f"point {r.label} {{ nx {r.n_x}; ny {r.n_y}; ex {r.e_x}; ey {r.e_y} }}"
            for r in decl.corr.records
        )
        return f"corr {decl.name} : {decl.src} -> {decl.dst} {_fmt_block(points)}"
    if isinstance(decl, QPairDecl):
        return f"qpair {decl.name} = ({decl.qpair.level}, {decl.pair_name})"
    if isinstance(decl, BlowupDecl):
        return f"blowup {decl.name} on {decl.pair_name} center {{ {', '.join(decl.center_coords)} }}"
    raise TypeError(f"not a declaration: {decl!r}")


def print_model(model: Model) -> str:
    """Canonical text of a model, one ``format_decl`` line per declaration;
    parsing it back reproduces the model, which ``Model`` checks when it is built."""
    return "".join([format_decl(decl) + "\n" for decl in model.decls])
