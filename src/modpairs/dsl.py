"""Text format for declaring pairs, maps, correspondences, levelled pairs and blowups.

Grammar, one declaration per statement, ``#`` starting a line comment,
whitespace insensitive, all integers non-negative and written with at most
``MAX_INT_DIGITS`` ASCII digits::

    pair NAME { dim INT; coords a b c; divisor {a: INT, ...} }
    map NAME : SRC -> DST { y <- x1^2 * x2; ... }
    corr NAME : SRC -> DST { point LABEL { nx INT; ny INT; ex INT; ey INT } ... }
    corr NAME monomial(A, B, NX, NY)
    qpair NAME = (LEVEL, PAIR)
    blowup NAME on PAIR center { a, b }

Names are unique per namespace and references resolve to earlier
declarations.  The parser recovers at statement boundaries, so one run
reports every malformed statement.  ``print_model`` emits the canonical
form: declaration order preserved, divisor entries in coordinate order
with zeros omitted; parsing it back gives a structurally equal model.
This module holds the declarations, ``parse``, the printer and the matcher
that reads statements in that spelling whole, each distinct chart once per
parse, shared by the pairs declared on it.  Any other spelling, such as
``divisor { a: 1 }``, is accepted too and read by the token parser of
``modpairs.tokens``, which makes every diagnostic; ``parse`` imports it only
when the matcher stops before the end of the text, so a canonical model
never loads it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .blowup import BlowupSpec
from .correspondences import CorrLocalRecord, CurveCorr, NonConstantCorr, from_monomial_param
from .pairs import Chart, Divisor, MonomialMap, Pair, PairMap, Value, _setters, format_divisor
from .qdivisors import QPair


class Diagnostic(Value):
    """One problem in an input text, with a source span the text contains."""

    __slots__ = ("severity", "line", "column", "length", "message", "code")

    def __init__(self, severity: str, line: int, column: int, length: int, message: str, code: str):
        _diag_severity(self, severity)  # "error" | "warning"
        _diag_line(self, line)          # 1-based
        _diag_column(self, column)      # 1-based
        _diag_length(self, length)
        _diag_message(self, message)
        _diag_code(self, code)


_diag_severity, _diag_line, _diag_column, _diag_length, _diag_message, _diag_code = _setters(Diagnostic)


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
    __slots__ = ("name", "corr", "src", "dst", "monomial")

    def __init__(self, name: str, corr: CurveCorr, src: str | None = None, dst: str | None = None,
                 monomial: tuple[int, int, int, int] | None = None):
        _corrdecl_name(self, name)
        _corrdecl_corr(self, corr)
        _corrdecl_src(self, src)
        _corrdecl_dst(self, dst)
        _corrdecl_monomial(self, monomial)


_corrdecl_name, _corrdecl_corr, _corrdecl_src, _corrdecl_dst, _corrdecl_monomial = _setters(CorrDecl)


class QPairDecl(Value):
    __slots__ = ("name", "pair_name", "qpair")

    def __init__(self, name: str, pair_name: str, qpair: QPair):
        _qpairdecl_name(self, name)
        _qpairdecl_pair_name(self, pair_name)
        _qpairdecl_qpair(self, qpair)


_qpairdecl_name, _qpairdecl_pair_name, _qpairdecl_qpair = _setters(QPairDecl)


class BlowupDecl(Value):
    __slots__ = ("name", "pair_name", "center_coords", "spec")

    def __init__(self, name: str, pair_name: str, center_coords: tuple[str, ...], spec: BlowupSpec):
        _blowupdecl_name(self, name)
        _blowupdecl_pair_name(self, pair_name)
        _blowupdecl_center_coords(self, center_coords)  # in chart coordinate order
        _blowupdecl_spec(self, spec)


_blowupdecl_name, _blowupdecl_pair_name, _blowupdecl_center_coords, _blowupdecl_spec = _setters(BlowupDecl)


Decl = PairDecl | MapDecl | CorrDecl | QPairDecl | BlowupDecl
# each declaration kind and the keyword that opens its statement
KEYWORDS = {PairDecl: "pair", MapDecl: "map", CorrDecl: "corr", QPairDecl: "qpair", BlowupDecl: "blowup"}


class Model(Value):
    """Ordered declarations; equality is structural on the declaration list.

    No name index is kept: ``namespace`` scans ``decls`` on each call.  The
    CLI looks up at most two names per command and ``check-all`` and the
    benchmark iterate ``decls``."""

    __slots__ = ("decls",)

    def __init__(self, decls: tuple[Decl, ...] = ()):
        _model_decls(self, decls)

    def namespace(self, kind: type) -> Mapping[str, Decl]:
        """Read-only view of the declarations of one kind, by name."""
        return MappingProxyType({d.name: d for d in self.decls if type(d) is kind})


(_model_decls,) = _setters(Model)


# --- statement matcher -------------------------------------------------------

# Longer literals are rejected (E012): every number derived from two of them
# (a product, a ceiling ratio) then stays within Python's default limit of
# 4 300 digits on int/str conversion.
MAX_INT_DIGITS = 1000
# blanks and comments, skipped between statements here and between tokens by
# the lexer (``tokens._TOKEN``)
_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_GAP = re.compile(_SKIP)


class _Matcher:
    """The state of one parse, shared by both readers: the declarations so far
    (``decls``), by kind and name (``names``), and one chart with its coordinate
    index per distinct coordinate list (``charts``).  ``match`` reads canonical
    statements whole; ``accept`` records what it or the token parser reads."""

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

    # whole statements: each reader builds the declaration the token parser
    # would; its lookups, of names and of coordinates in a chart's index, and
    # the value constructors raise on most faults, and it returns None on the
    # few that nothing else finds, marked by their codes

    def _whole_pair(self, m) -> Decl | None:
        name, dim, coords, entries = m.groups()
        (chart, index), entries = self._chart(coords[1:]), _ENTRY.findall(entries)  # coords has a leading " "
        if int(dim) != len(index) or len(dict(entries)) != len(entries):  # E030, E033
            return None
        mults = [0] * len(index)
        for coord, mult in entries:
            mults[index[coord]] = int(mult)
        return PairDecl(name, Pair(chart, Divisor(tuple(mults))))

    def _whole_map(self, m) -> Decl | None:
        name, src, dst, assigns = m.groups()
        s, d = self.names[PairDecl][src].pair, self.names[PairDecl][dst].pair
        src_index, dst_index, rows = self._index(s), self._index(d), {}
        for target, coord, exp in _FACTOR.findall(assigns or ""):
            if target:
                if target not in dst_index or target in rows:  # E032, E041
                    return None
                row = rows[target] = [0] * len(src_index)
            if coord:  # "" in the empty monomial 1
                row[src_index[coord]] += int(exp or 1)
        matrix = tuple(rows[target] for target in d.chart.coords)
        return MapDecl(name, src, dst, PairMap(MonomialMap(s.chart, d.chart, matrix), s, d))

    def _whole_corr(self, m) -> Decl | None:
        name, a, b, n_x, n_y, src, dst, points = m.groups()
        if a is not None:
            a, b, n_x, n_y = int(a), int(b), int(n_x), int(n_y)
            return CorrDecl(name, from_monomial_param(a, b, n_x, n_y), monomial=(a, b, n_x, n_y))
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
        index = self._index(pair)
        indices = {index[c] for c in center}
        if len(indices) != len(center):  # E071
            return None
        coords = tuple(pair.chart.coords[i] for i in sorted(indices))
        return BlowupDecl(name, pair_name, coords, BlowupSpec(pair, frozenset(indices)))


# A statement spelled exactly as ``format_decl`` prints it is matched whole by
# one pattern per form, which also takes the blanks and comments after it.
# Names start with an ASCII letter or ``_``, and a literal longer than
# MAX_INT_DIGITS fails the pattern at the piece after it.

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
        return Model(tuple(matcher.decls))
    from .tokens import read_from

    return read_from(matcher, text, start)


# --- canonical printer -------------------------------------------------------

def format_monomial(chart: Chart, exps: tuple[int, ...]) -> str:
    """``x^2 * y`` over the chart's coordinates, or ``1`` for the empty monomial."""
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(chart.coords, exps)
        if e > 0
    ]
    return " * ".join(parts) if parts else "1"


def format_assignments(m: MonomialMap) -> str:
    """``y <- x^2; z <- 1``: each target coordinate's monomial over the source."""
    return "; ".join(
        f"{name} <- {format_monomial(m.source, row)}" for name, row in zip(m.target.coords, m.expo)
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
    """Canonical text of a model; parsing it back reproduces the model."""
    if not model.decls:
        return ""
    return "\n".join(format_decl(d) for d in model.decls) + "\n"
