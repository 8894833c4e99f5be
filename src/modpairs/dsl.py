"""Text format for declaring pairs, maps, correspondences, levelled pairs and blowups.

Grammar, one declaration per statement, ``#`` starting a line comment,
whitespace insensitive, all integers non-negative and written with at most
``MAX_INT_DIGITS`` ASCII digits::

    pair NAME { dim INT; coords a b c; divisor { a: INT, ... } }
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
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .blowup import BlowupSpec
from .correspondences import CorrLocalRecord, CurveCorr, NonConstantCorr, from_monomial_param
from .pairs import Chart, Divisor, MonomialMap, Pair, PairMap, Value, format_divisor, setfield
from .qdivisors import QPair


class Diagnostic(Value):
    """One problem in an input text, with a source span the text contains."""

    __slots__ = ("severity", "line", "column", "length", "message", "code")

    def __init__(self, severity: str, line: int, column: int, length: int, message: str, code: str):
        setfield(self, "severity", severity)  # "error" | "warning"
        setfield(self, "line", line)          # 1-based
        setfield(self, "column", column)      # 1-based
        setfield(self, "length", length)
        setfield(self, "message", message)
        setfield(self, "code", code)


def format_diagnostic(d: Diagnostic) -> str:
    return f"{d.line}:{d.column}: {d.severity}: {d.message} [{d.code}]"


class PairDecl(Value):
    __slots__ = ("name", "pair")

    def __init__(self, name: str, pair: Pair):
        setfield(self, "name", name)
        setfield(self, "pair", pair)


class MapDecl(Value):
    __slots__ = ("name", "src", "dst", "pair_map")

    def __init__(self, name: str, src: str, dst: str, pair_map: PairMap):
        setfield(self, "name", name)
        setfield(self, "src", src)
        setfield(self, "dst", dst)
        setfield(self, "pair_map", pair_map)


class CorrDecl(Value):
    __slots__ = ("name", "corr", "src", "dst", "monomial")

    def __init__(self, name: str, corr: CurveCorr, src: str | None = None, dst: str | None = None,
                 monomial: tuple[int, int, int, int] | None = None):
        setfield(self, "name", name)
        setfield(self, "corr", corr)
        setfield(self, "src", src)
        setfield(self, "dst", dst)
        setfield(self, "monomial", monomial)


class QPairDecl(Value):
    __slots__ = ("name", "pair_name", "qpair")

    def __init__(self, name: str, pair_name: str, qpair: QPair):
        setfield(self, "name", name)
        setfield(self, "pair_name", pair_name)
        setfield(self, "qpair", qpair)


class BlowupDecl(Value):
    __slots__ = ("name", "pair_name", "center_coords", "spec")

    def __init__(self, name: str, pair_name: str, center_coords: tuple[str, ...], spec: BlowupSpec):
        setfield(self, "name", name)
        setfield(self, "pair_name", pair_name)
        setfield(self, "center_coords", center_coords)  # in chart coordinate order
        setfield(self, "spec", spec)


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
        setfield(self, "decls", decls)

    def namespace(self, kind: type) -> Mapping[str, Decl]:
        """Read-only view of the declarations of one kind, by name."""
        return MappingProxyType({d.name: d for d in self.decls if type(d) is kind})

    @property
    def pairs(self) -> Mapping[str, PairDecl]:
        return self.namespace(PairDecl)

    @property
    def maps(self) -> Mapping[str, MapDecl]:
        return self.namespace(MapDecl)

    @property
    def corrs(self) -> Mapping[str, CorrDecl]:
        return self.namespace(CorrDecl)

    @property
    def qpairs(self) -> Mapping[str, QPairDecl]:
        return self.namespace(QPairDecl)

    @property
    def blowups(self) -> Mapping[str, BlowupDecl]:
        return self.namespace(BlowupDecl)


# --- lexer -----------------------------------------------------------------

# Longer literals are rejected (E012): every number derived from two of them
# (a product, a ceiling ratio) then stays within Python's default limit of
# 4 300 digits on int/str conversion.
MAX_INT_DIGITS = 1000
_TOP = tuple(KEYWORDS.values())
_PUNCT = frozenset(("->", "<-", "{", "}", "(", ")", ":", ";", ",", "=", "^", "*"))

# One match per token, whitespace and comments skipped inside the match; the
# text of a token is the only group, and the empty end of the text is the
# last match.  ``\w`` is exactly ``str.isalnum()`` plus ``_``.  A single
# character outside a word is punctuation or a stray character.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(->|<-|[0-9]+|\w+|.|\Z)", re.DOTALL)


def _plain(tok: str) -> bool:
    """Kept as it is: the end, punctuation, a name or a literal within the bound."""
    first = tok[:1]
    return (
        tok in _PUNCT or first.isalpha() or first == "_" or not tok
        or ("0" <= first <= "9" and len(tok) <= MAX_INT_DIGITS)
    )


def _pieces(tok: str) -> list[tuple[int, str, str | None]]:
    """(offset in ``tok``, text, code) of the parts of a token that is not plain:
    code None for a token, "E001" for a stray character, "E012" for an over-long
    literal (still a token).  A word led by a numeral other than an ASCII digit
    (``²x``, only in a text that is not ASCII) is lexed on from its second character."""
    pieces, i = [], 0
    while i < len(tok):
        piece = _TOKEN.match(tok, i)[1]
        if _plain(piece):
            code = None
        elif "0" <= piece[0] <= "9":
            code = "E012"
        else:
            piece, code = piece[0], "E001"
        pieces.append((i, piece, code))
        i += len(piece)
    return pieces


def _lex(text: str) -> tuple[list[str], set[str]]:
    """The token texts of ``text``, ending with "", and the set of matched
    texts that are not plain (each gives the lexer's diagnostics)."""
    tokens = _TOKEN.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()  # trailing blanks match with the end, then the end again
    odd = {tok for tok in set(tokens) if not _plain(tok)}
    if odd:
        kept = []
        for tok in tokens:
            if tok in odd:
                kept += [piece for _, piece, code in _pieces(tok) if code != "E001"]
            else:
                kept.append(tok)
        tokens = kept
    return tokens, odd


def _diagnose(text: str, odd: set[str], problems: list) -> list[Diagnostic]:
    """The lexer's diagnostics, then the parser's ``problems``, placed in the text.

    A problem is (token index, length, message, code).  One pass over the
    text finds the offsets in increasing order, counting the newlines between
    them; it stops after the last problem when the lexer found nothing.
    """
    found, places = [], {}
    wanted = {at for at, _, _, _ in problems}
    last, index = max(wanted, default=-1), 0
    line, line_start, seen = 1, 0, 0

    def place(offset: int) -> tuple[int, int]:
        nonlocal line, line_start, seen
        crossed = text.count("\n", seen, offset)
        if crossed:
            line += crossed
            line_start = text.rfind("\n", seen, offset) + 1
        seen = offset
        return line, offset - line_start + 1

    for m in _TOKEN.finditer(text):
        tok = m[1]
        if tok in odd:
            start = m.start(1)
            for at, piece, code in _pieces(tok):
                if code == "E001":
                    found.append((*place(start + at), 1, f"unexpected character {piece!r}", code))
                    continue
                places[index] = place(start + at)
                if code:
                    message = f"integer literal longer than {MAX_INT_DIGITS} digits"
                    found.append((*places[index], len(piece), message, code))
                index += 1
            continue
        if index in wanted:
            places[index] = place(m.start(1))
        elif index > last and not odd:
            break
        index += 1
    diags = found + [(*places[at], *rest) for at, *rest in problems]
    return [Diagnostic("error", *d) for d in diags]


def _describe(tok: str) -> str:
    if not tok:
        return "end of input"
    if tok in _PUNCT:
        return f"'{tok}'"
    if "0" <= tok[0] <= "9":
        return f"integer '{tok}'"
    return f"name '{tok}'"


# --- parser ----------------------------------------------------------------

class _ParseAbort(Exception):
    pass


class _Parser:
    """Reads the token texts by index; ``i`` never moves past the end ("")."""

    def __init__(self, tokens: list[str], problems: list):
        self.toks = tokens
        self.problems = problems
        self.i = 0
        self.decls: list[Decl] = []
        # declarations accepted so far, by kind and name, for duplicate names
        # and references to earlier declarations
        self.names: dict[type, dict[str, Decl]] = {kind: {} for kind in KEYWORDS}

    def fail(self, at: int, code: str, message: str):
        self.problems.append((at, len(self.toks[at]), message, code))
        raise _ParseAbort

    def expect(self, text: str, what: str = "") -> int:
        """Step over the punctuation or keyword ``text``; its index."""
        at = self.i
        if self.toks[at] != text:
            self.fail(at, "E011", f"expected {what or repr(text)}, found {_describe(self.toks[at])}")
        self.i = at + 1
        return at

    def name(self, what: str) -> str:
        tok = self.toks[self.i]
        if not (tok[:1].isalpha() or tok[:1] == "_"):
            self.fail(self.i, "E011", f"expected {what}, found {_describe(tok)}")
        self.i += 1
        return tok

    def number(self, what: str) -> int:
        tok = self.toks[self.i]
        if not "0" <= tok[:1] <= "9":
            self.fail(self.i, "E011", f"expected {what}, found {_describe(tok)}")
        self.i += 1
        if len(tok) > MAX_INT_DIGITS:
            raise _ParseAbort  # already reported by the lexer (E012)
        return int(tok)

    def fresh_name(self, kind: type) -> str:
        noun = KEYWORDS[kind]
        name = self.name(f"a {noun} name")
        if name in self.names[kind]:
            self.fail(self.i - 1, "E020", f"duplicate {noun} name '{name}'")
        return name

    def resolve_pair(self, what: str = "pair") -> tuple[str, Pair]:
        name = self.name(f"a {what} name")
        decl = self.names[PairDecl].get(name)
        if decl is None:
            self.fail(self.i - 1, "E021", f"unknown pair '{name}'")
        return name, decl.pair

    def coord(self, chart: Chart, what: str) -> int:
        name = self.name(what)
        if name not in chart.coords:
            self.fail(self.i - 1, "E032", f"unknown coordinate '{name}'")
        return chart.index(name)

    def accept(self, decl: Decl):
        self.decls.append(decl)
        self.names[type(decl)][decl.name] = decl

    # statements

    def run(self) -> Model:
        toks = self.toks
        while tok := toks[self.i]:
            try:
                if tok not in _TOP:
                    self.fail(self.i, "E010", "expected a declaration ('pair', 'map', 'corr', "
                              f"'qpair' or 'blowup'), found {_describe(tok)}")
                getattr(self, "_stmt_" + tok)()
            except _ParseAbort:  # resynchronize at the next declaration
                while toks[self.i] and toks[self.i] not in _TOP:
                    self.i += 1
        return Model(tuple(self.decls))

    def _stmt_pair(self):
        toks = self.toks
        self.i += 1
        name = self.fresh_name(PairDecl)
        self.expect("{")
        self.expect("dim")
        dim_at, dim = self.i, self.number("the chart dimension")
        self.expect(";")
        self.expect("coords")
        first = self.i
        while toks[self.i][:1].isalpha() or toks[self.i][:1] == "_":
            self.i += 1
        coords = tuple(toks[first:self.i])
        self.expect(";", "';' after the coordinate list")
        if len(coords) != dim:
            self.fail(dim_at, "E030", f"dim {dim} does not match the {len(coords)} declared coordinate(s)")
        seen: set[str] = set()
        for at, coord in enumerate(coords, first):
            if coord in seen:
                self.fail(at, "E031", f"duplicate coordinate '{coord}'")
            seen.add(coord)
        chart = Chart(coords)
        mults = [0] * dim
        assigned: set[int] = set()
        if toks[self.i] == "divisor":
            self.i += 1
            self.expect("{")
            while toks[self.i] != "}":
                if assigned:
                    self.expect(",", "',' between divisor entries")
                idx = self.coord(chart, "a coordinate name")
                if idx in assigned:
                    self.fail(self.i - 1, "E033", f"coordinate '{toks[self.i - 1]}' appears twice in the divisor")
                assigned.add(idx)
                self.expect(":")
                mults[idx] = self.number("a multiplicity")
            self.i += 1
        self.expect("}", "'}' closing the pair declaration")
        self.accept(PairDecl(name, Pair(chart, Divisor(tuple(mults)))))

    def _monomial(self, chart: Chart) -> tuple[int, ...]:
        toks = self.toks
        exps = [0] * chart.dim
        at = self.i
        if "0" <= toks[at][:1] <= "9":
            if self.number("") != 1:
                self.fail(at, "E042", "only the literal 1 denotes the empty monomial")
            return tuple(exps)
        while True:
            idx = self.coord(chart, "a source coordinate")
            e = 1
            if toks[self.i] == "^":
                self.i += 1
                e = self.number("an exponent")
            exps[idx] += e
            if toks[self.i] != "*":
                return tuple(exps)
            self.i += 1

    def _stmt_map(self):
        toks = self.toks
        self.i += 1
        name = self.fresh_name(MapDecl)
        self.expect(":")
        src_name, src_pair = self.resolve_pair("source pair")
        self.expect("->")
        dst_name, dst_pair = self.resolve_pair("destination pair")
        self.expect("{")
        rows: dict[int, tuple[int, ...]] = {}
        while toks[self.i] != "}":
            j = self.coord(dst_pair.chart, "a target coordinate")
            if j in rows:
                self.fail(self.i - 1, "E041", f"target coordinate '{toks[self.i - 1]}' assigned twice")
            self.expect("<-")
            rows[j] = self._monomial(src_pair.chart)
            if toks[self.i] != "}":
                self.expect(";", "';' between assignments")
        close = self.expect("}")
        for j, cname in enumerate(dst_pair.chart.coords):
            if j not in rows:
                self.fail(close, "E040", f"map does not assign target coordinate '{cname}'")
        matrix = tuple(rows[j] for j in range(dst_pair.chart.dim))
        pair_map = PairMap(MonomialMap(src_pair.chart, dst_pair.chart, matrix), src_pair, dst_pair)
        self.accept(MapDecl(name, src_name, dst_name, pair_map))

    def _endpoint(self, what: str) -> tuple[str, Pair]:
        name, pair = self.resolve_pair(what)
        if pair.chart.dim != 1:
            self.fail(self.i - 1, "E080", f"correspondence endpoint '{name}' must be a one-dimensional pair")
        return name, pair

    def _stmt_corr(self):
        toks = self.toks
        self.i += 1
        name = self.fresh_name(CorrDecl)
        if toks[self.i] == "monomial":
            self.i += 1
            self.expect("(")
            a_at, a = self.i, self.number("the first exponent")
            self.expect(",")
            b_at, b = self.i, self.number("the second exponent")
            self.expect(",")
            n_x = self.number("the source multiplicity")
            self.expect(",")
            n_y = self.number("the destination multiplicity")
            self.expect(")")
            if a < 1:
                self.fail(a_at, "E052", "parametrization exponents must be positive")
            if b < 1:
                self.fail(b_at, "E052", "parametrization exponents must be positive")
            corr = from_monomial_param(a, b, n_x, n_y)
            self.accept(CorrDecl(name, corr, monomial=(a, b, n_x, n_y)))
            return
        self.expect(":", "':' or 'monomial' after the corr name")
        src_name, _ = self._endpoint("source pair")
        self.expect("->")
        dst_name, _ = self._endpoint("destination pair")
        self.expect("{")
        records: list[CorrLocalRecord] = []
        labels: set[str] = set()
        while toks[self.i] == "point":
            self.i += 1
            at = self.i
            label = toks[at]
            if not label or label in _PUNCT:
                self.fail(at, "E011", f"expected a point label, found {_describe(label)}")
            self.i += 1
            if label in labels:
                self.fail(at, "E050", f"duplicate point label '{label}'")
            labels.add(label)
            self.expect("{")
            self.expect("nx")
            n_x = self.number("nx")
            self.expect(";")
            self.expect("ny")
            n_y = self.number("ny")
            self.expect(";")
            self.expect("ex")
            ex_at, e_x = self.i, self.number("ex")
            self.expect(";")
            self.expect("ey")
            ey_at, e_y = self.i, self.number("ey")
            if toks[self.i] == ";":
                self.i += 1
            self.expect("}")
            if e_x < 1:
                self.fail(ex_at, "E051", "ramification degrees must be positive")
            if e_y < 1:
                self.fail(ey_at, "E051", "ramification degrees must be positive")
            records.append(CorrLocalRecord(label, n_x, n_y, e_x, e_y))
        self.expect("}")
        self.accept(CorrDecl(name, NonConstantCorr(tuple(records)), src=src_name, dst=dst_name))

    def _stmt_qpair(self):
        self.i += 1
        name = self.fresh_name(QPairDecl)
        self.expect("=")
        self.expect("(")
        level_at, level = self.i, self.number("the level")
        self.expect(",")
        pair_name, pair = self.resolve_pair()
        self.expect(")")
        if level < 1:
            self.fail(level_at, "E060", "level must be a positive integer")
        self.accept(QPairDecl(name, pair_name, QPair(level, pair)))

    def _stmt_blowup(self):
        toks = self.toks
        self.i += 1
        name = self.fresh_name(BlowupDecl)
        self.expect("on")
        pair_name, pair = self.resolve_pair()
        center_at = self.expect("center")
        self.expect("{")
        indices: set[int] = set()
        while toks[self.i] != "}":
            if indices:
                self.expect(",", "',' between center coordinates")
            idx = self.coord(pair.chart, "a coordinate name")
            if idx in indices:
                self.fail(self.i - 1, "E071", f"coordinate '{toks[self.i - 1]}' appears twice in the center")
            indices.add(idx)
        self.i += 1
        if not indices:
            self.fail(center_at, "E070", "blowup center must name at least one coordinate")
        coords = tuple(pair.chart.coords[i] for i in sorted(indices))
        self.accept(BlowupDecl(name, pair_name, coords, BlowupSpec(pair, frozenset(indices))))


def parse(text: str) -> Model | list[Diagnostic]:
    """Parse a declaration text into a model, or report every problem found."""
    tokens, odd = _lex(text)
    problems: list = []
    model = _Parser(tokens, problems).run()
    if odd or problems:
        return _diagnose(text, odd, problems)
    return model


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
