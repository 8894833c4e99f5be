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
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .blowup import BlowupSpec
from .correspondences import CorrLocalRecord, CurveCorr, NonConstantCorr, from_monomial_param
from .pairs import Chart, Divisor, MonomialMap, Pair, PairMap, format_divisor
from .qdivisors import QPair


@dataclass(frozen=True)
class Diagnostic:
    """One problem in an input text, with a source span the text contains."""

    severity: str  # "error" | "warning"
    line: int      # 1-based
    column: int    # 1-based
    length: int
    message: str
    code: str


def format_diagnostic(d: Diagnostic) -> str:
    return f"{d.line}:{d.column}: {d.severity}: {d.message} [{d.code}]"


@dataclass(frozen=True)
class PairDecl:
    name: str
    pair: Pair


@dataclass(frozen=True)
class MapDecl:
    name: str
    src: str
    dst: str
    pair_map: PairMap


@dataclass(frozen=True)
class CorrDecl:
    name: str
    corr: CurveCorr
    src: str | None = None
    dst: str | None = None
    monomial: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class QPairDecl:
    name: str
    pair_name: str
    qpair: QPair


@dataclass(frozen=True)
class BlowupDecl:
    name: str
    pair_name: str
    center_coords: tuple[str, ...]  # in chart coordinate order
    spec: BlowupSpec


Decl = PairDecl | MapDecl | CorrDecl | QPairDecl | BlowupDecl
_KINDS = (PairDecl, MapDecl, CorrDecl, QPairDecl, BlowupDecl)


@dataclass(frozen=True)
class Model:
    """Ordered declarations; equality is structural on the declaration list."""

    decls: tuple[Decl, ...] = field(default_factory=tuple)

    @cached_property
    def _names(self) -> dict[type, dict[str, Decl]]:
        # one name index per declaration kind, built on first use; ``parse``
        # hands over the index its parser built instead
        names = {kind: {} for kind in _KINDS}
        for d in self.decls:
            names[type(d)][d.name] = d
        return names

    def namespace(self, kind: type) -> Mapping[str, Decl]:
        """Read-only view of the declarations of one kind, by name."""
        return MappingProxyType(self._names[kind])

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
_TOP = ("pair", "map", "corr", "qpair", "blowup")

# One match per token: whitespace and comments are skipped inside the match,
# and the last match is the empty end of the text.  ``\w`` is exactly
# ``str.isalnum()`` plus ``_``, so a word is an identifier when its first
# character is a letter or ``_``; a word starting with any other numeral
# (``²``, ``٣``) is not a token.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<int>[0-9]+)|(?P<word>\w+)|(?P<punct>->|<-|[{}():;,=^*])|(?P<bad>.)|(?P<eof>\Z))",
    re.DOTALL,
)


@dataclass(slots=True)
class _Token:
    # slots, not frozen: a frozen dataclass costs three times as much to build
    kind: str  # "ident", "int", "eof", or the punctuation/arrow itself
    text: str
    line: int
    column: int


def _describe(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "ident":
        return f"name '{tok.text}'"
    if tok.kind == "int":
        return f"integer '{tok.text}'"
    return f"'{tok.text}'"


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diags: list[Diagnostic] = []
    match, append, n = _TOKEN.match, tokens.append, len(text)
    line, line_start, pos = 1, 0, 0
    next_newline = text.find("\n")
    if next_newline < 0:
        next_newline = n
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        # tokens never hold a newline, so only skipped text moves the line
        while next_newline < start:
            line += 1
            line_start = next_newline + 1
            next_newline = text.find("\n", line_start)
            if next_newline < 0:
                next_newline = n
        column = start - line_start + 1
        if kind == "word":
            ch = text[start]
            if ch.isalpha() or ch == "_":
                append(_Token("ident", text[start:pos], line, column))
                continue
            # a numeral that is not an ASCII digit: reject it and lex on from
            # the next character, which may start a token of its own
            diags.append(Diagnostic("error", line, column, 1, f"unexpected character {ch!r}", "E001"))
            pos = start + 1
        elif kind == "punct":
            punct = text[start:pos]
            append(_Token(punct, punct, line, column))
        elif kind == "int":
            if pos - start > MAX_INT_DIGITS:
                diags.append(Diagnostic(
                    "error", line, column, pos - start,
                    f"integer literal longer than {MAX_INT_DIGITS} digits", "E012",
                ))
            append(_Token("int", text[start:pos], line, column))
        elif kind == "bad":
            diags.append(Diagnostic("error", line, column, 1, f"unexpected character {text[start]!r}", "E001"))
        else:
            append(_Token("eof", "", line, column))
            return tokens, diags


# --- parser ----------------------------------------------------------------

class _ParseAbort(Exception):
    pass


class _Parser:
    def __init__(self, tokens: list[_Token], diags: list[Diagnostic]):
        self.toks = tokens
        self.diags = diags
        self.i = 0
        self.decls: list[Decl] = []
        # the model's name index, filled as declarations are accepted
        self.names: dict[type, dict[str, Decl]] = {kind: {} for kind in _KINDS}

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, tok: _Token, code: str, message: str):
        self.diags.append(
            Diagnostic("error", tok.line, tok.column, len(tok.text), message, code)
        )
        raise _ParseAbort

    def expect(self, kind: str, what: str, code: str = "E011") -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, code, f"expected {what}, found {_describe(tok)}")
        return self.take()

    def expect_kw(self, word: str, code: str = "E011") -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail(tok, code, f"expected '{word}', found {_describe(tok)}")
        return self.take()

    def int_value(self, tok: _Token) -> int:
        if len(tok.text) > MAX_INT_DIGITS:
            raise _ParseAbort  # already reported by the lexer (E012)
        return int(tok.text)

    def expect_int(self, what: str = "an integer") -> tuple[int, _Token]:
        tok = self.expect("int", what)
        return self.int_value(tok), tok

    def fresh_name(self, kind: type, noun: str) -> str:
        tok = self.expect("ident", f"a {noun} name")
        if tok.text in self.names[kind]:
            self.fail(tok, "E020", f"duplicate {noun} name '{tok.text}'")
        return tok.text

    def resolve_pair(self, what: str = "pair") -> tuple[str, Pair, _Token]:
        tok = self.expect("ident", f"a {what} name")
        decl = self.names[PairDecl].get(tok.text)
        if decl is None:
            self.fail(tok, "E021", f"unknown pair '{tok.text}'")
        return tok.text, decl.pair, tok

    def accept(self, decl: Decl):
        self.decls.append(decl)
        self.names[type(decl)][decl.name] = decl

    # statements

    def run(self) -> Model:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text in _TOP:
                handler = getattr(self, "_stmt_" + tok.text)
                try:
                    handler()
                except _ParseAbort:
                    self._sync()
            else:
                self.diags.append(
                    Diagnostic(
                        "error",
                        tok.line,
                        tok.column,
                        max(len(tok.text), 1),
                        "expected a declaration ('pair', 'map', 'corr', 'qpair' or "
                        f"'blowup'), found {_describe(tok)}",
                        "E010",
                    )
                )
                self.take()
                self._sync()
        model = Model(tuple(self.decls))
        model.__dict__["_names"] = self.names  # the index Model would build
        return model

    def _sync(self):
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "ident" and tok.text in _TOP):
                return
            self.take()

    def _stmt_pair(self):
        self.take()
        name = self.fresh_name(PairDecl, "pair")
        self.expect("{", "'{'")
        self.expect_kw("dim")
        dim, dim_tok = self.expect_int("the chart dimension")
        self.expect(";", "';'")
        self.expect_kw("coords")
        coord_toks = []
        while self.peek().kind == "ident":
            coord_toks.append(self.take())
        self.expect(";", "';' after the coordinate list")
        if len(coord_toks) != dim:
            self.fail(
                dim_tok, "E030",
                f"dim {dim} does not match the {len(coord_toks)} declared coordinate(s)",
            )
        seen: set[str] = set()
        for tok in coord_toks:
            if tok.text in seen:
                self.fail(tok, "E031", f"duplicate coordinate '{tok.text}'")
            seen.add(tok.text)
        chart = Chart(tuple(tok.text for tok in coord_toks))
        mults = [0] * dim
        assigned: set[int] = set()
        if self.peek().kind == "ident" and self.peek().text == "divisor":
            self.take()
            self.expect("{", "'{'")
            first = True
            while self.peek().kind != "}":
                if not first:
                    self.expect(",", "',' between divisor entries")
                first = False
                ctok = self.expect("ident", "a coordinate name")
                if ctok.text not in chart.coords:
                    self.fail(ctok, "E032", f"unknown coordinate '{ctok.text}'")
                idx = chart.index(ctok.text)
                if idx in assigned:
                    self.fail(ctok, "E033", f"coordinate '{ctok.text}' appears twice in the divisor")
                assigned.add(idx)
                self.expect(":", "':'")
                mults[idx], _ = self.expect_int("a multiplicity")
            self.expect("}", "'}'")
        self.expect("}", "'}' closing the pair declaration")
        self.accept(PairDecl(name, Pair(chart, Divisor(tuple(mults)))))

    def _monomial(self, chart: Chart) -> tuple[int, ...]:
        exps = [0] * chart.dim
        tok = self.peek()
        if tok.kind == "int":
            if self.int_value(tok) != 1:
                self.fail(tok, "E042", "only the literal 1 denotes the empty monomial")
            self.take()
            return tuple(exps)
        while True:
            ctok = self.expect("ident", "a source coordinate")
            if ctok.text not in chart.coords:
                self.fail(ctok, "E032", f"unknown coordinate '{ctok.text}'")
            e = 1
            if self.peek().kind == "^":
                self.take()
                e, _ = self.expect_int("an exponent")
            exps[chart.index(ctok.text)] += e
            if self.peek().kind == "*":
                self.take()
                continue
            break
        return tuple(exps)

    def _stmt_map(self):
        self.take()
        name = self.fresh_name(MapDecl, "map")
        self.expect(":", "':'")
        src_name, src_pair, _ = self.resolve_pair("source pair")
        self.expect("->", "'->'")
        dst_name, dst_pair, _ = self.resolve_pair("destination pair")
        self.expect("{", "'{'")
        rows: dict[int, tuple[int, ...]] = {}
        while self.peek().kind != "}":
            tgt = self.expect("ident", "a target coordinate")
            if tgt.text not in dst_pair.chart.coords:
                self.fail(tgt, "E032", f"unknown coordinate '{tgt.text}'")
            j = dst_pair.chart.index(tgt.text)
            if j in rows:
                self.fail(tgt, "E041", f"target coordinate '{tgt.text}' assigned twice")
            self.expect("<-", "'<-'")
            rows[j] = self._monomial(src_pair.chart)
            if self.peek().kind == ";":
                self.take()
            elif self.peek().kind != "}":
                self.expect(";", "';' between assignments")
        close = self.expect("}", "'}'")
        for j, cname in enumerate(dst_pair.chart.coords):
            if j not in rows:
                self.fail(close, "E040", f"map does not assign target coordinate '{cname}'")
        matrix = tuple(rows[j] for j in range(dst_pair.chart.dim))
        pair_map = PairMap(MonomialMap(src_pair.chart, dst_pair.chart, matrix), src_pair, dst_pair)
        self.accept(MapDecl(name, src_name, dst_name, pair_map))

    def _stmt_corr(self):
        self.take()
        name = self.fresh_name(CorrDecl, "corr")
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "monomial":
            self.take()
            self.expect("(", "'('")
            a, a_tok = self.expect_int("the first exponent")
            self.expect(",", "','")
            b, b_tok = self.expect_int("the second exponent")
            self.expect(",", "','")
            n_x, _ = self.expect_int("the source multiplicity")
            self.expect(",", "','")
            n_y, _ = self.expect_int("the destination multiplicity")
            self.expect(")", "')'")
            if a < 1:
                self.fail(a_tok, "E052", "parametrization exponents must be positive")
            if b < 1:
                self.fail(b_tok, "E052", "parametrization exponents must be positive")
            corr = from_monomial_param(a, b, n_x, n_y)
            self.accept(CorrDecl(name, corr, monomial=(a, b, n_x, n_y)))
            return
        if tok.kind != ":":
            self.fail(tok, "E011", f"expected ':' or 'monomial' after the corr name, found {_describe(tok)}")
        self.take()
        src_name, src_pair, src_tok = self.resolve_pair("source pair")
        if src_pair.chart.dim != 1:
            self.fail(src_tok, "E080", f"correspondence endpoint '{src_name}' must be a one-dimensional pair")
        self.expect("->", "'->'")
        dst_name, dst_pair, dst_tok = self.resolve_pair("destination pair")
        if dst_pair.chart.dim != 1:
            self.fail(dst_tok, "E080", f"correspondence endpoint '{dst_name}' must be a one-dimensional pair")
        self.expect("{", "'{'")
        records: list[CorrLocalRecord] = []
        labels: set[str] = set()
        while self.peek().kind == "ident" and self.peek().text == "point":
            self.take()
            ltok = self.peek()
            if ltok.kind not in ("ident", "int"):
                self.fail(ltok, "E011", f"expected a point label, found {_describe(ltok)}")
            self.take()
            if ltok.text in labels:
                self.fail(ltok, "E050", f"duplicate point label '{ltok.text}'")
            labels.add(ltok.text)
            self.expect("{", "'{'")
            self.expect_kw("nx")
            n_x, _ = self.expect_int("nx")
            self.expect(";", "';'")
            self.expect_kw("ny")
            n_y, _ = self.expect_int("ny")
            self.expect(";", "';'")
            self.expect_kw("ex")
            e_x, ex_tok = self.expect_int("ex")
            self.expect(";", "';'")
            self.expect_kw("ey")
            e_y, ey_tok = self.expect_int("ey")
            if self.peek().kind == ";":
                self.take()
            self.expect("}", "'}'")
            if e_x < 1:
                self.fail(ex_tok, "E051", "ramification degrees must be positive")
            if e_y < 1:
                self.fail(ey_tok, "E051", "ramification degrees must be positive")
            records.append(CorrLocalRecord(ltok.text, n_x, n_y, e_x, e_y))
        self.expect("}", "'}'")
        self.accept(CorrDecl(name, NonConstantCorr(tuple(records)), src=src_name, dst=dst_name))

    def _stmt_qpair(self):
        self.take()
        name = self.fresh_name(QPairDecl, "qpair")
        self.expect("=", "'='")
        self.expect("(", "'('")
        level, level_tok = self.expect_int("the level")
        self.expect(",", "','")
        pair_name, pair, _ = self.resolve_pair()
        self.expect(")", "')'")
        if level < 1:
            self.fail(level_tok, "E060", "level must be a positive integer")
        self.accept(QPairDecl(name, pair_name, QPair(level, pair)))

    def _stmt_blowup(self):
        self.take()
        name = self.fresh_name(BlowupDecl, "blowup")
        self.expect_kw("on")
        pair_name, pair, _ = self.resolve_pair()
        center_tok = self.expect_kw("center")
        self.expect("{", "'{'")
        indices: set[int] = set()
        first = True
        while self.peek().kind != "}":
            if not first:
                self.expect(",", "',' between center coordinates")
            first = False
            ctok = self.expect("ident", "a coordinate name")
            if ctok.text not in pair.chart.coords:
                self.fail(ctok, "E032", f"unknown coordinate '{ctok.text}'")
            idx = pair.chart.index(ctok.text)
            if idx in indices:
                self.fail(ctok, "E071", f"coordinate '{ctok.text}' appears twice in the center")
            indices.add(idx)
        self.expect("}", "'}'")
        if not indices:
            self.fail(center_tok, "E070", "blowup center must name at least one coordinate")
        coords = tuple(pair.chart.coords[i] for i in sorted(indices))
        self.accept(BlowupDecl(name, pair_name, coords, BlowupSpec(pair, frozenset(indices))))


def parse(text: str) -> Model | list[Diagnostic]:
    """Parse a declaration text into a model, or report every problem found."""
    tokens, diags = _lex(text)
    model = _Parser(tokens, diags).run()
    if any(d.severity == "error" for d in diags):
        return list(diags)
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
        m = decl.pair_map.map
        assigns = "; ".join(
            f"{name} <- {format_monomial(m.source, m.expo[j])}"
            for j, name in enumerate(m.target.coords)
        )
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
