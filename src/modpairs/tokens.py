"""The token path of the DSL: lexer, recovering parser and diagnostic placement.

``dsl.parse`` matches canonically spelled statements whole and imports this
module only when the matcher stops before the end of the text.  From there
the token parser reads one statement at a time, lexing each token as it
first steps onto it and keeping its offset, and makes every diagnostic.
After each statement the matcher tries again at the next token.  The
matcher owns the parse state: the parser looks names and charts up in its
tables and records each declaration through its ``accept``.
"""

from __future__ import annotations

import re

from .blowup import BlowupSpec
from .correspondences import CorrLocalRecord, NonConstantCorr, from_monomial_param
from .dsl import (
    _SKIP,
    KEYWORDS,
    MAX_INT_DIGITS,
    BlowupDecl,
    CorrDecl,
    Diagnostic,
    MapDecl,
    Model,
    PairDecl,
    QPairDecl,
    _Matcher,
)
from .pairs import Divisor, MonomialMap, Pair, PairMap
from .qdivisors import QPair

# --- lexer -----------------------------------------------------------------

_TOP = tuple(KEYWORDS.values())
_PUNCT = frozenset(("->", "<-", "{", "}", "(", ")", ":", ";", ",", "=", "^", "*"))

# One match per token, whitespace and comments skipped inside the match; the
# text of a token is the only group, and the empty end of the text is the
# last match.  ``\w`` is exactly ``str.isalnum()`` plus ``_``.  A single
# character outside a word is punctuation or a stray character.
_TOKEN = re.compile(_SKIP + r"(->|<-|[0-9]+|\w+|.|\Z)", re.DOTALL)


def _plain(tok: str) -> bool:
    """Kept as it is: the end, punctuation, a name or a literal within the bound."""
    first = tok[:1]
    return (
        tok in _PUNCT or first.isalpha() or first == "_" or not tok
        or ("0" <= first <= "9" and len(tok) <= MAX_INT_DIGITS)
    )


def _place(text: str, found: list) -> list[Diagnostic]:
    """Diagnostics for ``found``, each (offset, length, message, code): one pass
    over the offsets in increasing order counts the newlines between them."""
    where, line, line_start, seen = {}, 1, 0, 0
    for offset in sorted({d[0] for d in found}):
        crossed = text.count("\n", seen, offset)
        if crossed:
            line += crossed
            line_start = text.rfind("\n", seen, offset) + 1
        where[offset], seen = (line, offset - line_start + 1), offset
    return [Diagnostic("error", *where[offset], *rest) for offset, *rest in found]


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
    """Reads the token texts by index; ``i`` never moves past the end ("").

    ``toks`` and ``at`` hold the texts and offsets of the tokens lexed since
    the last ``restart``, each lexed when ``step`` first moves onto it.  The
    lexer's findings go to ``lexer`` and the parser's to ``problems``, each
    as (offset, length, message, code).  The parse state is the ``matcher``'s:
    names and charts are looked up in its tables and every declaration goes
    to its ``accept``, so each reader sees what the other has read."""

    def __init__(self, text: str, matcher: _Matcher):
        self.matcher, self.text, self.toks, self.at, self.lexer, self.problems = matcher, text, [], [], [], []

    def restart(self, pos: int):
        """Read on from the token at ``pos``, forgetting the tokens before it."""
        self.toks.clear()
        self.at.clear()
        self.i, self.pos = -1, pos
        self.step()

    def step(self):
        """Move to the next token, lexing it when ``i`` reaches the end of ``toks``.
        An over-long literal is reported and kept as a token.  A stray character,
        or the numeral leading a word such as ``²x``, is reported and the text is
        lexed on from the character after it."""
        self.i += 1
        while self.i == len(self.toks):
            m = _TOKEN.match(self.text, self.pos)
            tok, start, self.pos = m[1], m.start(1), m.end()
            if not _plain(tok):
                if not "0" <= tok[0] <= "9":
                    self.lexer.append((start, 1, f"unexpected character {tok[0]!r}", "E001"))
                    self.pos = start + 1
                    continue
                self.lexer.append((start, len(tok), f"integer literal longer than {MAX_INT_DIGITS} digits", "E012"))
            self.toks.append(tok)
            self.at.append(start)

    def fail(self, at: int, code: str, message: str):
        self.problems.append((self.at[at], len(self.toks[at]), message, code))
        raise _ParseAbort

    def expect(self, text: str, what: str = "") -> int:
        """Step over the punctuation or keyword ``text``; its index."""
        at = self.i
        if self.toks[at] != text:
            self.fail(at, "E011", f"expected {what or repr(text)}, found {_describe(self.toks[at])}")
        self.step()
        return at

    def name(self, what: str) -> str:
        tok = self.toks[self.i]
        if not (tok[:1].isalpha() or tok[:1] == "_"):
            self.fail(self.i, "E011", f"expected {what}, found {_describe(tok)}")
        self.step()
        return tok

    def number(self, what: str) -> int:
        tok = self.toks[self.i]
        if not "0" <= tok[:1] <= "9":
            self.fail(self.i, "E011", f"expected {what}, found {_describe(tok)}")
        self.step()
        if len(tok) > MAX_INT_DIGITS:
            raise _ParseAbort  # already reported by the lexer (E012)
        return int(tok)

    def fresh_name(self, kind: type) -> str:
        noun = KEYWORDS[kind]
        name = self.name(f"a {noun} name")
        if name in self.matcher.names[kind]:
            self.fail(self.i - 1, "E020", f"duplicate {noun} name '{name}'")
        return name

    def resolve_pair(self, what: str = "pair") -> tuple[str, Pair, dict[str, int]]:
        """The name, the pair and its chart's coordinate index."""
        name = self.name(f"a {what} name")
        decl = self.matcher.names[PairDecl].get(name)
        if decl is None:
            self.fail(self.i - 1, "E021", f"unknown pair '{name}'")
        return name, decl.pair, self.matcher._index(decl.pair)

    def coord(self, index: dict[str, int], what: str) -> int:
        name = self.name(what)
        idx = index.get(name)
        if idx is None:
            self.fail(self.i - 1, "E032", f"unknown coordinate '{name}'")
        return idx

    # statements

    def statement(self):
        """Read one statement; after a fault, resynchronize at the next declaration."""
        toks = self.toks
        try:
            if toks[self.i] not in _TOP:
                self.fail(self.i, "E010", "expected a declaration ('pair', 'map', 'corr', "
                          f"'qpair' or 'blowup'), found {_describe(toks[self.i])}")
            getattr(self, "_stmt_" + toks[self.i])()
        except _ParseAbort:
            while toks[self.i] and toks[self.i] not in _TOP:
                self.step()

    def _stmt_pair(self):
        toks = self.toks
        self.step()
        name = self.fresh_name(PairDecl)
        self.expect("{")
        self.expect("dim")
        dim_at, dim = self.i, self.number("the chart dimension")
        self.expect(";")
        self.expect("coords")
        first = self.i
        while toks[self.i][:1].isalpha() or toks[self.i][:1] == "_":
            self.step()
        coords = tuple(toks[first:self.i])
        self.expect(";", "';' after the coordinate list")
        if len(coords) != dim:
            self.fail(dim_at, "E030", f"dim {dim} does not match the {len(coords)} declared coordinate(s)")
        seen: set[str] = set()
        for at, coord in enumerate(coords, first):
            if coord in seen:
                self.fail(at, "E031", f"duplicate coordinate '{coord}'")
            seen.add(coord)
        chart, index = self.matcher._chart(" ".join(coords))
        mults = [0] * dim
        assigned: set[int] = set()
        if toks[self.i] == "divisor":
            self.step()
            self.expect("{")
            while toks[self.i] != "}":
                if assigned:
                    self.expect(",", "',' between divisor entries")
                idx = self.coord(index, "a coordinate name")
                if idx in assigned:
                    self.fail(self.i - 1, "E033", f"coordinate '{toks[self.i - 1]}' appears twice in the divisor")
                assigned.add(idx)
                self.expect(":")
                mults[idx] = self.number("a multiplicity")
            self.step()
        self.expect("}", "'}' closing the pair declaration")
        self.matcher.accept(PairDecl(name, Pair(chart, Divisor(tuple(mults)))))

    def _monomial(self, index: dict[str, int]) -> tuple[int, ...]:
        toks = self.toks
        exps = [0] * len(index)
        at = self.i
        if "0" <= toks[at][:1] <= "9":
            if self.number("") != 1:
                self.fail(at, "E042", "only the literal 1 denotes the empty monomial")
            return tuple(exps)
        while True:
            idx = self.coord(index, "a source coordinate")
            e = 1
            if toks[self.i] == "^":
                self.step()
                e = self.number("an exponent")
            exps[idx] += e
            if toks[self.i] != "*":
                return tuple(exps)
            self.step()

    def _stmt_map(self):
        toks = self.toks
        self.step()
        name = self.fresh_name(MapDecl)
        self.expect(":")
        src_name, src_pair, src_index = self.resolve_pair("source pair")
        self.expect("->")
        dst_name, dst_pair, dst_index = self.resolve_pair("destination pair")
        self.expect("{")
        rows: dict[int, tuple[int, ...]] = {}
        while toks[self.i] != "}":
            j = self.coord(dst_index, "a target coordinate")
            if j in rows:
                self.fail(self.i - 1, "E041", f"target coordinate '{toks[self.i - 1]}' assigned twice")
            self.expect("<-")
            rows[j] = self._monomial(src_index)
            if toks[self.i] != "}":
                self.expect(";", "';' between assignments")
        close = self.expect("}")
        for j, cname in enumerate(dst_pair.chart.coords):
            if j not in rows:
                self.fail(close, "E040", f"map does not assign target coordinate '{cname}'")
        matrix = tuple(rows[j] for j in range(dst_pair.chart.dim))
        pair_map = PairMap(MonomialMap(src_pair.chart, dst_pair.chart, matrix), src_pair, dst_pair)
        self.matcher.accept(MapDecl(name, src_name, dst_name, pair_map))

    def _endpoint(self, what: str) -> str:
        name, _, index = self.resolve_pair(what)
        if len(index) != 1:
            self.fail(self.i - 1, "E080", f"correspondence endpoint '{name}' must be a one-dimensional pair")
        return name

    def _stmt_corr(self):
        toks = self.toks
        self.step()
        name = self.fresh_name(CorrDecl)
        if toks[self.i] == "monomial":
            self.step()
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
            self.matcher.accept(CorrDecl(name, corr, monomial=(a, b, n_x, n_y)))
            return
        self.expect(":", "':' or 'monomial' after the corr name")
        src_name = self._endpoint("source pair")
        self.expect("->")
        dst_name = self._endpoint("destination pair")
        self.expect("{")
        records: list[CorrLocalRecord] = []
        labels: set[str] = set()
        while toks[self.i] == "point":
            self.step()
            at = self.i
            label = toks[at]
            if not label or label in _PUNCT:
                self.fail(at, "E011", f"expected a point label, found {_describe(label)}")
            self.step()
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
                self.step()
            self.expect("}")
            if e_x < 1:
                self.fail(ex_at, "E051", "ramification degrees must be positive")
            if e_y < 1:
                self.fail(ey_at, "E051", "ramification degrees must be positive")
            records.append(CorrLocalRecord(label, n_x, n_y, e_x, e_y))
        self.expect("}")
        self.matcher.accept(CorrDecl(name, NonConstantCorr(tuple(records)), src=src_name, dst=dst_name))

    def _stmt_qpair(self):
        self.step()
        name = self.fresh_name(QPairDecl)
        self.expect("=")
        self.expect("(")
        level_at, level = self.i, self.number("the level")
        self.expect(",")
        pair_name, pair, _ = self.resolve_pair()
        self.expect(")")
        if level < 1:
            self.fail(level_at, "E060", "level must be a positive integer")
        self.matcher.accept(QPairDecl(name, pair_name, QPair(level, pair)))

    def _stmt_blowup(self):
        toks = self.toks
        self.step()
        name = self.fresh_name(BlowupDecl)
        self.expect("on")
        pair_name, pair, index = self.resolve_pair()
        center_at = self.expect("center")
        self.expect("{")
        indices: set[int] = set()
        while toks[self.i] != "}":
            if indices:
                self.expect(",", "',' between center coordinates")
            idx = self.coord(index, "a coordinate name")
            if idx in indices:
                self.fail(self.i - 1, "E071", f"coordinate '{toks[self.i - 1]}' appears twice in the center")
            indices.add(idx)
        self.step()
        if not indices:
            self.fail(center_at, "E070", "blowup center must name at least one coordinate")
        coords = tuple(pair.chart.coords[i] for i in sorted(indices))
        self.matcher.accept(BlowupDecl(name, pair_name, coords, BlowupSpec(pair, frozenset(indices))))


def read_from(matcher: _Matcher, text: str, start: int) -> Model | list[Diagnostic]:
    """Parse ``text`` from ``start``, where ``matcher`` stopped, to the end.

    The token parser reads one statement, then the matcher tries again at
    the token after it.  Only where the matcher moved, and not to the end,
    does the token parser restart, at the matcher's stop: a restart where it
    did not move would lex the current token again, and report an over-long
    literal twice.  Diagnostics keep the token parser's order over the whole
    text: the lexer's, then the parser's.
    """
    parser = _Parser(text, matcher)
    parser.restart(start)
    while parser.toks[parser.i]:
        parser.statement()
        at = parser.at[parser.i]
        start = matcher.match(text, at)
        if start == len(text):
            break
        if start > at:
            parser.restart(start)
    return _place(text, parser.lexer + parser.problems) or Model(tuple(matcher.decls))
