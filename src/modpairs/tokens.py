"""The token path of the DSL: lexer, recovering parser and diagnostic placement.

``dsl.parse`` matches canonically spelled statements whole and imports this
module only when the matcher stops before the end of the text.  From there
the token parser reads one statement at a time, lexing each token as it
first steps onto it and keeping its offset, and makes every diagnostic.
After each statement the matcher tries again at the next token.  The parser
reads, resolves and reports, and ``dsl`` builds: names and charts are looked
up in the matcher's tables, which hold the parse state, and what the parser
resolved goes to ``dsl``'s builders or the declaration constructors, then to
the matcher's ``accept``.
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
    Decl,
    Diagnostic,
    Model,
    PairDecl,
    QPairDecl,
    _is_name,
    _map_decl,
    _Matcher,
    _model,
    _pair_decl,
)
from .pairs import Pair
from .qdivisors import QPair

# --- lexer -----------------------------------------------------------------

_KINDS = {keyword: kind for kind, keyword in KEYWORDS.items()}

# One match per token, whitespace and comments skipped inside the match; the
# empty end of the text is the last match.  The group that matched classes the
# token: punctuation, an integer literal (ASCII digits), a word (``\w``, exactly
# ``str.isalnum()`` plus ``_``; a name or not), a stray character or the end.
_TOKEN = re.compile(
    _SKIP + r"(?:(?P<punct>->|<-|[{}():;,=^*])|(?P<int>[0-9]+)|(?P<word>\w+)|(?P<stray>.)|(?P<end>\Z))",
    re.DOTALL,
)
# how a diagnostic shows a token of each class the lexer keeps
_SHOWN = {"end": "end of input", "punct": "'{}'", "int": "integer '{}'", "name": "name '{}'"}


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
    return [Diagnostic(*where[offset], *rest) for offset, *rest in found]


# --- parser ----------------------------------------------------------------

class _ParseAbort(Exception):
    pass


class _Parser:
    """Reads the token texts by index; ``i`` never moves past the end ("").

    ``toks``, ``at`` and ``classes`` hold the texts, offsets and classes
    ("punct", "int", "name" or "end") of the tokens lexed since the last
    ``restart``, each lexed when ``step`` first moves onto it.  The
    lexer's findings go to ``lexer`` and the parser's to ``problems``, each
    as (offset, length, message, code).  The parse state is the ``matcher``'s:
    names and charts are looked up in its tables, and every declaration, built
    by ``dsl``, goes to its ``accept``, so each reader sees what the other read."""

    def __init__(self, text: str, matcher: _Matcher):
        self.matcher, self.text, self.lexer, self.problems = matcher, text, [], []
        self.toks, self.at, self.classes = [], [], []

    def restart(self, pos: int):
        """Read on from the token at ``pos``, forgetting the tokens before it."""
        self.toks, self.at, self.classes, self.i, self.pos = [], [], [], -1, pos
        self.step()

    def step(self):
        """Move to the next token, lexing it when ``i`` reaches the end of ``toks``.
        A word is a name by ``dsl``'s name rule.  An over-long literal is
        reported and kept as a token.  A stray character, or the one leading a
        word that is not a name, such as the numeral of ``²x``, is reported and
        the text is lexed on from the character after it."""
        self.i += 1
        while self.i == len(self.toks):
            m = _TOKEN.match(self.text, self.pos)
            cls = m.lastgroup
            tok, start, self.pos = m[cls], m.start(cls), m.end()
            if cls == "word":
                cls = "name" if _is_name(tok) else "stray"
            if cls == "stray":
                self.lexer.append((start, 1, f"unexpected character {tok[0]!r}", "E001"))
                self.pos = start + 1
                continue
            if cls == "int" and len(tok) > MAX_INT_DIGITS:
                self.lexer.append((start, len(tok), f"integer literal longer than {MAX_INT_DIGITS} digits", "E012"))
            self.toks.append(tok)
            self.at.append(start)
            self.classes.append(cls)

    def fail(self, at: int, code: str, message: str):
        self.problems.append((self.at[at], len(self.toks[at]), message, code))
        raise _ParseAbort

    def found(self) -> str:
        """The current token as a diagnostic shows it, by its class."""
        return _SHOWN[self.classes[self.i]].format(self.toks[self.i])

    def expect(self, text: str, what: str = "") -> int:
        """Step over the punctuation or keyword ``text``; its index."""
        at = self.i
        if self.toks[at] != text:
            self.fail(at, "E011", f"expected {what or repr(text)}, found {self.found()}")
        self.step()
        return at

    def take(self, cls: str, what: str) -> str:
        """Step over a token of the class ``cls``; its text."""
        at = self.i
        if self.classes[at] != cls:
            self.fail(at, "E011", f"expected {what}, found {self.found()}")
        self.step()
        return self.toks[at]

    def number(self, what: str) -> int:
        tok = self.take("int", what)
        if len(tok) > MAX_INT_DIGITS:
            raise _ParseAbort  # already reported by the lexer (E012)
        return int(tok)

    def resolve_pair(self, what: str = "pair") -> tuple[str, Pair, dict[str, int]]:
        """The name, the pair and its chart's coordinate index."""
        name = self.take("name", f"a {what} name")
        decl = self.matcher.names[PairDecl].get(name)
        if decl is None:
            self.fail(self.i - 1, "E021", f"unknown pair '{name}'")
        return name, decl.pair, self.matcher._index(decl.pair)

    def coord(self, index: dict[str, int], what: str) -> int:
        name = self.take("name", what)
        idx = index.get(name)
        if idx is None:
            self.fail(self.i - 1, "E032", f"unknown coordinate '{name}'")
        return idx

    # statements

    def statement(self):
        """Read a keyword and a new name, then the rest by its ``_stmt_*``; after a fault, skip to a keyword."""
        toks = self.toks
        try:
            keyword = toks[self.i]
            kind = _KINDS.get(keyword)
            if kind is None:
                self.fail(self.i, "E010", "expected a declaration ('pair', 'map', 'corr', "
                          f"'qpair' or 'blowup'), found {self.found()}")
            self.step()
            name = self.take("name", f"a {keyword} name")
            if name in self.matcher.names[kind]:
                self.fail(self.i - 1, "E020", f"duplicate {keyword} name '{name}'")
            self.matcher.accept(getattr(self, "_stmt_" + keyword)(name))
        except _ParseAbort:
            while toks[self.i] and toks[self.i] not in _KINDS:
                self.step()

    def _stmt_pair(self, name: str) -> Decl:
        toks, classes = self.toks, self.classes
        self.expect("{")
        self.expect("dim")
        dim_at, dim = self.i, self.number("the chart dimension")
        self.expect(";")
        self.expect("coords")
        first = self.i
        while classes[self.i] == "name":
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
        mults: dict[int, int] = {}
        if toks[self.i] == "divisor":
            self.step()
            self.expect("{")
            while toks[self.i] != "}":
                if mults:
                    self.expect(",", "',' between divisor entries")
                idx = self.coord(index, "a coordinate name")
                if idx in mults:
                    self.fail(self.i - 1, "E033", f"coordinate '{toks[self.i - 1]}' appears twice in the divisor")
                self.expect(":")
                mults[idx] = self.number("a multiplicity")
            self.step()
        self.expect("}", "'}' closing the pair declaration")
        return _pair_decl(name, chart, mults)

    def _monomial(self, index: dict[str, int]) -> list[tuple[int, int]]:
        toks = self.toks
        at = self.i
        if self.classes[at] == "int":
            if self.number("") != 1:
                self.fail(at, "E042", "only the literal 1 denotes the empty monomial")
            return []
        factors = []
        while True:
            idx = self.coord(index, "a source coordinate")
            e = 1
            if toks[self.i] == "^":
                self.step()
                e = self.number("an exponent")
            factors.append((idx, e))
            if toks[self.i] != "*":
                return factors
            self.step()

    def _stmt_map(self, name: str) -> Decl:
        toks = self.toks
        self.expect(":")
        src_name, src_pair, src_index = self.resolve_pair("source pair")
        self.expect("->")
        dst_name, dst_pair, dst_index = self.resolve_pair("destination pair")
        self.expect("{")
        monomials: dict[int, list[tuple[int, int]]] = {}
        while toks[self.i] != "}":
            j = self.coord(dst_index, "a target coordinate")
            if j in monomials:
                self.fail(self.i - 1, "E041", f"target coordinate '{toks[self.i - 1]}' assigned twice")
            self.expect("<-")
            monomials[j] = self._monomial(src_index)
            if toks[self.i] != "}":
                self.expect(";", "';' between assignments")
        close = self.expect("}")
        for j, cname in enumerate(dst_pair.chart.coords):
            if j not in monomials:
                self.fail(close, "E040", f"map does not assign target coordinate '{cname}'")
        return _map_decl(name, src_name, src_pair, dst_name, dst_pair, monomials)

    def _endpoint(self, what: str) -> str:
        name, _, index = self.resolve_pair(what)
        if len(index) != 1:
            self.fail(self.i - 1, "E080", f"correspondence endpoint '{name}' must be a one-dimensional pair")
        return name

    def _stmt_corr(self, name: str) -> Decl:
        toks = self.toks
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
            if a < 1 or b < 1:
                self.fail(a_at if a < 1 else b_at, "E052", "parametrization exponents must be positive")
            return CorrDecl(name, from_monomial_param(a, b, n_x, n_y))
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
            if self.classes[at] not in ("name", "int"):
                self.fail(at, "E011", f"expected a point label, found {self.found()}")
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
            if e_x < 1 or e_y < 1:
                self.fail(ex_at if e_x < 1 else ey_at, "E051", "ramification degrees must be positive")
            records.append(CorrLocalRecord(label, n_x, n_y, e_x, e_y))
        self.expect("}")
        return CorrDecl(name, NonConstantCorr(tuple(records)), src=src_name, dst=dst_name)

    def _stmt_qpair(self, name: str) -> Decl:
        self.expect("=")
        self.expect("(")
        level_at, level = self.i, self.number("the level")
        self.expect(",")
        pair_name, pair, _ = self.resolve_pair()
        self.expect(")")
        if level < 1:
            self.fail(level_at, "E060", "level must be a positive integer")
        return QPairDecl(name, pair_name, QPair(level, pair))

    def _stmt_blowup(self, name: str) -> Decl:
        toks = self.toks
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
        return BlowupDecl(name, pair_name, BlowupSpec(pair, indices))


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
    return _place(text, parser.lexer + parser.problems) or _model(tuple(matcher.decls))
