"""The token path of the DSL: lexer, recovering parser and diagnostic placement.

``dsl.parse`` matches canonically spelled statements whole and imports this
module only when the matcher stops before the end of the text.  From there
the token parser reads one *stretch* at a time, up to the start of the next
line that opens with a declaration keyword, and makes every diagnostic.  It
shares the matcher's declarations, names and coordinate positions, so
matching resumes after a stretch with a fault.
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
from .pairs import Chart, Divisor, MonomialMap, Pair, PairMap
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


def _lex(text: str, start: int = 0, stop: int | None = None) -> tuple[list[str], set[str]]:
    """The token texts of ``text`` from ``start`` to ``stop``, ending with "", and
    the set of matched texts that are not plain (each gives the lexer's diagnostics)."""
    tokens = _TOKEN.findall(text, start, len(text) if stop is None else stop)
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


def _diagnose(text: str, odd: set[str], problems: list, start: int = 0, stop: int | None = None,
              line: int = 1) -> list[Diagnostic]:
    """The lexer's diagnostics, then the parser's ``problems``, placed in the text.

    A problem is (token index, length, message, code), the tokens counted from
    offset ``start``, which is on line ``line``.  One pass over the tokens up to
    ``stop`` finds the offsets in increasing order, counting the newlines
    between them; it stops after the last problem when the lexer found nothing.
    """
    found, places = [], {}
    wanted = {at for at, _, _, _ in problems}
    last, index = max(wanted, default=-1), 0
    line_start, seen = text.rfind("\n", 0, start) + 1, start

    def place(offset: int) -> tuple[int, int]:
        nonlocal line, line_start, seen
        crossed = text.count("\n", seen, offset)
        if crossed:
            line += crossed
            line_start = text.rfind("\n", seen, offset) + 1
        seen = offset
        return line, offset - line_start + 1

    for m in _TOKEN.finditer(text, start, len(text) if stop is None else stop):
        tok = m[1]
        if tok in odd:
            tok_at = m.start(1)
            for at, piece, code in _pieces(tok):
                if code == "E001":
                    found.append((*place(tok_at + at), 1, f"unexpected character {piece!r}", code))
                    continue
                places[index] = place(tok_at + at)
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


class _Parser(_Matcher):
    """Reads the token texts by index; ``i`` never moves past the end ("").

    It holds the same ``decls``, ``names`` and ``places`` objects as the
    matcher it is given, so each accepts what the other has read."""

    def __init__(self, tokens: list[str], problems: list, matcher: _Matcher):
        self.decls, self.names, self.places = matcher.decls, matcher.names, matcher.places
        self.toks = tokens
        self.problems = problems
        self.i = 0

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

    def drop(self, mark: int):
        """Take back the declarations accepted after the first ``mark``."""
        for decl in self.decls[mark:]:
            del self.names[type(decl)][decl.name]
            if type(decl) is PairDecl:
                del self.places[decl.name]
        del self.decls[mark:]

    # statements

    def run(self) -> Model:
        toks, self.i = self.toks, 0
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


# --- stretches ---------------------------------------------------------------

# the start of the next line that opens with a declaration keyword, where a
# stretch read by the token parser ends
_STRETCH_END = re.compile(rf"\n(?=(?:{'|'.join(_TOP)})\W)")


def _ahead(text: str, pos: int, lines: int) -> int:
    """The start of the ``lines``-th line after ``pos`` that opens with a
    declaration keyword, or the end of the text."""
    for _ in range(lines):
        found = _STRETCH_END.search(text, pos)
        if found is None:
            return len(text)
        pos = found.end()
    return pos


def read_from(matcher: _Matcher, text: str, start: int) -> Model | list[Diagnostic]:
    """Parse ``text`` from ``start``, where ``matcher`` stopped, to the end.

    The token parser reads each stretch the matcher stops at.  A statement
    that reads the end of its stretch would have read the keyword there, so
    the stretch's declarations are taken back and it is read again up to the
    next keyword line, then to twice as many lines past that, and so on until
    no statement overruns: a text of ``n`` such lines is lexed about twice,
    never ``n`` times.  Diagnostics keep the token parser's order over the
    whole text: the lexer's, then the parser's.
    """
    problems: list = []
    parser = _Parser([], problems, matcher)
    end = len(text)
    lexer, placed, line, seen, rest = [], [], 1, 0, False
    while start < end:
        stop, lines = end if rest else _ahead(text, start, 1), 1
        while True:
            mark, first = len(parser.decls), len(problems)
            parser.toks, odd = _lex(text, start, stop)
            parser.run()
            if stop == end or len(problems) == first or problems[-1][0] < len(parser.toks) - 1:
                break
            parser.drop(mark)  # a statement read the end of the stretch: widen it
            del problems[first:]
            stop, lines = _ahead(text, stop, lines), 2 * lines
        if odd or len(problems) > first:
            line += text.count("\n", seen, start)
            seen = start
            diags = _diagnose(text, odd, problems[first:], start, stop, line)
            cut = len(diags) - len(problems) + first
            lexer += diags[:cut]
            placed += diags[cut:]
            start = matcher.match(text, stop)
        else:  # valid, spelled otherwise: the token parser reads the rest
            start, rest = stop, True
    return lexer + placed or Model(tuple(parser.decls))
