import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpairs import dsl, tokens
from modpairs.blowup import BlowupSpec
from modpairs.correspondences import CorrLocalRecord, NonConstantCorr, from_monomial_param
from modpairs.dsl import (
    MAX_INT_DIGITS,
    BlowupDecl,
    CorrDecl,
    Diagnostic,
    MapDecl,
    Model,
    PairDecl,
    QPairDecl,
    format_decl,
    format_diagnostic,
    parse,
    print_model,
)
from modpairs.pairs import Chart, Divisor, MonomialMap, Pair, PairMap, StructureError
from modpairs.qdivisors import QPair
from modpairs.tokens import _Parser, _place
from oracles import reference_lex
from randgen import random_model

MALFORMED_DIR = Path(__file__).parent / "data" / "malformed"
EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"

# expected (code, line, column) per corpus file, frozen from the file layout:
# each offending token was placed by hand, almost always at column 1.
MALFORMED_EXPECTED = {
    name: [tuple(entry) for entry in entries]
    for name, entries in json.loads((MALFORMED_DIR / "expected.json").read_text()).items()
}

DEMO = """\
pair X { dim 1; coords t; divisor { t: 1 } }
pair Y { dim 1; coords s; divisor { s: 3 } }
map f : X -> Y { s <- t^2 }
corr C monomial(2, 3, 1, 1)
qpair Q = (6, X)
pair Z { dim 2; coords x y; divisor { x: 1, y: 1 } }
blowup B on Z center { x, y }
"""


def parsed(text):
    model = parse(text)
    assert isinstance(model, Model), model
    return model


def span_offset(text, line, column):
    lines = text.split("\n")
    assert 1 <= line <= len(lines) + 1
    return sum(len(l) + 1 for l in lines[: line - 1]) + column - 1


class TestParse:
    def test_pair_golden(self):
        model = parsed("pair X { dim 1; coords t; divisor { t: 1 } }")
        decl = model.namespace(PairDecl)["X"]
        assert decl.pair == Pair(Chart(("t",)), Divisor((1,)))

    def test_map_golden(self):
        model = parsed(DEMO)
        assert model.namespace(MapDecl)["f"].pair_map.map.expo == ((2,),)

    def test_corr_monomial_golden(self):
        model = parsed(DEMO)
        decl = model.namespace(CorrDecl)["C"]
        assert decl.monomial == (2, 3, 1, 1)
        assert decl.corr.records == (CorrLocalRecord("0", 1, 1, 2, 3),)

    def test_qpair_and_blowup(self):
        model = parsed(DEMO)
        assert model.namespace(QPairDecl)["Q"].qpair.level == 6
        assert model.namespace(BlowupDecl)["B"].spec.center == frozenset({0, 1})

    def test_comments_and_whitespace(self):
        text = "# heading\n  pair   X{dim 1;coords t;divisor{t:1}}  # trailing\n"
        assert parsed(text).namespace(PairDecl)["X"].pair.divisor.mults == (1,)

    def test_point_chart(self):
        model = parsed("pair P { dim 0; coords; divisor {} }")
        assert model.namespace(PairDecl)["P"].pair.chart.dim == 0

    def test_missing_divisor_clause_means_zero(self):
        model = parsed("pair X { dim 2; coords a b; }")
        assert model.namespace(PairDecl)["X"].pair.divisor.mults == (0, 0)

    def test_corr_points_form(self):
        text = (
            "pair X { dim 1; coords t; divisor { t: 1 } }\n"
            "pair Y { dim 1; coords s; divisor { s: 1 } }\n"
            "corr C : X -> Y { point a { nx 1; ny 1; ex 2; ey 3 } "
            "point b { nx 0; ny 0; ex 1; ey 1 } }\n"
        )
        decl = parsed(text).namespace(CorrDecl)["C"]
        assert decl.src == "X" and decl.dst == "Y"
        assert len(decl.corr.records) == 2

    def test_monomial_accumulates_repeated_factor(self):
        text = (
            "pair X { dim 1; coords t; divisor {} }\n"
            "pair Y { dim 1; coords s; divisor {} }\n"
            "map f : X -> Y { s <- t * t^2 }\n"
        )
        assert parsed(text).namespace(MapDecl)["f"].pair_map.map.expo == ((3,),)

    def test_map_rows_are_sparse_and_sorted(self):
        text = (
            "pair X { dim 3; coords a b c; divisor {} }\n"
            "pair Y { dim 2; coords s t; divisor {} }\n"
            "map f : X -> Y { s <- c * a^0 * b^2 * c; t <- b^0 }\n"
        )
        for spelling in (text, text.replace(" <- ", " <-  ")):  # the matcher's, then the token parser's
            f = parsed(spelling).namespace(MapDecl)["f"].pair_map.map
            assert f.rows == (((1, 2), (2, 2)), ()) and f.expo == ((0, 2, 2), (0, 0, 0))

    def test_empty_text(self):
        assert parsed("") == Model(())
        assert print_model(Model(())) == ""

    def test_name_index(self):
        model = parsed(DEMO)
        rebuilt = Model(model.decls)  # keeps no index: ``namespace`` scans ``decls``
        for kind in (PairDecl, MapDecl, CorrDecl, QPairDecl, BlowupDecl):
            assert dict(rebuilt.namespace(kind)) == dict(model.namespace(kind))
        assert list(model.namespace(PairDecl)) == ["X", "Y", "Z"]
        with pytest.raises(TypeError):
            model.namespace(PairDecl)["W"] = model.namespace(PairDecl)["X"]


class TestPrint:
    def test_canonical_golden(self):
        model = parsed("pair X { dim 1; coords t; divisor { t: 1 } }")
        assert print_model(model) == "pair X { dim 1; coords t; divisor {t: 1} }\n"

    def test_zero_entries_omitted(self):
        model = parsed("pair X { dim 2; coords a b; divisor { a: 0, b: 2 } }")
        assert format_decl(model.decls[0]) == "pair X { dim 2; coords a b; divisor {b: 2} }"

    def test_demo_round_trip(self):
        model = parsed(DEMO)
        assert parse(print_model(model)) == model

    def test_print_parse_idempotent(self):
        canonical = print_model(parsed(DEMO))
        assert print_model(parsed(canonical)) == canonical

    def test_map_empty_target(self):
        text = (
            "pair X { dim 1; coords t; divisor {} }\n"
            "pair P { dim 0; coords; divisor {} }\n"
            "map f : X -> P { }\n"
        )
        model = parsed(text)
        assert format_decl(model.namespace(MapDecl)["f"]) == "map f : X -> P { }"
        assert parse(print_model(model)) == model


class TestDiagnostics:
    @pytest.mark.parametrize("name", sorted(MALFORMED_EXPECTED))
    def test_corpus_file(self, name):
        text = (MALFORMED_DIR / name).read_text()
        result = parse(text)
        assert isinstance(result, list) and result
        got = [(d.code, d.line, d.column) for d in result]
        assert got == MALFORMED_EXPECTED[name]

    @pytest.mark.parametrize("name", sorted(MALFORMED_EXPECTED))
    def test_spans_in_bounds(self, name):
        text = (MALFORMED_DIR / name).read_text()
        for diag in parse(text):
            start = span_offset(text, diag.line, diag.column)
            assert 0 <= start <= len(text)
            assert start + diag.length <= len(text)

    def test_corpus_is_large_enough(self):
        assert len(list(MALFORMED_DIR.glob("*.lp"))) >= 20

    def test_recovery_reports_later_statements(self):
        text = (MALFORMED_DIR / "m24_two_bad_statements.lp").read_text()
        assert len(parse(text)) == 2

    def test_forward_reference_rejected(self):
        result = parse("map f : X -> X { }\npair X { dim 0; coords; divisor {} }\n")
        assert [d.code for d in result] == ["E021"]

    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_literal_length_bound(self):
        longest = "1" * MAX_INT_DIGITS
        parser = _Parser(longest, dsl._Matcher())
        parser.restart(0)
        assert not parser.lexer and parser.toks == [longest]
        text = f"qpair Q = (1{longest}, X)"
        result = parse(text)
        assert [(d.code, d.column, d.length) for d in result] == [("E012", 12, MAX_INT_DIGITS + 1)]


# Pieces of DSL text and odd characters: letters and numerals outside ASCII
# (a superscript two, an Arabic-Indic three, a Roman numeral, a CJK numeral),
# a combining mark, a non-breaking space, every line ending, comments.
_LEX_PIECES = st.sampled_from(
    ["pair", "map", "x1", "_t", "42", "007", " ", "\t", "\n", "\r\n", "\r", "# note", "#",
     "->", "<-", "-", "<", ">", "{", "}", "(", ")", ":", ";", ",", "=", "^", "*", "@",
     "\u00b2", "\u00bd", "\u0663", "\u2167", "\u4e00", "\u00e9", "\u00df", "\u0301", "\u00a0"]
)


def token_kind(tok):
    if not tok:
        return "eof"
    if "0" <= tok[0] <= "9":
        return "int"
    if tok[0].isalpha() or tok[0] == "_":
        return "ident"
    return tok


def lexed(text):
    """The token parser's tokens and lexer diagnostics, stepped through the
    whole text, in the shape of ``reference_lex``.

    Positions come from ``_place``, asked to place a probe at every token.
    """
    parser = _Parser(text, dsl._Matcher())
    parser.restart(0)
    while parser.toks[parser.i]:
        parser.step()
    tokens = parser.toks
    probes = [(at, len(tok), "probe", "P000") for at, tok in zip(parser.at, tokens)]
    diags = _place(text, parser.lexer + probes)
    lexer_diags, placed = diags[: -len(tokens)], diags[-len(tokens):]
    assert all(d.severity == "error" for d in diags)
    assert [d.length for d in placed] == [len(tok) for tok in tokens]
    return (
        [(token_kind(tok), tok, d.line, d.column) for tok, d in zip(tokens, placed)],
        [(d.line, d.column, d.length, d.message, d.code) for d in lexer_diags],
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(_LEX_PIECES | st.characters(), max_size=60).map("".join))
def test_lexer_matches_reference(text):
    assert lexed(text) == reference_lex(text)


def test_lexer_matches_reference_on_a_long_text():
    # positions far from offset 0: stray characters, words that start with a
    # numeral other than an ASCII digit, and one over-long literal per 100 lines
    rng = random.Random(3)
    odd = ["@", "\u00b2x", "\u00b2\u00b25y", "\u0663", "-", "<", "\u00a0"]
    lines = []
    for n in range(1200):
        words = [rng.choice(["pair", "p_1", "\u00e9t\u00e9", "42", "{", "}", "->", "<-", ";", "# c @ \u00b2"])
                 for _ in range(rng.randrange(6))]
        if n % 7 == 0:
            words.insert(rng.randrange(len(words) + 1), rng.choice(odd))
        if n % 100 == 50:
            words.insert(0, "9" * (MAX_INT_DIGITS + 1 + n // 100))
        lines.append(rng.choice([" ", "\t", ""]).join(words))
    text = "\r\n".join(lines[:600]) + "\n" + "\n".join(lines[600:])
    tokens, diags = lexed(text)
    want_tokens, want_diags = reference_lex(text)
    assert tokens == want_tokens
    long_literals = [
        (line, column, len(tok), f"integer literal longer than {MAX_INT_DIGITS} digits", "E012")
        for kind, tok, line, column in want_tokens
        if kind == "int" and len(tok) > MAX_INT_DIGITS
    ]
    assert len(long_literals) == 12 and len(want_diags) > 150
    assert diags == sorted(want_diags + long_literals)
    assert tokens[-1][2] == len(lines)
    assert parse(text)[: len(diags)] == [Diagnostic(*d) for d in diags]


# Statement words, so that drawn texts also reach the parser's deeper states.
_PARSE_PIECES = st.sampled_from(
    ["dim", "coords", "divisor", "corr", "qpair", "blowup", "point", "nx", "ny", "ex", "ey",
     "monomial", "on", "center", "pair X { dim 1; coords t; divisor { t: 1 } }\n", "X", "t", "1", "0"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LEX_PIECES | _PARSE_PIECES | st.characters(), max_size=60).map("".join))
def test_parse_is_total_and_spans_stay_in_bounds(text):
    result = parse(text)
    if isinstance(result, Model):
        return
    assert result and all(isinstance(d, Diagnostic) and d.severity == "error" for d in result)
    lines = text.split("\n")
    for d in result:
        assert 1 <= d.line <= text.count("\n") + 1
        assert d.column >= 1 and d.length >= 0
        assert d.column - 1 + d.length <= len(lines[d.line - 1])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_models(seed):
    model = random_model(random.Random(seed))
    text = print_model(model)
    again = parse(text)
    assert again == model
    assert print_model(again) == text


@st.composite
def monomial_texts(draw):
    """A monomial in ``a``, ``b`` and ``c`` with repeated factors and ``^0`` factors, or ``1``."""
    factors = draw(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from(["", "^0", "^1", "^2", "^13"])),
                            max_size=6))
    return " * ".join(coord + power for coord, power in factors) or "1"


@settings(max_examples=150, deadline=None)
@given(st.lists(monomial_texts(), min_size=2, max_size=2), st.booleans())
def test_each_map_read_equals_its_rebuild_from_expo(monomials, spaced):
    text = (
        "pair S { dim 3; coords a b c; divisor {} }\n"
        "pair T { dim 2; coords y z; divisor {} }\n"
        f"map f : S -> T {{ y <- {monomials[0]}; z <- {monomials[1]} }}\n"
    )
    if spaced:  # the matcher refuses it, so the token parser reads it
        text = text.replace(" <- ", "  <- ")
    f = parsed(text).namespace(MapDecl)["f"].pair_map.map
    again = MonomialMap(f.source, f.target, f.expo)
    assert f == again and hash(f) == hash(again) and repr(f) == repr(again)
    # the expo sums each coordinate's exponents, a bare factor counting 1
    want = []
    for monomial in monomials:
        row = [0, 0, 0]
        for factor in re.findall(r"([abc])(?:\^(\d+))?", monomial):
            row["abc".index(factor[0])] += int(factor[1] or 1)
        want.append(tuple(row))
    assert f.expo == tuple(want)


# --- the statement matcher against the token path ---------------------------


def token_parse(text):
    """``parse`` by the token path alone, from offset 0: the reference."""
    parser = _Parser(text, dsl._Matcher())
    parser.restart(0)
    while parser.toks[parser.i]:
        parser.statement()
    return _place(text, parser.lexer + parser.problems) or dsl._model(tuple(parser.matcher.decls))


# Pieces a mutation inserts or puts in place of a cut: numerals and letters
# outside ASCII, a stray character, an over-long literal, a CRLF line end, a
# comment, punctuation and statement words.
_MUTATION_PIECES = st.sampled_from(
    ["\u00b2", "@", "\u00e9", "\u216b", "\u0661", "1" * (MAX_INT_DIGITS + 1), "\r\n", "#c\n", "",
     " ", "{", "}", "(", ")", ":", ";", ",", "=", "^", "*", "->", "<-", "0", "007",
     "pair", "map", "corr", "qpair", "blowup", "point", "dim", "coords", "divisor", "monomial", "center"]
)


@st.composite
def mutated_model_texts(draw):
    """Canonical text of a random model, then up to three mutations: a piece
    inserted, cut or put in place of a cut; a word in place of another word of
    the text or of a piece; a ``;``, ``,`` or ``point`` cut, alone or with the
    clause up to the next one; a line repeated elsewhere or dropped."""
    text = print_model(random_model(random.Random(draw(st.integers(0, 10**9)))))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["piece", "word", "clause", "line"]))
        if op == "piece":
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 4))  # 0 inserts; with the piece "" it deletes
            text = text[:at] + draw(_MUTATION_PIECES) + text[at + cut:]
        elif op == "word":
            words = [(m.start(), m.end()) for m in re.finditer(r"\w+", text)]
            if words:
                start, end = draw(st.sampled_from(words))
                word = draw(st.sampled_from([text[i:j] for i, j in words]) | _MUTATION_PIECES)
                text = text[:start] + word + text[end:]
        elif op == "clause":
            sep = draw(st.sampled_from(["; ", ", ", " point"]))
            cuts = [m.start() for m in re.finditer(sep, text)]
            if cuts:
                at = draw(st.sampled_from(cuts))
                end = text.find(sep, at + 1)
                if end < 0 or draw(st.booleans()):  # the separator alone
                    end = at + len(sep) - 1
                text = text[:at] + text[end:]
        else:
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), lines[i])
            else:
                del lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=500, deadline=None)
@given(mutated_model_texts())
def test_parse_matches_the_token_path(text):
    assert parse(text) == token_parse(text)


CANONICAL = print_model(parse(DEMO))
DEMO_LINES = CANONICAL.splitlines()


def with_line(number, line, text=CANONICAL):
    lines = text.split("\n")
    lines[number - 1] = line
    return "\n".join(lines)


@pytest.mark.parametrize("text, want", [
    # X is unknown to the statements that use it
    (with_line(1, "pair X { dim 2; coords t; divisor {t: 1} }"), [("E030", 1, 14), ("E021", 3, 9), ("E021", 5, 15)]),
    (with_line(4, "corr C monomial(0, 3, 1, 1)"), [("E052", 4, 17)]),
    (with_line(7, "blowup B on Z center { x, q }"), [("E032", 7, 27)]),
    (with_line(7, "blowup B on Z center { x, q }\r", CANONICAL.replace("\n", "\r\n")), [("E032", 7, 27)]),
    (with_line(5, "qpair Q = (6, X) @"), [("E001", 5, 18)]),
], ids=["first", "middle", "last", "last-crlf", "stray-after"])
def test_fault_placed_after_the_hand_off(text, want):
    result = parse(text)
    assert [(d.code, d.line, d.column) for d in result] == want
    assert result == token_parse(text)


# Statements the matcher reads whole, each a trap for reading a matched
# statement by splitting it on the separators its pattern fixed.
SPLIT_EDGE_CASES = {
    "point-labelled-nx-and-ey": DEMO_LINES[0] + "\ncorr D : X -> X { point nx { nx 1; ny 2; ex 3; ey 4 } "
                                "point ey { nx 5; ny 0; ex 1; ey 6 } }\n",
    "coords-point-and-coords": "pair P { dim 2; coords point coords; divisor {point: 1, coords: 2} }\n"
                               "map g : P -> P { point <- coords^2 * point; coords <- 1 }\n"
                               "blowup A on P center { point, coords }\n",
    "exponents-one-and-zero-in-a-product": DEMO_LINES[5] + "\nmap g : Z -> Z { x <- x^1 * y^0; y <- y^0 * x^2 * y^1 }\n",
    "one-row-between-factor-rows": "pair W { dim 3; coords a b c; divisor {b: 2} }\n"
                                   "map g : W -> W { a <- b * c^3; b <- 1; c <- a^2 * b }\n",
    "unicode-tail-names": "pair W { dim 2; coords t\u00e9 s\u00b2; divisor {t\u00e9: 1, s\u00b2: 2} }\n"
                          "map g : W -> W { t\u00e9 <- s\u00b2^2 * t\u00e9; s\u00b2 <- t\u00e9^3 }\n",
    "corr-without-points": DEMO_LINES[0] + "\ncorr D : X -> X { }\n",
    "corr-of-twenty-points": DEMO_LINES[0] + "\ncorr D : X -> X { " + " ".join(
        [f"point p{i} {{ nx {i}; ny {i % 3}; ex {i + 1}; ey {20 - i} }}" for i in range(20)]) + " }\n",
}


@pytest.mark.parametrize("text", SPLIT_EDGE_CASES.values(), ids=SPLIT_EDGE_CASES.keys())
def test_the_matcher_reads_the_split_edge_cases_whole(text):
    assert dsl._Matcher().match(text) == len(text)


def test_the_dsl_compiles_one_pattern_per_form_and_the_gap():
    # a reader reads a matched statement by its separators, with no regex of its own
    found = ([v.pattern for v in vars(dsl).values() if isinstance(v, re.Pattern)]
             + [p.pattern for p, _ in dsl._FORMS.values()])
    assert sorted(found) == sorted([dsl._GAP.pattern] + [form[0].pattern for form in dsl._FORMS.values()])
    assert len(found) == 1 + len(dsl.KEYWORDS) == 6


@pytest.mark.parametrize("text", [
    *SPLIT_EDGE_CASES.values(),
    CANONICAL.replace("\n", "\r\n"),
    CANONICAL.replace("coords x y;", "coords x # note\ny;"),
    DEMO_LINES[0] + "\n" + DEMO_LINES[0].replace("X", "W") + "\ncorr D : X -> W { point a { nx 1; ny 2; ex 3; ey 4; } }\n",
    DEMO_LINES[0].replace("{t: 1}", "{t: 0}"),
    DEMO_LINES[0].replace("dim 1", "dim 007") + "\nqpair Q = (007, X)\n",
    CANONICAL.replace("s <- t^2", "s <- 01"),
    CANONICAL.replace("s <- t^2", "s <- t^007"),
    "pair pair { dim 1; coords divisor; divisor {divisor: 1} }\nqpair map = (1, pair)\n"
    "blowup center on pair center { divisor }\n",
    DEMO_LINES[0] + "\nqpair Q = (" + "1" * (MAX_INT_DIGITS + 1) + ", X)\n" + DEMO_LINES[1],
    DEMO_LINES[0] + "\nqpair Q = (" + "1" * MAX_INT_DIGITS + ", X)\n",
    CANONICAL.replace("pair Y", "pair \u00e9t\u00e9").replace("-> Y", "-> \u00e9t\u00e9"),
    CANONICAL.replace("coords t;", "coords t\u00b2;").replace("t: 1", "t\u00b2: 1").replace("t^2", "t\u00b2^2"),
    CANONICAL.replace("pair Y", "pair \u00b2Y"),
    CANONICAL.replace("pair Y", "pair \u216bY"),
    CANONICAL.replace("\n", "\n\u00a0", 1),
    "\x0c" + CANONICAL,
    EXAMPLE.read_text(),
    DEMO_LINES[0] + "\ncorr D : X -> X { point { nx 1; ny 1; ex 1; ey 1 } }\n" + DEMO_LINES[1],
    DEMO_LINES[0] + "\ncorr D : X -> X { point ; nx 1; ny 1; ex 1; ey 1 } }\n" + DEMO_LINES[1],
    DEMO_LINES[0] + "\ncorr D : X -> X { point",
    "pair X { dim 1; coords t; divisor { t: 1 } } \u00b25\u00b2x",
], ids=[*SPLIT_EDGE_CASES, "crlf", "comment-inside", "point-trailing-semicolon", "zero-entry",
        "leading-zeros", "monomial-01", "exponent-007", "keywords-as-names", "long-literal",
        "longest-literal", "non-ascii-name", "superscript-in-name", "numeral-led-name", "roman-numeral-led-name",
        "no-break-space", "form-feed", "example", "point-label-brace", "point-label-semicolon",
        "point-label-end", "numeral-led-after-statement"])
def test_edge_cases_match_the_token_path(text):
    assert parse(text) == token_parse(text)


# one statement per check the token parser makes, spelled canonically but
# for the fault, put in before the last statement of the demo
@pytest.mark.parametrize("statement, code", [
    ("pair X { dim 0; coords; divisor {} }", "E020"),
    ("map f : X -> Y { s <- t }", "E020"),
    ("corr C monomial(1, 1, 1, 1)", "E020"),
    ("qpair Q = (1, X)", "E020"),
    ("blowup B on Z center { x }", "E020"),
    ("map g : W -> Y { s <- 1 }", "E021"),
    ("map g : X -> W { }", "E021"),
    ("corr D : X -> W { }", "E021"),
    ("qpair R = (1, W)", "E021"),
    ("blowup A on W center { x }", "E021"),
    ("pair W { dim 2; coords a; divisor {} }", "E030"),
    ("pair W { dim 2; coords a a; divisor {} }", "E031"),
    ("pair W { dim 1; coords a; divisor {b: 1} }", "E032"),
    ("map g : X -> Y { r <- t }", "E032"),
    ("map g : X -> Y { s <- r }", "E032"),
    ("map g : Z -> Y { s <- x * r^2 }", "E032"),
    ("blowup A on Z center { r }", "E032"),
    ("pair W { dim 2; coords a b; divisor {a: 1, a: 2} }", "E033"),
    ("map g : Z -> Z { x <- x }", "E040"),
    ("map g : X -> Y { s <- t; s <- 1 }", "E041"),
    ("map g : X -> Y { s <- 2 }", "E042"),
    ("corr D : X -> Y { point a { nx 1; ny 1; ex 1; ey 1 } point a { nx 1; ny 1; ex 1; ey 1 } }", "E050"),
    ("corr D : X -> Y { point a { nx 1; ny 1; ex 0; ey 1 } }", "E051"),
    ("corr D : X -> Y { point a { nx 1; ny 1; ex 1; ey 0 } }", "E051"),
    ("corr D monomial(0, 1, 1, 1)", "E052"),
    ("corr D monomial(1, 0, 1, 1)", "E052"),
    ("qpair R = (0, X)", "E060"),
    ("blowup A on Z center { }", "E070"),
    ("blowup A on Z center { x, x }", "E071"),
    ("corr D : Z -> Y { }", "E080"),
    ("corr D : X -> Z { }", "E080"),
    ("pair W { dim 2; coords a b; divisor {a: 1 b: 2} }", "E011"),
    ("map g : Z -> Z { x <- x y <- y }", "E011"),
    ("blowup A on Z center { x y }", "E011"),
    ("map g : Z -> Y { s <- x^2 * y * x }", None),
    ("corr D : X -> Y { point a { nx 0; ny 9; ex 1; ey 1 } point b { nx 1; ny 0; ex 2; ey 3 } }", None),
    # a pair on an earlier pair's coordinate text, which the matcher reads
    # through the earlier chart's index, then a fault only that index sees
    ("pair W { dim 2; coords x y; divisor {q: 1} }", "E032"),
    ("pair W { dim 3; coords x y; divisor {} }", "E030"),
    ("pair W { dim 2; coords x y; divisor {x: 1} }\nmap g : W -> Y { s <- x * q }", "E032"),
    ("pair W { dim 1; coords s; divisor {} }\nmap g : X -> W { t <- t }", "E032"),
    ("pair W { dim 2; coords x y; divisor {x: 1, y: 1} }\nblowup A on W center { y, y }", "E071"),
    ("pair W { dim 2; coords x y; divisor {y: 2} }\nmap g : W -> Z { x <- x * y; y <- 1 }\n"
     "blowup A on W center { x, y }", None),
    # the same after a pair the token path read, on old and on new coordinates
    ("pair W { dim 2; coords x y; divisor { x: 1 } }\nmap g : W -> Y { s <- x * q }", "E032"),
    ("pair W { dim 2; coords a b; divisor { a: 1 } }\nmap g : W -> Y { s <- a; s <- b }", "E041"),
    ("pair W { dim 2; coords a b; divisor { a: 1 } }\nblowup A on W center { a, a }", "E071"),
])
def test_each_check_matches_the_token_path(statement, code):
    text = "\n".join(DEMO_LINES[:6] + [statement] + DEMO_LINES[6:]) + "\n"
    result = parse(text)
    assert result == token_parse(text)
    assert [d.code for d in result] == [code] if code else isinstance(result, Model)


@pytest.mark.parametrize("keyword, name", [("pair", "X"), ("map", "f"), ("corr", "C"), ("qpair", "Q"), ("blowup", "B")])
def test_each_keyword_names_its_own_statement(keyword, name):
    # one statement head serves every form; its messages name the keyword read
    result = parse(f"{keyword} 1 {{")
    assert [(format_diagnostic(d), d.length) for d in result] == [
        (f"1:{len(keyword) + 2}: error: expected a {keyword} name, found integer '1' [E011]", 1)
    ]
    result = parse(DEMO + f"{keyword} {name} {{")
    assert [format_diagnostic(d) for d in result] == [
        f"8:{len(keyword) + 2}: error: duplicate {keyword} name '{name}' [E020]"
    ]


_LINE = "pair X { dim 1; coords t; }\n"
_POINT = "point a { nx 1; ny 1; ex 1; ey 1 }"


@pytest.mark.parametrize("text, line", [
    ("foo", "1:1: error: expected a declaration ('pair', 'map', 'corr', 'qpair' or 'blowup'), found name 'foo' [E010]"),
    ("pair X { dim 2; coords t; }", "1:14: error: dim 2 does not match the 1 declared coordinate(s) [E030]"),
    ("pair X { dim 2; coords t t; }", "1:26: error: duplicate coordinate 't' [E031]"),
    ("map f : Q -> Q { }", "1:9: error: unknown pair 'Q' [E021]"),
    ("pair X { dim 1; coords t; divisor {s: 1} }", "1:36: error: unknown coordinate 's' [E032]"),
    ("pair X { dim 1; coords t; divisor {t: 1, t: 2} }",
     "1:42: error: coordinate 't' appears twice in the divisor [E033]"),
    (_LINE + "map f : X -> X { }", "2:18: error: map does not assign target coordinate 't' [E040]"),
    (_LINE + "map f : X -> X { t <- t; t <- t }", "2:26: error: target coordinate 't' assigned twice [E041]"),
    (_LINE + "map f : X -> X { t <- 2 }", "2:23: error: only the literal 1 denotes the empty monomial [E042]"),
    (_LINE + f"corr C : X -> X {{ {_POINT} {_POINT} }}", "2:60: error: duplicate point label 'a' [E050]"),
    (_LINE + "corr C : X -> X { point a { nx 1; ny 1; ex 0; ey 1 } }",
     "2:44: error: ramification degrees must be positive [E051]"),
    ("corr C monomial(0, 1, 1, 1)", "1:17: error: parametrization exponents must be positive [E052]"),
    ("corr C monomial(1, 0, 1, 1)", "1:20: error: parametrization exponents must be positive [E052]"),
    (_LINE + "qpair Q = (0, X)", "2:12: error: level must be a positive integer [E060]"),
    (_LINE + "blowup B on X center { }", "2:15: error: blowup center must name at least one coordinate [E070]"),
    (_LINE + "blowup B on X center { t, t }", "2:27: error: coordinate 't' appears twice in the center [E071]"),
    ("pair X { dim 2; coords s t; }\ncorr C : X -> X { }",
     "2:10: error: correspondence endpoint 'X' must be a one-dimensional pair [E080]"),
    # E011 names what it found by the token's class: punctuation, a literal, the end
    (_LINE + "corr C : X -> X { point { nx 1; ny 1; ex 1; ey 1 } }",
     "2:25: error: expected a point label, found '{' [E011]"),
    ("pair X { dim 1; coords 1; }", "1:24: error: expected ';' after the coordinate list, found integer '1' [E011]"),
    ("pair X {", "1:9: error: expected 'dim', found end of input [E011]"),
], ids=["E010", "E021", "E030", "E031", "E032", "E033", "E040", "E041", "E042", "E050", "E051", "E052-first",
        "E052-second", "E060", "E070", "E071", "E080", "E011-punctuation", "E011-literal", "E011-end"])
def test_each_diagnostic_says_what_it_found(text, line):
    # expected.json holds only (code, line, column); this pins the words too
    assert [format_diagnostic(d) for d in parse(text)] == [line]


# Derived forms read out of order: divisor entries, a `: 0` entry, targets, a
# repeated factor, a `^0` factor, the monomial 1 and a center.
BUILT = """\
pair S { dim 3; coords x y z; divisor {z: 2, x: 1, y: 0} }
pair T { dim 3; coords u v w; divisor {} }
map f : S -> T { w <- 1; u <- z^0; v <- y * x^2 * y }
blowup B on S center { z, x }
"""


@pytest.mark.parametrize("text, read", [(BUILT, len(BUILT)), (BUILT.replace(" ", "  "), 0)],
                         ids=["canonical", "hand-spelled"])
def test_each_reader_builds_what_the_constructors_build(text, read):
    # both readers share one builder per derived form, so each is checked
    # against the public constructors with a dense exponent matrix
    assert dsl._Matcher().match(text) == read  # the matcher reads all of it, or the token parser does
    s = Pair(Chart(("x", "y", "z")), Divisor((1, 0, 2)))
    t = Pair(Chart(("u", "v", "w")), Divisor((0, 0, 0)))
    f = PairMap(MonomialMap(s.chart, t.chart, ((0, 0, 0), (2, 2, 0), (0, 0, 0))), s, t)
    assert parsed(text).decls == (
        PairDecl("S", s),
        PairDecl("T", t),
        MapDecl("f", "S", "T", f),
        BlowupDecl("B", "S", BlowupSpec(s, frozenset({0, 2}))),
    )


def test_a_duplicate_pair_keeps_the_first_coordinates():
    # the map must be read against X's coordinate t, not the duplicate's u
    statements = ["pair X { dim 1; coords u; divisor {} }", "map h : X -> X { u <- u }"]
    text = "\n".join(DEMO_LINES[:6] + statements + DEMO_LINES[6:]) + "\n"
    result = parse(text)
    assert result == token_parse(text)
    assert [d.code for d in result] == ["E020", "E032"]


def test_pairs_on_the_same_coordinates_share_one_chart_within_a_parse():
    # U and k are hand-spelled, so the token parser reads them; u is canonical
    # again and refers to U
    text = CANONICAL + (
        "pair W { dim 2; coords x y; divisor {y: 3} }\npair V { dim 1; coords t; divisor {} }\n"
        "map g : W -> Z { x <- x; y <- y^2 }\nmap h : V -> X { t <- t }\n"
        "pair U { dim 1; coords t; divisor { t: 2 } }\nmap k : Z -> W { x <- x ; y <- y ^ 3 }\n"
        "map u : U -> X { t <- t }\n"
    )
    model, again = parsed(text), parsed(text)
    pairs = model.namespace(PairDecl)
    charts = {}
    for decl in pairs.values():
        assert charts.setdefault(decl.pair.chart.coords, decl.pair.chart) is decl.pair.chart
    assert len(charts) < len(pairs)
    assert pairs["U"].pair.chart is pairs["X"].pair.chart is pairs["V"].pair.chart
    for decl in model.namespace(MapDecl).values():
        f = decl.pair_map.map
        assert f.source is pairs[decl.src].pair.chart and f.target is pairs[decl.dst].pair.chart
    # a second parse builds charts of its own
    assert again == model
    assert all(a.pair.chart is not b.pair.chart for a in pairs.values() for b in again.namespace(PairDecl).values())


def test_canonical_text_never_reaches_the_lexer(monkeypatch):
    # a silent fall-back to the token path would keep every other test green;
    # point labels may be numerals, as from_monomial_param's "0" is
    numeric_labels = parsed(
        DEMO_LINES[0] + "\ncorr D : X -> X { point 0 { nx 1; ny 1; ex 1; ey 1 } }\n"
        "corr E : X -> X { point 007 { nx 0; ny 2; ex 1; ey 3 } point a0 { nx 1; ny 1; ex 2; ey 2 } }\n"
    )
    models = [parse(EXAMPLE.read_text()), numeric_labels] + [random_model(random.Random(seed)) for seed in range(300)]
    texts = [print_model(model) for model in models]

    def refuse(*args):
        raise AssertionError("canonical text reached the lexer")

    monkeypatch.setattr(_Parser, "restart", refuse)
    for model, text in zip(models, texts):
        assert parse(text) == model
        assert parse(text.replace("\n", "\r\n")) == model


# --- recovery: the token path reads only the statements the matcher stops at


def stray_in_gap(rng, line):
    """``line`` with a stray character put in at one of its spaces: a fault
    only the lexer reports, so the statement is still accepted."""
    gaps = [i for i, ch in enumerate(line) if ch == " "]
    at = rng.choice(gaps)
    return line[:at] + " " + rng.choice(["@", "²", "-", "<"]) + line[at:]


@st.composite
def multi_fault_texts(draw):
    """Canonical text of a random model with 2 to 6 statements faulted, one
    fault each: a stray character, a mutation piece, a cut, hand spacing, a
    line break before a word that becomes a declaration keyword, which makes
    a continuation line open with a keyword used as a name, or the last one
    or two closing brackets cut, which leaves the statement open into the
    next declaration line.  Some lines are joined with a space, so a line
    may hold several statements; the line ends are LF or CRLF."""
    lines = print_model(random_model(random.Random(draw(st.integers(0, 10**9))))).split("\n")[:-1]
    count = min(len(lines), draw(st.integers(2, 6)))
    faulted = draw(st.lists(st.integers(0, len(lines) - 1), min_size=count, max_size=count, unique=True))
    for i in faulted:
        line = lines[i]
        op = draw(st.sampled_from(["stray", "keyword-line", "piece", "cut", "closer", "spaced"]))
        if op == "stray":
            line = stray_in_gap(random.Random(draw(st.integers(0, 99))), line)
        elif op == "keyword-line":
            words = [m.span() for m in re.finditer(r"(?<= )\w+", line)]
            start, end = draw(st.sampled_from(words))
            line = line[:start - 1] + "\n" + draw(st.sampled_from(list(dsl.KEYWORDS.values()))) + line[end:]
        elif op == "piece":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(_MUTATION_PIECES) + line[at + draw(st.integers(0, 3)):]
        elif op == "cut":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif op == "closer":
            closers = [m.start() for m in re.finditer(r" ?[})]", line)]
            line = line[:draw(st.sampled_from(closers[-2:]))]
        else:
            line = line.replace("{", "{ ", 1).replace(": ", " : ")
        lines[i] = line
    text = "".join(line + draw(st.sampled_from(["\n", "\n", " "])) for line in lines)
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(multi_fault_texts())
def test_multi_fault_text_matches_the_token_path(text):
    assert parse(text) == token_parse(text)


@pytest.mark.parametrize("text, want", [
    (with_line(5, "qpair Q = (0, X)", with_line(4, "corr C monomial(0, 3, 1, 1)")),
     [("E052", 4, 17), ("E060", 5, 12)]),
    (with_line(7, "blowup B on Z center { x, q }", with_line(3, "map f : X -> Y { s <- q }")),
     [("E032", 3, 23), ("E032", 7, 27)]),
    (with_line(3, "map f : X -> Y { s <- q }\n# @ ² - in a comment", with_line(5, "qpair Q = (0, X)")),
     [("E032", 3, 23), ("E060", 6, 12)]),
    (with_line(7, "blowup B on Z center { x, x }",
               with_line(6, "pair Z { dim 2; coords x y; divisor { x: 1, y: 1 } }",
                         with_line(2, "pair Y { dim 1; coords s; divisor {s: 3} } @"))),
     [("E001", 2, 44), ("E071", 7, 27)]),
    (with_line(6, "pair Z { dim 2; coords x\npair; divisor {x: 1} }", with_line(4, "corr C monomial(0, 3, 1, 1)")),
     [("E052", 4, 17), ("E032", 8, 27)]),
    (with_line(6, "qpair R = ( 1, X ) pair W { dim 2; coords a\npair; divisor {} }", with_line(4, "corr C monomial(0, 3, 1, 1)")),
     [("E052", 4, 17), ("E021", 8, 13)]),
    (with_line(3, "map f : X -> Y { s <- t^2"), [("E011", 4, 1)]),
    (with_line(6, "pair Z { dim 2; coords x y; divisor {x: 1, y: 1}", with_line(3, "map f : X -> Y { s <- t^2")),
     [("E011", 4, 1), ("E011", 7, 1), ("E021", 7, 13)]),
    (with_line(6, "pair Z { dim 3; coords x\npair\npair; divisor {x: 1} }", with_line(4, "corr C monomial(0, 3, 1, 1)")),
     [("E052", 4, 17), ("E031", 8, 1), ("E021", 9, 13)]),
    # the matcher stops where the token parser stands, on the literal, which
    # a restart there would lex, and report, a second time
    ("pair X {dim 1; coords t; divisor {t: 1}}\n" + "9" * (MAX_INT_DIGITS + 1)
     + " pair Y { dim 1; coords s; divisor {s: 1} }\n", [("E012", 2, 1), ("E010", 2, 1)]),
], ids=["adjacent-lines", "last-statement", "stray-in-comment-between", "hand-spaced-after-fault", "overrun",
        "overrun-after-a-statement", "unclosed", "two-unclosed", "overrun-twice", "literal-where-the-matcher-stops"])
def test_faults_in_several_stretches(text, want):
    for text in (text, text.replace("\n", "\r\n")):
        result = parse(text)
        assert [(d.code, d.line, d.column) for d in result] == want
        assert result == token_parse(text)


def test_only_faulted_statements_reach_the_lexer(monkeypatch):
    # k faults in k statements with canonical statements between them: the
    # token parser restarts once per faulted statement, at its start, and
    # lexes nothing past the next statement's first token
    runs = []  # [offset of a restart, the last offset lexed before the next one or the end]
    restart = _Parser.restart

    def recording(self, pos):
        if self.at:
            runs[-1].append(self.at[-1])
        runs.append([pos])
        recording.parser = self
        restart(self, pos)

    monkeypatch.setattr(_Parser, "restart", recording)
    for seed in range(200):
        rng = random.Random(seed)
        lines = print_model(random_model(rng)).split("\n")[:-1]
        faulted = rng.sample(range(0, len(lines), 2), rng.randint(1, (len(lines) + 1) // 2))
        for i in faulted:
            lines[i] = stray_in_gap(rng, lines[i])
        for newline in ("\n", "\r\n"):
            text = newline.join(lines) + newline
            starts = [0]
            for line in lines:
                starts.append(starts[-1] + len(line) + len(newline))
            runs.clear()
            result = parse(text)
            runs[-1].append(recording.parser.at[-1])
            assert runs == [[starts[i], starts[i + 1]] for i in sorted(faulted)]
            assert result == token_parse(text) and len(result) == len(faulted)


def test_a_statement_over_many_lines_is_lexed_once(monkeypatch):
    # a coordinate list continued over n lines that open with a keyword: each
    # token is lexed once, as the parser first steps onto it
    calls = []
    token_pattern = tokens._TOKEN

    class Counting:
        def match(self, text, pos=0):
            calls.append(pos)
            return token_pattern.match(text, pos)

    n = 1000
    statement = "pair W { dim %d; coords a" % (n + 1) + "\npair" * n + "; divisor {} }"
    text = "\n".join(DEMO_LINES[:6] + [statement] + DEMO_LINES[6:]) + "\n"
    monkeypatch.setattr(tokens, "_TOKEN", Counting())
    result = parse(text)
    monkeypatch.undo()
    assert result == token_parse(text)
    assert [(d.code, d.line) for d in result] == [("E031", 9)]
    assert len(calls) < len(token_pattern.findall(statement)) + 40


# --- a model is what its text reads back as ----------------------------------

_LINE = Pair(Chart(("t",)), Divisor((1,)))
_PLANE = Pair(Chart(("x", "y")), Divisor((1, 0)))
_X, _Z = PairDecl("X", _LINE), PairDecl("Z", _PLANE)
_ENDO = PairMap(MonomialMap.identity(_LINE.chart), _LINE, _LINE)
_LONG = 10 ** MAX_INT_DIGITS  # the least integer of MAX_INT_DIGITS + 1 digits
_E012 = f"error: integer literal longer than {MAX_INT_DIGITS} digits [E012]"
_OTHER = "reads back as another declaration"


def _points(*labels):
    return NonConstantCorr(tuple(CorrLocalRecord(label, 1, 1, 1, 1) for label in labels))


class _EqualToAny(str):
    """A name equal to every string, so that only the count of what its line
    reads back as can tell the line from the declaration."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other):
        return True


_TWO = "X { dim 1; coords t; divisor {t: 1} }\npair Y"  # a name that spells a whole statement and the next's head


@pytest.mark.parametrize("decls, line, why", [
    ((PairDecl("X", Pair(Chart(("a b",)), Divisor((1,)))),), "pair X { dim 1; coords a b; divisor {a b: 1} }",
     "1:14: error: dim 1 does not match the 2 declared coordinate(s) [E030]"),
    ((PairDecl("X", Pair(Chart(("1x",)), Divisor((1,)))),), "pair X { dim 1; coords 1x; divisor {1x: 1} }",
     "1:24: error: expected ';' after the coordinate list, found integer '1' [E011]"),
    ((PairDecl("P#", _LINE),), "pair P# { dim 1; coords t; divisor {t: 1} }",
     "1:44: error: expected '{', found end of input [E011]"),
    ((PairDecl("", _LINE),), "pair  { dim 1; coords t; divisor {t: 1} }",
     "1:7: error: expected a pair name, found '{' [E011]"),
    ((PairDecl(7, _LINE),), "pair 7 { dim 1; coords t; divisor {t: 1} }",
     "1:6: error: expected a pair name, found integer '7' [E011]"),
    ((_X, CorrDecl("c", _points("}"), "X", "X")), "corr c : X -> X { point } { nx 1; ny 1; ex 1; ey 1 } }",
     "1:25: error: expected a point label, found '}' [E011]"),
    ((_X, CorrDecl("c", _points("1" * (MAX_INT_DIGITS + 1)), "X", "X")),
     f"corr c : X -> X {{ point {'1' * (MAX_INT_DIGITS + 1)} {{ nx 1; ny 1; ex 1; ey 1 }} }}", "1:25: " + _E012),
    ((_X, PairDecl("X", _LINE)), "pair X { dim 1; coords t; divisor {t: 1} }",
     "1:6: error: duplicate pair name 'X' [E020]"),
    ((MapDecl("f", "X", "X", _ENDO), _X), "map f : X -> X { t <- t }", "1:9: error: unknown pair 'X' [E021]"),
    ((_X, PairDecl("Y", Pair(Chart(("s",)), Divisor((1,)))), MapDecl("f", "Y", "X", _ENDO)),
     "map f : Y -> X { t <- t }", "1:23: error: unknown coordinate 't' [E032]"),
    ((_X, PairDecl("W", Pair(_LINE.chart, Divisor((2,)))), MapDecl("f", "X", "W", _ENDO)),
     "map f : X -> W { t <- t }", _OTHER),
    ((_X, _Z, QPairDecl("q", "X", QPair(2, _PLANE))), "qpair q = (2, X)", _OTHER),
    ((_X, _Z, BlowupDecl("b", "X", BlowupSpec(_PLANE, {0}))), "blowup b on X center { x }",
     "1:24: error: unknown coordinate 'x' [E032]"),
    ((_Z, CorrDecl("c", _points(), "Z", "Z")), "corr c : Z -> Z { }",
     "1:10: error: correspondence endpoint 'Z' must be a one-dimensional pair [E080]"),
    ((CorrDecl("c", _points(), "X", "X"),), "corr c : X -> X { }", "1:10: error: unknown pair 'X' [E021]"),
    ((_X, CorrDecl("c", from_monomial_param(2, 3, 1, 1), src="X")),
     "corr c : X -> None { point 0 { nx 1; ny 1; ex 2; ey 3 } }", "1:15: error: unknown pair 'None' [E021]"),
    ((_X, CorrDecl("c", from_monomial_param(2, 3, 1, 1), dst="X")),
     "corr c : None -> X { point 0 { nx 1; ny 1; ex 2; ey 3 } }", "1:10: error: unknown pair 'None' [E021]"),
    ((CorrDecl("c", _points("w")),), "corr c : None -> None { point w { nx 1; ny 1; ex 1; ey 1 } }",
     "1:10: error: unknown pair 'None' [E021]"),
    ((CorrDecl("c", _points()),), "corr c : None -> None { }", "1:10: error: unknown pair 'None' [E021]"),
    ((PairDecl("X", Pair(_LINE.chart, Divisor((10**400,)))),),
     f"pair X {{ dim 1; coords t; divisor {{t: {10**400}}} }}", "1:39: " + _E012),
    ((_X, MapDecl("f", "X", "X", PairMap(MonomialMap(_LINE.chart, _LINE.chart, ((_LONG,),)), _LINE, _LINE))),
     f"map f : X -> X {{ t <- t^{_LONG} }}", "1:25: " + _E012),
    ((CorrDecl("c", from_monomial_param(2, 3, _LONG, 1)),), f"corr c monomial(2, 3, {_LONG}, 1)", "1:23: " + _E012),
    ((_X, QPairDecl("q", "X", QPair(_LONG, _LINE))), f"qpair q = ({_LONG}, X)", "1:12: " + _E012),
    ((PairDecl("X\nY", _LINE),), "pair X\nY { dim 1; coords t; divisor {t: 1} }",
     "2:1: error: expected '{', found name 'Y' [E011]"),
    ((PairDecl("X\n", _LINE),), "pair X\n { dim 1; coords t; divisor {t: 1} }", _OTHER),
    ((PairDecl(_TWO, _LINE),), f"pair {_TWO} {{ dim 1; coords t; divisor {{t: 1}} }}", _OTHER),
    ((PairDecl(_EqualToAny(_TWO), _LINE),), f"pair {_TWO} {{ dim 1; coords t; divisor {{t: 1}} }}", _OTHER),
], ids=["blank-in-a-coordinate", "numeral-led-coordinate", "hash-in-a-name", "empty-name", "name-not-a-string",
        "brace-label", "over-long-literal-label", "name-twice", "map-before-its-pair", "map-source-another-chart",
        "map-target-another-divisor", "qpair-on-another-chart", "blowup-on-another-pair",
        "two-dimensional-endpoint", "undeclared-endpoint", "source-endpoint-only", "target-endpoint-only",
        "no-endpoints-other-records", "no-endpoints-no-records", "over-long-multiplicity", "over-long-exponent",
        "over-long-corr-parameter", "over-long-level", "newline-in-a-name", "newline-ending-a-name",
        "name-spelling-a-second-statement", "name-spelling-a-second-statement-equal-to-any-name"])
def test_print_model_refuses_what_parse_cannot_read_back(decls, line, why):
    # Model refuses each of these, whose text parse refuses or reads as
    # another model, the over-long label too, which the token parser keeps
    # beside its E012; the message quotes the declaration's line
    with pytest.raises(StructureError) as info:
        Model(decls)
    assert str(info.value) == f"{line!r}: {why}"


@pytest.mark.parametrize("decls", [
    (PairDecl("\u00e9", Pair(Chart(("\u00fc", "_1", "a\u00b2")), Divisor((2, 0, _LONG - 1)))),),
    (_X, CorrDecl("c", _points("007", "w", "pair", "\u00e9"), "X", "X"), CorrDecl("d", _points(), "X", "X")),
    (_X, PairDecl("pair", _LINE), MapDecl("map", "pair", "X", _ENDO), QPairDecl("X", "X", QPair(1, _LINE))),
    (_Z, BlowupDecl("b", "Z", BlowupSpec(_PLANE, {1, 0})), CorrDecl("Z", from_monomial_param(1, _LONG - 1, 0, 3))),
], ids=["unicode-names", "labels", "keywords-as-names", "one-namespace-per-kind"])
def test_print_model_prints_what_parse_reads_back(decls):
    model = Model(decls)
    assert parse(print_model(model)) == model


def test_a_blowup_center_is_printed_in_chart_order():
    # a set of two indices that iterates in the other order
    assert list(frozenset({1, 8})) == [8, 1]
    pair = Pair(Chart(tuple("abcdefghi")), Divisor((1,) * 9))
    decl = BlowupDecl("b", "P", BlowupSpec(pair, frozenset({1, 8})))
    assert decl.center_coords == ("b", "i")
    model = Model((PairDecl("P", pair), decl))
    assert print_model(model).endswith("blowup b on P center { b, i }\n")
    assert parse(print_model(model)) == model


def test_a_monomial_corr_is_the_one_record_of_its_parametrization():
    assert CorrDecl("c", from_monomial_param(2, 3, 1, 4)).monomial == (2, 3, 1, 4)
    # endpoints, another label, or another number of records: a point list
    assert CorrDecl("c", from_monomial_param(2, 3, 1, 4), "X", "X").monomial is None
    assert CorrDecl("c", NonConstantCorr((CorrLocalRecord("w", 1, 4, 2, 3),))).monomial is None
    assert CorrDecl("c", _points()).monomial is None
    assert CorrDecl("c", _points("0", "1")).monomial is None


class _UserPairDecl(PairDecl):
    __slots__ = ()


class _UserPair(Pair):
    __slots__ = ()


@pytest.mark.parametrize("decl", [_UserPairDecl("X", _LINE), PairDecl("X", _UserPair(_LINE.chart, _LINE.divisor))],
                         ids=["subclass-declaration", "subclass-pair"])
def test_a_value_of_a_subclass_is_refused(decl):
    # its line reads back as the base classes, another declaration, so no
    # model, and no run_command on one, meets a subclass
    with pytest.raises(StructureError) as info:
        Model((decl, QPairDecl("q", "X", QPair(2, _LINE))))
    assert str(info.value) == "'pair X { dim 1; coords t; divisor {t: 1} }': reads back as another declaration"


def test_a_model_refuses_what_is_not_a_declaration():
    with pytest.raises(TypeError):
        Model((_LINE,))


@pytest.mark.parametrize("decl, named", [
    (PairDecl("Y", "notapair"), "PairDecl 'Y'"),
    (PairDecl("Y", None), "PairDecl 'Y'"),
    (MapDecl("f", "X", "X", None), "MapDecl 'f'"),
    (MapDecl("f", "X", "X", _LINE), "MapDecl 'f'"),
    (QPairDecl("q", "X", None), "QPairDecl 'q'"),
    (BlowupDecl("b", "X", None), "BlowupDecl 'b'"),
    (BlowupDecl(7, "X", None), "BlowupDecl with a name of class int"),
], ids=["pair-a-string", "pair-none", "map-none", "map-a-pair", "qpair-none", "blowup-none", "blowup-int-name"])
def test_a_model_refuses_a_field_of_another_class(decl, named):
    # no declaration constructor checks its value field, so that parse pays nothing;
    # the read-back names the declaration whose line cannot be written
    with pytest.raises(StructureError) as info:
        Model((_X, decl))
    assert str(info.value) == f"{named}: a field holds a value of another class"


def _holding(n):
    """Models with ``n`` in one integer field each, by the field's id, with the
    declaration that holds it as ``Model``'s message names it."""
    record = NonConstantCorr((CorrLocalRecord("w", n, 1, 1, 1),))
    return {
        "multiplicity": ((PairDecl("X", Pair(_LINE.chart, Divisor((n,)))),), "PairDecl 'X'"),
        "map-exponent": ((_X, MapDecl("f", "X", "X", PairMap(MonomialMap(_LINE.chart, _LINE.chart, ((n,),)),
                                                                 _LINE, _LINE))), "MapDecl 'f'"),
        "corr-record-field": ((_X, CorrDecl("c", record, "X", "X")), "CorrDecl 'c'"),
        "qpair-level": ((_X, QPairDecl("q", "X", QPair(n, _LINE))), "QPairDecl 'q'"),
    }


def _refused_past_the_digit_limit(field, digits):
    decls, named = _holding(10 ** (digits - 1))[field]
    with pytest.raises(StructureError) as info:
        Model(decls)
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < digits:
        # no line can be written, and no repr of the declaration either
        assert str(info.value) == f"{named}: an integer has more than {MAX_INT_DIGITS} digits"
    else:  # no digit limit (before Python 3.10.7, or set to 0): the line is written and its literal refused
        assert str(info.value).endswith(_E012)


@pytest.mark.parametrize("field", list(_holding(1)))
def test_an_integer_past_the_digit_limit_is_a_structure_error(field):
    _refused_past_the_digit_limit(field, 4301)  # one digit past the interpreter's default limit


@pytest.mark.usefixtures("lowest_digit_limit")
@pytest.mark.parametrize("field", list(_holding(1)))
def test_an_integer_past_the_lowest_digit_limit_is_a_structure_error(field):
    _refused_past_the_digit_limit(field, 641)


@pytest.mark.usefixtures("lowest_digit_limit")
def test_a_name_past_the_digit_limit_is_named_by_its_class():
    # the name is the integer that cannot be written, so the message cannot quote it either
    with pytest.raises(StructureError) as info:
        Model((PairDecl(10 ** 5000, _LINE),))
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert str(info.value) == f"PairDecl with a name of class int: an integer has more than {MAX_INT_DIGITS} digits"


_NAMES = st.from_regex(r"[A-Za-z_\u00e9][\w\u00b2]{0,2}", fullmatch=True)


@st.composite
def library_models(draw):
    """Declarations built through the library's constructors: text names, coordinates
    and labels, references now and then to another name or holding another
    pair than the one named, corrs with any endpoints.  Half of them take
    only names and small integers, so that most of those make a model."""
    decls, pairs = [], []  # pairs: (name, pair) as declared
    if draw(st.booleans()):
        words, ints, positive = _NAMES, st.integers(0, 9), st.integers(1, 9)
    else:
        words = st.one_of(_NAMES, st.text(max_size=3))
        ints = st.one_of(st.integers(0, 9), st.sampled_from([_LONG - 1, _LONG]))
        positive = st.one_of(st.integers(1, 9), st.sampled_from([_LONG - 1, _LONG]))

    def reference():
        name, pair = draw(st.sampled_from(pairs))
        if draw(st.integers(0, 5)) == 0:
            name = draw(words)
        if draw(st.integers(0, 5)) == 0:
            pair = draw(st.sampled_from(pairs))[1]
        return name, pair

    for _ in range(draw(st.integers(0, 6))):
        kind, name = draw(st.sampled_from(["pair", "pair", "map", "corr", "qpair", "blowup"])), draw(words)
        if kind == "pair" or not pairs:
            coords = draw(st.lists(words.filter(bool), max_size=3, unique=True))
            pair = Pair(Chart(coords), Divisor(draw(st.lists(ints, min_size=len(coords), max_size=len(coords)))))
            pairs.append((name, pair))
            decls.append(PairDecl(name, pair))
        elif kind == "map":
            (src, s), (dst, d) = reference(), reference()
            rows = draw(st.lists(st.lists(ints, min_size=s.chart.dim, max_size=s.chart.dim),
                                 min_size=d.chart.dim, max_size=d.chart.dim))
            decls.append(MapDecl(name, src, dst, PairMap(MonomialMap(s.chart, d.chart, rows), s, d)))
        elif kind == "corr":
            if draw(st.booleans()):
                corr = from_monomial_param(draw(positive), draw(positive), draw(ints), draw(ints))
            else:
                labels = draw(st.lists(st.one_of(words, st.integers(0, 99).map(str)), max_size=3, unique=True))
                corr = NonConstantCorr(tuple(
                    CorrLocalRecord(label, draw(ints), draw(ints), draw(positive), draw(positive))
                    for label in labels
                ))
            ends = draw(st.sampled_from(["both", "both", "both", "none", "source", "target"]))
            src = reference()[0] if ends in ("both", "source") else None
            dst = reference()[0] if ends in ("both", "target") else None
            decls.append(CorrDecl(name, corr, src, dst))
        elif kind == "qpair":
            ref, pair = reference()
            decls.append(QPairDecl(name, ref, QPair(draw(positive), pair)))
        else:
            ref, pair = reference()
            if pair.chart.dim:
                center = draw(st.sets(st.integers(0, pair.chart.dim - 1), min_size=1))
                decls.append(BlowupDecl(name, ref, BlowupSpec(pair, center)))
    return tuple(decls)


@settings(max_examples=300, deadline=None)
@given(library_models())
def test_print_model_round_trips_or_refuses_any_library_model(decls):
    lines = [format_decl(decl) for decl in decls]
    try:
        model = Model(decls)
    except StructureError as exc:
        # it names one of the lines, and parse does not read their text back as the declarations
        assert any(str(exc).startswith(f"{line!r}: ") for line in lines)
        again = parse("".join(line + "\n" for line in lines))
        assert not isinstance(again, Model) or again.decls != decls
        return
    again = parse(print_model(model))
    assert isinstance(again, Model), [format_diagnostic(d) for d in again]
    assert again == model
