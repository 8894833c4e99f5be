"""Independent recomputations used to pin expected values in tests.

The symbolic oracles substitute actual monomials with sympy and read off
vanishing orders; they never touch the exponent-matrix arithmetic they are
checking.  The brute-force oracles scan twist levels directly, comparing
integers entry by entry.  The reference kernels are the entry-by-entry loops
the column-wise kernels replaced, and the reference lexer steps through the
text one character at a time.  No oracle calls a modpairs predicate or kernel;
from modpairs they take only the value classes they build and the errors they
raise.
"""

import sympy

from modpairs.blowup import BlowupChart, InvalidBlowupError
from modpairs.correspondences import CorrLocalRecord, NonConstantCorr
from modpairs.pairs import Divisor, MonomialMap, StructureError


def _symbols(chart):
    return [sympy.Symbol(f"v{i}") for i in range(chart.dim)]


def pullback_orders(monomial_map, divisor):
    """Vanishing order along each source hyperplane of the substituted product."""
    xs = _symbols(monomial_map.source)
    expr = sympy.Integer(1)
    for j in range(monomial_map.target.dim):
        image = sympy.Integer(1)
        for i, e in enumerate(monomial_map.expo[j]):
            image *= xs[i] ** e
        expr *= image ** divisor.mults[j]
    expr = sympy.expand(expr)
    return tuple(int(sympy.degree(expr, x)) for x in xs)


def compose_matrix(g, f):
    """Exponent matrix of g after f, found by symbolic substitution."""
    xs = _symbols(f.source)
    images = []
    for j in range(f.target.dim):
        image = sympy.Integer(1)
        for i, e in enumerate(f.expo[j]):
            image *= xs[i] ** e
        images.append(image)
    rows = []
    for k in range(g.target.dim):
        expr = sympy.Integer(1)
        for j, e in enumerate(g.expo[k]):
            expr *= images[j] ** e
        expr = sympy.expand(expr)
        rows.append(tuple(int(sympy.degree(expr, x)) for x in xs))
    return tuple(rows)


def blowup_transform_orders(pair, center, j):
    """Total-transform multiplicities in the chart where ``j`` is exceptional.

    Substitutes y_j = x_j, y_b = x_j * x_b for other center coordinates b,
    y_i = x_i elsewhere, into the divisor equation, and reads off orders.
    """
    d = pair.chart.dim
    xs = [sympy.Symbol(f"v{i}") for i in range(d)]
    expr = sympy.Integer(1)
    for r in range(d):
        if r == j or r not in center:
            image = xs[r]
        else:
            image = xs[j] * xs[r]
        expr *= image ** pair.divisor.mults[r]
    expr = sympy.expand(expr)
    return tuple(int(sympy.degree(expr, x)) for x in xs)


def reference_pullback(map, divisor):
    """``pullback`` as first written: ``E_i = sum_j expo[j][i] * D_j``, one index at a time."""
    if len(divisor) != map.target.dim:
        raise StructureError(
            f"divisor has {len(divisor)} entries for a target of dimension {map.target.dim}"
        )
    mults = tuple(
        sum(map.expo[j][i] * divisor.mults[j] for j in range(map.target.dim))
        for i in range(map.source.dim)
    )
    return Divisor(mults)


def reference_compose(g, f):
    """``compose`` as first written: each entry of the matrix product indexed out."""
    if f.target != g.source:
        raise StructureError("cannot compose: target of the first map differs from source of the second")
    rows = tuple(
        tuple(
            sum(g.expo[k][j] * f.expo[j][i] for j in range(f.target.dim))
            for i in range(f.source.dim)
        )
        for k in range(g.target.dim)
    )
    return MonomialMap(f.source, g.target, rows)


def reference_blowup_charts(spec):
    """``blowup_charts`` as first written: each total transform pulled back along its chart map."""
    if not any(spec.pair.divisor.mults[i] for i in spec.center):
        raise InvalidBlowupError("blowup center misses the divisor support")
    chart = spec.pair.chart
    d = chart.dim
    out = []
    for j in sorted(spec.center):
        rows = []
        for r in range(d):
            row = [0] * d
            row[r] = 1
            if r in spec.center and r != j:
                row[j] += 1
            rows.append(tuple(row))
        chart_map = MonomialMap(chart, chart, tuple(rows))
        out.append(BlowupChart(j, chart_map, reference_pullback(chart_map, spec.pair.divisor)))
    return tuple(out)


def brute_minimal_twist(f, limit=64):
    """Least n <= limit making the twisted source admissible, else None."""
    pulled = reference_pullback(f.map, f.dst.divisor).mults
    for n in range(1, limit + 1):
        if all(n * s >= e for s, e in zip(f.src.divisor.mults, pulled)):
            return n
    return None


def scale_source_coeffs(corr, n):
    return NonConstantCorr(
        tuple(
            CorrLocalRecord(r.label, n * r.n_x, r.n_y, r.e_x, r.e_y)
            for r in corr.records
        )
    )


def brute_corr_minimal_twist(corr, limit=64):
    """Least n <= limit whose rescaled records pass the level-one test, else None."""
    for n in range(1, limit + 1):
        if all(n * r.n_x * r.e_x >= r.n_y * r.e_y for r in corr.records):
            return n
    return None


def reference_lex(text):
    """Tokens ``(kind, text, line, column)`` and diagnostics ``(line, column, length, message, code)``.

    The DSL lexer as first written, walking one character at a time; integer
    literals take ASCII digits only.  It knows no bound on literal length.
    """
    tokens, diags = [], []
    line, col, i, n = 1, 1, 0, len(text)

    def bump(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            bump()
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                bump()
            continue
        if ch.isalpha() or ch == "_":
            l0, c0, j = line, col, i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                bump()
            tokens.append(("ident", text[j:i], l0, c0))
            continue
        if "0" <= ch <= "9":
            l0, c0, j = line, col, i
            while i < n and "0" <= text[i] <= "9":
                bump()
            tokens.append(("int", text[j:i], l0, c0))
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("->", "->", line, col))
            bump(2)
            continue
        if ch == "<" and i + 1 < n and text[i + 1] == "-":
            tokens.append(("<-", "<-", line, col))
            bump(2)
            continue
        if ch in "{}():;,=^*":
            tokens.append((ch, ch, line, col))
            bump()
            continue
        diags.append((line, col, 1, f"unexpected character {ch!r}", "E001"))
        bump()
    tokens.append(("eof", "", line, col))
    return tokens, diags
