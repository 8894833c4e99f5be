"""Chart-level laws of least twists: checked on every case of a small scope.

A log morphism X -> Y is a monomial map that is admissible after a finite
twist of the source, Hom_log(X, Y) = colim_n Hom(X^(n), Y), and such
morphisms must compose: when twists by mt(f) and mt(g) make f and g
admissible, a twist by mt(f)·mt(g) makes g∘f admissible.  The map verdicts
must agree with the least twist mt, which is missing exactly when a
hyperplane the pulled-back divisor needs is missing from the source, and
twisting source and target by the same m must leave it unchanged.

The scope: pairs on the charts of dimension 0, 1 and 2 with every
multiplicity 0, 1 or 2, and every map between them whose exponents are 0
or 1; the laws are checked on every composable pair X -> Y -> Z of such
maps.  The expected least twists come from the oracle, never from a
kernel: ``pullback_orders`` substitutes the monomials with sympy, once per
exponent matrix and divisor, and a ceiling ratio per coordinate gives the
least twist.  The composite's pulled-back divisor is the orders along f of
the orders along g, so ``compose`` is checked as well.

Three more laws, each on its own small scope and against plain integer
arithmetic: each blowup chart map is minimal from the chart with the total
transform to the pair; the graph of a nonconstant map between curve pairs
has the map's verdicts; and levelled divisors are equal exactly when their
gcd-reduced forms are.

The kernels build their results past the public constructors' checks, so a
last law holds every result on these scopes to what those constructors
would build from the same fields.
"""

import math
from functools import cache
from itertools import combinations, product

from modpairs.blowup import BlowupClass, BlowupSpec, blowup_charts, classify
from modpairs.correspondences import (
    ConstantCorr,
    corr_minimal_twist,
    graph_corr,
    in_colim_mcor,
    in_lcor,
    in_mcor,
)
from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    Value,
    compose,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    pullback,
    twist,
)
from modpairs.qdivisors import QPair, cube, q_eq, q_normalize, q_transition
from oracles import pullback_orders

DIMS, MULTS, EXPONENTS = range(3), range(3), range(2)
CHARTS = [Chart(("u", "v")[:d]) for d in DIMS]
PAIRS = [[Pair(CHARTS[d], Divisor(mults)) for mults in product(MULTS, repeat=d)] for d in DIMS]


def matrices(src: int, dst: int):
    """Every exponent matrix of a map from dimension ``src`` to ``dst``."""
    return product(product(EXPONENTS, repeat=src), repeat=dst)


@cache
def orders(expo: tuple, src: int, dst: int, mults: tuple) -> tuple[int, ...]:
    """The divisor ``mults`` pulled back along ``expo``, by the oracle."""
    return pullback_orders(MonomialMap(CHARTS[src], CHARTS[dst], expo), Divisor(mults))


def supported(have: tuple, need: tuple) -> bool:
    """Whether every hyperplane that ``need`` counts is in ``have`` too."""
    return not any(e and not h for h, e in zip(have, need))


def least_twist(have: tuple, need: tuple) -> int | None:
    """Least n >= 1 with n·have >= need entry by entry, or None when a
    needed hyperplane is missing from ``have``."""
    if not supported(have, need):
        return None
    return max([1] + [(e + h - 1) // h for h, e in zip(have, need) if e])


def test_each_map_has_the_oracles_least_twist():
    cases = 0
    for dx, dy in product(DIMS, repeat=2):
        for expo in matrices(dx, dy):
            m = MonomialMap(CHARTS[dx], CHARTS[dy], expo)
            for y in PAIRS[dy]:
                pulled = orders(expo, dx, dy, y.divisor.mults)
                for x in PAIRS[dx]:
                    assert minimal_twist(PairMap(m, x, y)) == least_twist(x.divisor.mults, pulled)
                    cases += 1
    assert cases == 1555


def each_map():
    """Every map of the scope, with the oracle's pulled-back divisor."""
    for dx, dy in product(DIMS, repeat=2):
        for expo in matrices(dx, dy):
            m = MonomialMap(CHARTS[dx], CHARTS[dy], expo)
            for y in PAIRS[dy]:
                pulled = orders(expo, dx, dy, y.divisor.mults)
                for x in PAIRS[dx]:
                    yield m, x, y, pulled


def test_the_verdicts_agree_with_the_least_twist():
    # admissible iff mt = 1, minimal (source = pullback) implies admissible,
    # hom-log iff mt exists; a twist by mt is admissible and one by mt - 1 is not
    cases = 0
    for m, x, y, pulled in each_map():
        f, mt = PairMap(m, x, y), least_twist(x.divisor.mults, pulled)
        assert is_admissible(f) == (mt == 1)
        assert is_minimal(f) == (x.divisor.mults == pulled)
        assert not is_minimal(f) or mt == 1
        assert hom_log_exists(f) == (mt is not None)
        if mt is not None:
            assert is_admissible(PairMap(m, twist(x, mt), y))
            assert mt == 1 or not is_admissible(PairMap(m, twist(x, mt - 1), y))
        cases += 1
    assert cases == 1555


def test_no_least_twist_iff_a_needed_hyperplane_is_missing():
    # when every needed hyperplane is there, n = max(pulled) already covers
    # each entry, so a search up to one past it finds a twist whenever one exists
    for m, x, y, pulled in each_map():
        have = x.divisor.mults
        found = any(all(n * h >= e for h, e in zip(have, pulled)) for n in range(1, max(pulled, default=0) + 2))
        assert (minimal_twist(PairMap(m, x, y)) is None) == (not supported(have, pulled)) == (not found)


def test_twist_is_an_endofunctor():
    # twisting source and target by the same m scales both sides of every
    # ceiling ratio, so the least twist stays as it is
    for m, x, y, pulled in each_map():
        mt = least_twist(x.divisor.mults, pulled)
        for k in (1, 2, 3):
            assert minimal_twist(PairMap(m, twist(x, k), twist(y, k))) == mt


def test_least_twists_compose():
    cases = 0
    for dx, dy, dz in product(DIMS, repeat=3):
        for f_expo, g_expo in product(matrices(dx, dy), matrices(dy, dz)):
            f = MonomialMap(CHARTS[dx], CHARTS[dy], f_expo)
            g_after_f = compose(MonomialMap(CHARTS[dy], CHARTS[dz], g_expo), f)
            # mt(f), by source and middle pair
            mt_f = [[least_twist(x.divisor.mults, orders(f_expo, dx, dy, y.divisor.mults)) for y in PAIRS[dy]]
                    for x in PAIRS[dx]]
            for z in PAIRS[dz]:
                on_y = orders(g_expo, dy, dz, z.divisor.mults)
                on_x = orders(f_expo, dx, dy, on_y)
                mt_g = [least_twist(y.divisor.mults, on_y) for y in PAIRS[dy]]
                for x, mt_fx in zip(PAIRS[dx], mt_f):
                    n = minimal_twist(PairMap(g_after_f, x, z))
                    assert n == least_twist(x.divisor.mults, on_x)
                    for a, b in zip(mt_fx, mt_g):
                        if a is not None and b is not None:
                            assert n is not None and n <= a * b
                    cases += len(mt_g)
    assert cases == 227557


def test_the_identity_has_least_twist_one_and_is_minimal():
    for d in DIMS:
        identity = MonomialMap.identity(CHARTS[d])
        for x in PAIRS[d]:
            assert minimal_twist(PairMap(identity, x, x)) == 1
            assert is_minimal(PairMap(identity, x, x))


def valid_blowups():
    """Every pair of dimension 1-3 with multiplicities 0-2, with every center
    that meets the divisor's support."""
    for d in (1, 2, 3):
        chart = Chart(("u", "v", "w")[:d])
        for mults, size in product(product(MULTS, repeat=d), range(1, d + 1)):
            pair = Pair(chart, Divisor(mults))
            for center in combinations(range(d), size):
                spec = BlowupSpec(pair, frozenset(center))
                if classify(spec) is not BlowupClass.INVALID:
                    yield spec


def test_each_blowup_chart_map_is_minimal_onto_the_pair():
    # the divisor pulled back along a chart map is each source column of
    # exponents summed against the multiplicities
    charts = 0
    for spec in valid_blowups():
        pair = spec.pair
        mults = pair.divisor.mults
        for bc in blowup_charts(spec):
            pulled = tuple(sum(row[i] * m for row, m in zip(bc.chart_map.expo, mults)) for i in range(len(mults)))
            assert bc.total_transform.mults == pulled
            assert is_minimal(PairMap(bc.chart_map, Pair(pair.chart, bc.total_transform), pair))
            charts += 1
    assert charts == 306


def test_the_graph_of_a_curve_map_has_the_maps_verdicts():
    # t -> t^m from multiplicity p to q pulls the divisor back to m·q, so the
    # graph's level-one, twisted and log tests and its least twist read the
    # map's least twist on (p,) against (m·q,), and whether p divides m·q; a
    # constant map (m = 0) is the base point instead, in the interior only
    # when q = 0, and differs from the map wherever q > 0
    curve = CHARTS[1]
    differ = 0
    for m, p, q in product(range(4), repeat=3):
        f = PairMap(MonomialMap(curve, curve, ((m,),)), Pair(curve, Divisor((p,))), Pair(curve, Divisor((q,))))
        c, mt = graph_corr(f), least_twist((p,), (m * q,))
        verdicts = (in_mcor(c), in_colim_mcor(c), corr_minimal_twist(c), in_lcor(c))
        expected = (mt == 1, mt is not None, mt, m * q == 0 if p == 0 else m * q % p == 0)
        if m == 0:
            assert c == ConstantCorr(image_in_interior=(q == 0))
            differ += verdicts != expected
        else:
            assert verdicts == expected
    assert differ == 12


def normal_form(level: int, mults: tuple) -> tuple:
    """The level and multiplicities divided by their gcd."""
    g = math.gcd(level, *mults)
    return level // g, tuple(m // g for m in mults)


def levelled(d: int) -> list[QPair]:
    """Every level 1-4 over multiplicities 0-3 on the chart of dimension ``d``."""
    return [QPair(level, Pair(CHARTS[d], Divisor(mults)))
            for level, mults in product(range(1, 5), product(range(4), repeat=d))]


def test_levelled_divisors_are_equal_iff_their_normal_forms_are():
    # a transition to level·k scales the divisor and keeps the value
    for d in DIMS:
        qpairs = levelled(d)
        forms = [normal_form(q.level, q.pair.divisor.mults) for q in qpairs]
        for q, form in zip(qpairs, forms):
            n = q_normalize(q)
            assert (n.level, n.pair.divisor.mults) == form and n.pair.chart == q.pair.chart
            for k in (1, 2, 3):
                moved = q_transition(q, k)
                assert normal_form(moved.level, moved.pair.divisor.mults) == form and q_eq(q, moved)
        for (a, form_a), (b, form_b) in product(zip(qpairs, forms), repeat=2):
            assert q_eq(a, b) == (form_a == form_b)


def rebuilt(value: Value) -> Value:
    """``value`` built again from its fields through the public constructors, all the way down."""
    fields = (getattr(value, name) for name in value._fields)
    return type(value)(*(rebuilt(f) if isinstance(f, Value) else f for f in fields))


def exact(field) -> bool:
    """Whether ``field`` is an int, a str, an exact tuple of such fields, or a value made of them."""
    if isinstance(field, Value):
        return all(exact(getattr(field, name)) for name in field._fields)
    if isinstance(field, tuple):
        return type(field) is tuple and all(map(exact, field))
    return type(field) in (int, str)


def test_kernel_results_are_valid_values():
    # what the public constructors would build from the same fields, in the
    # same normal form, with the same hash and repr
    results = [pullback(m, y.divisor) for m, _, y, _ in each_map()]
    for dx, dy, dz in product(DIMS, repeat=3):
        for f_expo, g_expo in product(matrices(dx, dy), matrices(dy, dz)):
            f, g = MonomialMap(CHARTS[dx], CHARTS[dy], f_expo), MonomialMap(CHARTS[dy], CHARTS[dz], g_expo)
            results.append(compose(g, f))
    for x, k in product([x for pairs in PAIRS for x in pairs], (1, 2, 3)):
        results += [twist(x, k), cube(x, k)]
    for spec in valid_blowups():
        results += [v for bc in blowup_charts(spec) for v in (bc.chart_map, bc.total_transform)]
    for q, k in product([q for d in DIMS for q in levelled(d)], (1, 2, 3)):
        results += [q_normalize(q), q_transition(q, k)]
    assert len(results) == 3248
    for value in results:
        again = rebuilt(value)
        assert value == again and hash(value) == hash(again) and repr(value) == repr(again)
        assert exact(value)
