"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts, bounds and time limits are pinned here; every expected value is
either a frozen golden or recomputed through an independent route (brute
force scan, divisor recomputation, exhaustive enumeration).
"""

import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from modpairs.blowup import BlowupClass, blowup_charts, classify
from modpairs.correspondences import (
    corr_minimal_twist,
    from_monomial_param,
    graph_corr,
    in_colim_mcor,
    in_lcor,
    in_mcor,
)
from modpairs.dsl import Model, parse, print_model
from modpairs.pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    compose,
    hom_log_exists,
    is_admissible,
    minimal_twist,
    pullback,
    twist,
)
from modpairs.qdivisors import cube, q_eq, q_normalize, q_rationals, q_transition
from randgen import (
    random_blowup_spec,
    random_curve_corr,
    random_model,
    random_pair_map,
    random_qpair,
)

MALFORMED_DIR = Path(__file__).parent / "data" / "malformed"


def report(number, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert not violations, violations[:5]


def test_criterion_1_worked_example_golden():
    start = time.perf_counter()
    corr = from_monomial_param(2, 3, 1, 1)
    got = (in_mcor(corr), in_colim_mcor(corr), in_lcor(corr))
    elapsed = time.perf_counter() - start
    violations = []
    if got != (False, True, False):
        violations.append(got)
    if elapsed >= 1.0:
        violations.append(f"took {elapsed:.3f}s")
    report(1, "monomial(2,3,1,1) memberships are (false, true, false)", violations)


def test_criterion_2_counterexample_family():
    start = time.perf_counter()
    violations = []
    for a in range(2, 21):
        for b in range(1, 21):
            if gcd(a, b) != 1:
                continue
            corr = from_monomial_param(a, b, 1, 1)
            if not in_colim_mcor(corr) or in_lcor(corr):
                violations.append((a, b))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        violations.append(f"took {elapsed:.3f}s")
    report(2, "coprime family a in 2..20, b in 1..20: colim holds, lcor fails", violations)


def test_criterion_3_implication_chain():
    rng = random.Random(3)
    violations = []
    for k in range(1000):
        corr = random_curve_corr(rng, max_records=6, max_value=50)
        if in_lcor(corr) and not in_colim_mcor(corr):
            violations.append(("lcor", k, corr))
        if in_mcor(corr) and not in_colim_mcor(corr):
            violations.append(("mcor", k, corr))
    report(3, "1000 random correspondences: lcor and mcor each imply colim", violations)


def test_criterion_4_twist_threshold_oracle():
    start = time.perf_counter()
    rng = random.Random(4)
    violations = []
    for k in range(1000):
        f = random_pair_map(rng, max_dim=4, max_expo=5, max_mult=10)
        n_star = minimal_twist(f)
        support_ok = pullback(f.map, f.dst.divisor).support <= f.src.divisor.support
        if (n_star is not None) != support_ok:
            violations.append(("support", k))
            continue
        brute = None
        for n in range(1, 65):
            admissible = is_admissible(PairMap(f.map, twist(f.src, n), f.dst))
            if admissible != (n_star is not None and n >= n_star):
                violations.append(("threshold", k, n))
                break
            if admissible and brute is None:
                brute = n
        if n_star is not None and n_star <= 64 and brute != n_star:
            violations.append(("least", k, brute, n_star))
        if n_star is None and brute is not None:
            violations.append(("infeasible", k, brute))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        violations.append(f"took {elapsed:.3f}s")
    report(4, "1000 random maps: closed-form twist equals brute force to 64", violations)


def test_criterion_5_pullback_functoriality():
    rng = random.Random(5)
    violations = []
    for k in range(1000):
        dims = [rng.randint(0, 3) for _ in range(4)]
        charts = [Chart(tuple(f"c{i}_{j}" for j in range(d))) for i, d in enumerate(dims)]
        maps = []
        for i in range(3):
            expo = tuple(
                tuple(rng.randint(0, 5) for _ in range(charts[i].dim))
                for _ in range(charts[i + 1].dim)
            )
            maps.append(MonomialMap(charts[i], charts[i + 1], expo))
        f, g, h = maps
        divisor = Divisor(tuple(rng.randint(0, 10) for _ in range(charts[3].dim)))
        composed = compose(h, compose(g, f))
        if composed != compose(compose(h, g), f):
            violations.append(("assoc", k))
        if pullback(composed, divisor) != pullback(f, pullback(g, pullback(h, divisor))):
            violations.append(("pullback", k))
    report(5, "1000 random composable triples: pullback along composites factors", violations)


def test_criterion_6_blowup_oracle():
    rng = random.Random(6)
    violations = []
    for k in range(500):
        spec = random_blowup_spec(rng, max_dim=5)
        verdict = classify(spec)
        if verdict is BlowupClass.MODIFICATION and not (spec.center & spec.pair.divisor.support):
            violations.append(("nesting", k))
        if verdict is BlowupClass.INVALID:
            continue
        exceptional = sum(spec.pair.divisor.mults[b] for b in spec.center)
        for chart in blowup_charts(spec):
            if chart.total_transform != pullback(chart.chart_map, spec.pair.divisor):
                violations.append(("transform", k, chart.index))
            if chart.total_transform.mults[chart.index] != exceptional:
                violations.append(("exceptional", k, chart.index))
    report(6, "500 random blowups: transforms recompute, exceptional law holds", violations)


def test_criterion_7_graph_compatibility():
    src, dst = Chart(("t",)), Chart(("y",))
    violations = []
    for m in range(1, 13):
        for p in range(13):
            for q in range(13):
                f = PairMap(
                    MonomialMap(src, dst, ((m,),)),
                    Pair(src, Divisor((p,))),
                    Pair(dst, Divisor((q,))),
                )
                corr = graph_corr(f)
                if in_mcor(corr) != is_admissible(f):
                    violations.append(("mcor", m, p, q))
                if in_colim_mcor(corr) != hom_log_exists(f):
                    violations.append(("colim", m, p, q))
    report(7, "all curve maps m<=12, p,q<=12: graph records match map checks", violations)


def test_criterion_8_rational_divisor_coherence():
    rng = random.Random(8)
    violations = []
    for k in range(1000):
        q = random_qpair(rng)
        once = q_normalize(q)
        if q_normalize(once) != once:
            violations.append(("idempotent", k))
        other = random_qpair(rng)
        if other.pair.chart == q.pair.chart:
            same = q_eq(q, other)
            cross = all(
                other.level * x == q.level * y
                for x, y in zip(q.pair.divisor.mults, other.pair.divisor.mults)
            )
            rationals = q_rationals(q) == q_rationals(other)
            if not (same == cross == rationals):
                violations.append(("equality", k))
        m1, m2 = rng.randint(1, 9), rng.randint(1, 9)
        if q_transition(q_transition(q, m1), m2) != q_transition(q, m1 * m2):
            violations.append(("transition", k))
        if q_rationals(q_transition(q, m1)) != tuple(
            Fraction(x, q.level) for x in q.pair.divisor.mults
        ):
            violations.append(("rationals", k))
        pair = q.pair
        if "inf" not in pair.chart.coords:
            n = rng.randint(1, 6)
            if twist(cube(pair, n), m1) != cube(twist(pair, m1), n * m1):
                violations.append(("cube", k))
    report(8, "1000 random levelled divisors: normalize/eq/transition/cube laws", violations)


def test_criterion_9_dsl_round_trip_and_corpus():
    violations = []
    for seed in range(200):
        model = random_model(random.Random(seed))
        text = print_model(model)
        again = parse(text)
        if not isinstance(again, Model) or again != model:
            violations.append(("roundtrip", seed))
    expected = json.loads((MALFORMED_DIR / "expected.json").read_text())
    if len(expected) < 20:
        violations.append(("corpus-size", len(expected)))
    for name, want in sorted(expected.items()):
        result = parse((MALFORMED_DIR / name).read_text())
        if not isinstance(result, list):
            violations.append(("no-diagnostics", name))
            continue
        got = [[d.code, d.line, d.column] for d in result]
        if got != want:
            violations.append(("diagnostics", name, got))
    report(9, f"200 model round-trips; {len(expected)} malformed files give frozen diagnostics", violations)
