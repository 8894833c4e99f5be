"""Seeded random generators for the acceptance suite; deterministic by seed."""

import random

from modpairs.blowup import BlowupSpec
from modpairs.correspondences import CorrLocalRecord, NonConstantCorr, from_monomial_param
from modpairs.dsl import BlowupDecl, CorrDecl, MapDecl, Model, PairDecl, QPairDecl
from modpairs.pairs import Chart, Divisor, MonomialMap, Pair, PairMap
from modpairs.qdivisors import QPair


def random_pair_map(rng: random.Random, max_dim=4, max_expo=5, max_mult=10) -> PairMap:
    ds = rng.randint(1, max_dim)
    dt = rng.randint(1, max_dim)
    src_chart = Chart(tuple(f"x{i}" for i in range(ds)))
    dst_chart = Chart(tuple(f"y{j}" for j in range(dt)))
    expo = tuple(
        tuple(rng.choice((0, 0, rng.randint(0, max_expo))) for _ in range(ds))
        for _ in range(dt)
    )
    src_mults = tuple(rng.choice((0, rng.randint(0, max_mult))) for _ in range(ds))
    dst_mults = tuple(rng.choice((0, rng.randint(0, max_mult))) for _ in range(dt))
    return PairMap(
        MonomialMap(src_chart, dst_chart, expo),
        Pair(src_chart, Divisor(src_mults)),
        Pair(dst_chart, Divisor(dst_mults)),
    )


def random_curve_corr(rng: random.Random, max_records=6, max_value=50) -> NonConstantCorr:
    count = rng.randint(0, max_records)
    records = tuple(
        CorrLocalRecord(
            label=f"w{k}",
            n_x=rng.choice((0, rng.randint(0, max_value))),
            n_y=rng.choice((0, rng.randint(0, max_value))),
            e_x=rng.randint(1, max_value),
            e_y=rng.randint(1, max_value),
        )
        for k in range(count)
    )
    return NonConstantCorr(records)


def random_blowup_spec(rng: random.Random, max_dim=5, max_mult=6) -> BlowupSpec:
    d = rng.randint(1, max_dim)
    chart = Chart(tuple(f"x{i}" for i in range(d)))
    mults = tuple(rng.choice((0, rng.randint(0, max_mult))) for _ in range(d))
    size = rng.randint(1, d)
    center = frozenset(rng.sample(range(d), size))
    return BlowupSpec(Pair(chart, Divisor(mults)), center)


def random_qpair(rng: random.Random, max_level=12, max_dim=4, max_mult=12) -> QPair:
    d = rng.randint(0, max_dim)
    chart = Chart(tuple(f"x{i}" for i in range(d)))
    mults = tuple(rng.randint(0, max_mult) for _ in range(d))
    return QPair(rng.randint(1, max_level), Pair(chart, Divisor(mults)))


def random_model(rng: random.Random) -> Model:
    """A model the parser could have produced, for round-trip checks."""
    decls = []
    pair_decls = []
    for i in range(rng.randint(1, 4)):
        d = rng.randint(0, 3)
        chart = Chart(tuple(f"c{i}_{k}" for k in range(d)))
        mults = tuple(rng.randint(0, 5) for _ in range(d))
        decl = PairDecl(f"p{i}", Pair(chart, Divisor(mults)))
        pair_decls.append(decl)
        decls.append(decl)

    for i in range(rng.randint(0, 3)):
        src = rng.choice(pair_decls)
        dst = rng.choice(pair_decls)
        expo = tuple(
            tuple(rng.randint(0, 4) for _ in range(src.pair.chart.dim))
            for _ in range(dst.pair.chart.dim)
        )
        pm = PairMap(
            MonomialMap(src.pair.chart, dst.pair.chart, expo), src.pair, dst.pair
        )
        decls.append(MapDecl(f"f{i}", src.name, dst.name, pm))

    curves = [d for d in pair_decls if d.pair.chart.dim == 1]
    for i in range(rng.randint(0, 2)):
        if curves and rng.random() < 0.5:
            src = rng.choice(curves)
            dst = rng.choice(curves)
            records = tuple(
                CorrLocalRecord(f"w{k}", rng.randint(0, 9), rng.randint(0, 9),
                                rng.randint(1, 9), rng.randint(1, 9))
                for k in range(rng.randint(0, 3))
            )
            decls.append(
                CorrDecl(f"c{i}", NonConstantCorr(records), src=src.name, dst=dst.name)
            )
        else:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            n_x, n_y = rng.randint(0, 9), rng.randint(0, 9)
            decls.append(CorrDecl(f"c{i}", from_monomial_param(a, b, n_x, n_y)))

    for i in range(rng.randint(0, 2)):
        target = rng.choice(pair_decls)
        decls.append(
            QPairDecl(f"q{i}", target.name, QPair(rng.randint(1, 9), target.pair))
        )

    blowable = [d for d in pair_decls if d.pair.chart.dim >= 1]
    for i in range(rng.randint(0, 2)):
        if not blowable:
            break
        target = rng.choice(blowable)
        d = target.pair.chart.dim
        size = rng.randint(1, d)
        center = sorted(rng.sample(range(d), size))
        decls.append(BlowupDecl(f"b{i}", target.name, BlowupSpec(target.pair, frozenset(center))))
    return Model(tuple(decls))
