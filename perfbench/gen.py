"""Seeded benchmark inputs, each with a ledger of expected answers.

Nothing here imports modpairs.  Inputs are plain data (model text, or lists
of integers from which the worker builds value objects), and every expected
answer is recomputed by the plain integer code in the "oracle" section:
monomial substitution for pullbacks and compositions, brute-force scans over
twist levels, the three record inequalities for correspondences and gcd
reduction for levelled pairs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

# --- oracle: monomials are dicts {coordinate index: exponent} ---------------


def mono(row):
    return {i: e for i, e in enumerate(row) if e}


def mono_mul(a, b):
    out = dict(a)
    for i, e in b.items():
        out[i] = out.get(i, 0) + e
    return out


def mono_pow(a, n):
    return {i: e * n for i, e in a.items()} if n else {}


def substitute(outer, inner):
    """Monomials of ``outer`` with each variable j replaced by ``inner[j]``."""
    out = []
    for m in outer:
        prod = {}
        for j, e in m.items():
            prod = mono_mul(prod, mono_pow(inner[j], e))
        out.append(prod)
    return out


def dense(m, dim):
    return [m.get(i, 0) for i in range(dim)]


def pulled(expo, dst_mults, src_dim):
    """Vanishing orders of the substituted target divisor equation prod y_j^D_j."""
    (eq,) = substitute([mono(dst_mults)], [mono(row) for row in expo])
    return dense(eq, src_dim)


def composed(g_expo, f_expo, src_dim):
    """Exponent rows of g after f, by substituting f's monomials into g's."""
    return [dense(m, src_dim) for m in substitute([mono(r) for r in g_expo], [mono(r) for r in f_expo])]


def least_level(have, need):
    """Least n >= 1 with n * have_i >= need_i for all i, scanned; None if none.

    If some n works then n = max(need) works (every have_i with need_i > 0 is
    at least 1), so the scan up to there is exhaustive.
    """
    for n in range(1, max(need, default=0) + 2):
        if all(n * h >= w for h, w in zip(have, need)):
            return n
    return None


def map_answers(src_mults, expo, dst_mults):
    need = pulled(expo, dst_mults, len(src_mults))
    twist = least_level(src_mults, need)
    return {
        "pullback": need,
        "admissible": all(s >= e for s, e in zip(src_mults, need)),
        "minimal_twist": twist,
        "hom_log": twist is not None,
        "minimal": list(src_mults) == need,
    }


def _divides(d, m):
    return m == 0 if d == 0 else m % d == 0  # zero divides only zero


def corr_answers(records, constant=None):
    """Level-one, after-twist and log tests on (label, nx, ny, ex, ey) records."""
    if constant is not None:
        return {"mcor": constant, "colim": constant, "lcor": constant,
                "minimal_twist": 1 if constant else None}
    have = [nx * ex for _, nx, _, ex, _ in records]
    need = [ny * ey for _, _, ny, _, ey in records]
    twist = least_level(have, need)
    return {
        "mcor": all(h >= w for h, w in zip(have, need)),
        "colim": twist is not None,
        "lcor": all(_divides(h, w) for h, w in zip(have, need)),
        "minimal_twist": twist,
    }


def classify_center(mults, center):
    support = {i for i, m in enumerate(mults) if m > 0}
    if not support & set(center):
        return "invalid"
    return "modification" if set(center) <= support else "smooth-blowup"


def blowup_chart_rows(dim, center, j):
    """Substitution y_j = x_j, y_b = x_j * x_b (b in center), y_i = x_i elsewhere."""
    return [dense({r: 1} if r == j or r not in center else {j: 1, r: 1}, dim) for r in range(dim)]


def blowup_answers(mults, center):
    dim = len(mults)
    charts = []
    for j in sorted(center):
        rows = blowup_chart_rows(dim, set(center), j)
        charts.append((j, rows, pulled(rows, mults, dim)))
    return charts


def normalized(level, mults):
    g = level
    for m in mults:
        g = gcd(g, m)
    return level // g, [m // g for m in mults]


def q_equal(la, ma, lb, mb):
    return all(Fraction(x, la) == Fraction(y, lb) for x, y in zip(ma, mb))


# --- canonical text -----------------------------------------------------------


def fmt_divisor(coords, mults):
    return "{" + ", ".join(f"{c}: {m}" for c, m in zip(coords, mults) if m > 0) + "}"


def fmt_mono(coords, exps):
    parts = [c if e == 1 else f"{c}^{e}" for c, e in zip(coords, exps) if e > 0]
    return " * ".join(parts) if parts else "1"


def _braces(inner):
    return f"{{ {inner} }}" if inner else "{ }"


def fmt_assigns(src_coords, dst_coords, expo):
    return "; ".join(f"{c} <- {fmt_mono(src_coords, row)}" for c, row in zip(dst_coords, expo))


def fmt_point(rec):
    label, nx, ny, ex, ey = rec
    return f"point {label} {{ nx {nx}; ny {ny}; ex {ex}; ey {ey} }}"


# --- models ---------------------------------------------------------------------


@dataclass
class Decl:
    """One declaration as plain data; ``plain()`` matches the worker's conversion."""

    kind: str
    name: str
    data: dict

    def plain(self):
        d = self.data
        if self.kind == "pair":
            return ["pair", self.name, d["coords"], d["mults"]]
        if self.kind == "map":
            return ["map", self.name, d["src"], d["dst"], d["expo"]]
        if self.kind == "corr" and "monomial" in d:
            return ["corr", self.name, "monomial", list(d["monomial"])]
        if self.kind == "corr":
            return ["corr", self.name, d["src"], d["dst"], [list(r) for r in d["records"]]]
        if self.kind == "qpair":
            return ["qpair", self.name, d["pair"], d["level"]]
        return ["blowup", self.name, d["pair"], d["center_coords"]]


@dataclass
class ModelCase:
    """A generated model: its declarations, input text, canonical text and ledger."""

    decls: list[Decl] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)   # input text, one entry per line
    pairs: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)      # decl name -> oracle answers

    @property
    def text(self):
        return "\n".join(self.lines) + "\n"

    @property
    def canonical(self):
        return "".join(self.canon(d) + "\n" for d in self.decls)

    def add(self, decl):
        self.decls.append(decl)
        self.lines.append(self.canon(decl))
        if decl.kind == "pair":
            self.pairs[decl.name] = decl.data
        self.answers[decl.name] = self._answer(decl)

    def canon(self, decl):
        d = decl.data
        if decl.kind == "pair":
            coords = "".join(" " + c for c in d["coords"])
            return (f"pair {decl.name} {{ dim {len(d['coords'])}; coords{coords}; "
                    f"divisor {fmt_divisor(d['coords'], d['mults'])} }}")
        if decl.kind == "map":
            src, dst = self.pairs[d["src"]], self.pairs[d["dst"]]
            assigns = fmt_assigns(src["coords"], dst["coords"], d["expo"])
            return f"map {decl.name} : {d['src']} -> {d['dst']} {_braces(assigns)}"
        if decl.kind == "corr" and "monomial" in d:
            a, b, nx, ny = d["monomial"]
            return f"corr {decl.name} monomial({a}, {b}, {nx}, {ny})"
        if decl.kind == "corr":
            points = " ".join(fmt_point(r) for r in d["records"])
            return f"corr {decl.name} : {d['src']} -> {d['dst']} {_braces(points)}"
        if decl.kind == "qpair":
            return f"qpair {decl.name} = ({d['level']}, {d['pair']})"
        return f"blowup {decl.name} on {d['pair']} center {{ {', '.join(d['center_coords'])} }}"

    def _answer(self, decl):
        d = decl.data
        if decl.kind == "map":
            src, dst = self.pairs[d["src"]], self.pairs[d["dst"]]
            return map_answers(src["mults"], d["expo"], dst["mults"])
        if decl.kind == "corr" and "monomial" in d:
            a, b, nx, ny = d["monomial"]
            return corr_answers([("0", nx, ny, a, b)])
        if decl.kind == "corr":
            return corr_answers(d["records"])
        if decl.kind == "qpair":
            mults = self.pairs[d["pair"]]["mults"]
            return {"normalized": normalized(d["level"], mults)}
        if decl.kind == "blowup":
            pair = self.pairs[d["pair"]]
            center = [pair["coords"].index(c) for c in d["center_coords"]]
            verdict = classify_center(pair["mults"], center)
            charts = blowup_answers(pair["mults"], center) if verdict != "invalid" else None
            return {"classify": verdict, "charts": charts}
        return None

    def count(self, kind):
        return sum(1 for d in self.decls if d.kind == kind)

    def valid_blowups(self):
        return [d for d in self.decls if d.kind == "blowup" and self.answers[d.name]["classify"] != "invalid"]


def _mults(rng, dim, zero_share=0.3, top=4):
    return [0 if rng.random() < zero_share else rng.randint(1, top) for _ in range(dim)]


def _expo(rng, src_dim, dst_dim):
    return [[0 if rng.random() < 0.5 else rng.randint(1, 3) for _ in range(src_dim)] for _ in range(dst_dim)]


MAP_KINDS = ("loose", "minimal", "needs-twist", "infeasible")


def _source_mults(rng, need, kind):
    """Source divisor over ``need`` (the pulled-back target) of the given kind, or None."""
    if kind == "loose":
        out = [e + rng.randint(0, 2) for e in need]
        out[rng.randrange(len(out))] += 1
        return out
    if kind == "minimal":
        return list(need)
    pos = [i for i, e in enumerate(need) if e > 0]
    if kind == "needs-twist":
        if not any(need[i] >= 2 for i in pos):
            return None
        out = [rng.randint(1, e) if e else rng.randint(0, 3) for e in need]
        i = rng.choice([i for i in pos if need[i] >= 2])
        out[i] = rng.randint(1, need[i] - 1)
        return out
    if not pos:
        return None
    out = [rng.randint(0, e) if e else rng.randint(0, 3) for e in need]
    out[rng.choice(pos)] = 0
    return out


def _map_pairs(rng, kind, src_dim_range, dst_dim_range, dst_mults_fn):
    """Target pair, expo and source divisor realising a map of ``kind``; retries until it fits."""
    while True:
        ds, dt = rng.randint(*src_dim_range), rng.randint(*dst_dim_range)
        dst = dst_mults_fn(dt)
        expo = _expo(rng, ds, dt)
        src = _source_mults(rng, pulled(expo, dst, ds), kind)
        if src is not None:
            return src, expo, dst


def _good_record(rng, label):
    nx, ex = rng.randint(1, 6), rng.randint(1, 4)
    return (label, nx, nx, ex, ex) if rng.random() < 0.5 else (label, nx, 0, ex, rng.randint(1, 4))


def _any_record(rng, label):
    return (label, rng.choice((0, rng.randint(1, 6))), rng.choice((0, rng.randint(1, 6))),
            rng.randint(1, 4), rng.randint(1, 4))


def _block(case, rng, k):
    """Ten declarations: four pairs, two maps, two corrs, one qpair, one blowup.

    Map kinds cycle with ``k`` so every answer occurs; every fourth blowup has a
    center that misses the support.  Only pairs are ever referenced.
    """
    invalid_blowup = k % 4 == 3

    def dst_mults(dt):
        mults = _mults(rng, dt)
        if invalid_blowup:
            mults[rng.randrange(dt)] = 0
        elif not any(mults):
            mults[rng.randrange(dt)] = rng.randint(1, 4)
        return mults

    src_m, expo, dst_m = _map_pairs(rng, MAP_KINDS[k % 4], (1, 6), (2, 6), dst_mults)
    s, d, c, e = f"s{k}", f"d{k}", f"c{k}", f"e{k}"
    case.add(Decl("pair", s, {"coords": [f"x{i}" for i in range(len(src_m))], "mults": src_m}))
    case.add(Decl("pair", d, {"coords": [f"y{i}" for i in range(len(dst_m))], "mults": dst_m}))
    csrc, cexpo, cdst = _map_pairs(rng, MAP_KINDS[(k + 2) % 4], (1, 1), (1, 1),
                                   lambda _: [rng.randint(1, 5)])
    case.add(Decl("pair", c, {"coords": ["t"], "mults": csrc}))
    case.add(Decl("pair", e, {"coords": ["s"], "mults": cdst}))
    case.add(Decl("map", f"f{k}", {"src": s, "dst": d, "expo": expo}))
    case.add(Decl("map", f"g{k}", {"src": c, "dst": e, "expo": cexpo}))
    make = _good_record if k % 2 == 0 else _any_record
    records = [make(rng, f"p{i}") for i in range(rng.randint(1, 6))]
    if k % 2:
        label, nx, _, ex, _ = records[0]
        records[0] = (label, nx, nx * ex + 1, ex, 1)  # fails the level-one test
    case.add(Decl("corr", f"r{k}", {"src": c, "dst": e, "records": records}))
    case.add(Decl("corr", f"m{k}", {"monomial": (rng.randint(1, 5), rng.randint(1, 5),
                                                 rng.randint(0, 5), rng.randint(0, 5))}))
    case.add(Decl("qpair", f"q{k}", {"pair": d, "level": rng.randint(1, 12)}))
    coords = case.pairs[d]["coords"]
    zero = [i for i, m in enumerate(dst_m) if m == 0]
    if invalid_blowup:
        center = rng.sample(zero, rng.randint(1, len(zero)))
    else:
        pos = [i for i, m in enumerate(dst_m) if m > 0]
        center = {rng.choice(pos)} | set(rng.sample(range(len(coords)), rng.randint(0, len(coords) - 1)))
    case.add(Decl("blowup", f"z{k}", {"pair": d, "center_coords": [coords[i] for i in sorted(center)]}))


def _edge_decls(case):
    """Forms the blocks never produce: a point chart, a map into it, an empty corr."""
    case.add(Decl("pair", "pt", {"coords": [], "mults": []}))
    case.add(Decl("map", "fpt", {"src": "s0", "dst": "pt", "expo": []}))
    case.add(Decl("corr", "rnone", {"src": "c0", "dst": "e0", "records": []}))


def model_case(seed: int, blocks: int) -> ModelCase:
    """A clean model of ``10 * blocks + 3`` declarations, a comment line before each block."""
    rng = random.Random(f"model/{seed}/{blocks}")
    case = ModelCase()
    for k in range(blocks):
        case.lines.append(f"# block {k}")
        _block(case, rng, k)
        if k == 0:
            _edge_decls(case)
    return case


# --- faulted models --------------------------------------------------------------


def _fault(case, decl, kind):
    """Faulted text of an unreferenced declaration and its one (column, length, code)."""
    line = case.canon(decl)
    d = decl.data
    if kind == "unknown-coord":            # first monomial names a coordinate nobody has
        head, _, tail = line.partition(" <- ")
        rest = tail.split(";", 1)
        text = head + " <- zz" + (";" + rest[1] if len(rest) > 1 else " }")
        return text, text.index(" zz") + 2, 2, "E032"
    if kind == "dup-target":
        first = case.pairs[d["dst"]]["coords"][0]
        text = line[:-2] + f"; {first} <- 1 }}"
        return text, text.rindex(f"; {first} <-") + 3, len(first), "E041"
    if kind == "missing-target":
        text = line[: line.rindex(";")] + " }"
        return text, len(text), 1, "E040"
    if kind == "missing-semicolon":
        cut = line.index(";")
        text = line[:cut] + line[cut + 1:]
        return text, cut + 2, len(case.pairs[d["dst"]]["coords"][1]), "E011"
    if kind == "zero-exponent":
        a = d["monomial"][0]
        text = line.replace(f"monomial({a},", "monomial(0,")
        return text, text.index("(0,") + 2, 1, "E052"
    if kind == "zero-ramification":
        label, nx, ny, ex, ey = d["records"][0]
        text = line.replace(f"ex {ex};", "ex 0;", 1)
        return text, text.index("ex 0;") + 4, 1, "E051"
    if kind == "dup-label":
        text = line[:-2] + " " + fmt_point(d["records"][0]) + " }"
        label = d["records"][0][0]
        return text, text.rindex(f"point {label} ") + 7, len(label), "E050"
    if kind == "zero-level":
        text = line.replace(f"({d['level']},", "(0,")
        return text, text.index("(0,") + 2, 1, "E060"
    if kind == "unknown-pair":
        text = line.replace(f", {d['pair']})", ", nosuch)")
        return text, text.index("nosuch") + 1, 6, "E021"
    if kind == "dup-center":
        first = d["center_coords"][0]
        text = line[:-2] + f", {first} }}"
        return text, text.rindex(f", {first} }}") + 3, len(first), "E071"
    if kind == "empty-center":
        text = line[: line.index("center") + 6] + " { }"
        return text, text.index("center") + 1, 6, "E070"
    if kind == "stray-char":
        text = line + " @"
        return text, len(text), 1, "E001"
    raise ValueError(kind)


# (fault kind, block member it goes into); each yields exactly one diagnostic
FAULTS = (
    ("unknown-coord", "f"), ("zero-exponent", "m"), ("zero-level", "q"),
    ("dup-center", "z"), ("dup-target", "g"), ("zero-ramification", "r"),
    ("unknown-pair", "q"), ("empty-center", "z"), ("missing-target", "f"),
    ("dup-label", "r"), ("missing-semicolon", "f"), ("stray-char", "q"),
)


def faulted_case(seed: int, blocks: int):
    """The clean model's text with one fault in every odd block.

    Returns the text and the expected diagnostics as sorted
    (line, column, length, code) tuples.
    """
    case = model_case(seed, blocks)
    by_name = {d.name: d for d in case.decls}
    line_of = {}
    for i, text in enumerate(case.lines):
        if not text.startswith("#"):
            line_of[text.split()[1]] = i
    lines = list(case.lines)
    expected = []
    for n, k in enumerate(range(1, blocks, 2)):
        kind, member = FAULTS[n % len(FAULTS)]
        decl = by_name[f"{member}{k}"]
        i = line_of[decl.name]
        lines[i], column, length, code = _fault(case, decl, kind)
        expected.append((i + 1, column, length, code))
    return "\n".join(lines) + "\n", sorted(expected)


# --- shell queries ------------------------------------------------------------------


# Inputs of the known crash faults; they never depend on the seed.
FAULT_BASE_MODEL = "pair X { dim 1; coords t; divisor { t: 1 } }\n"
FAULT_DIGIT_MODEL = "pair X { dim ²; coords t; divisor { t: 1 } }\n"
FAULT_BYTES_MODEL = b"pair X { dim 1; coords t; divisor { t: \xff } }\n"


@dataclass(frozen=True)
class Query:
    """One CLI call: argv after the program name, the model it reads, what it must give."""

    argv: tuple[str, ...]
    model: str                       # "shell", "fault-base", "fault-digit" or "fault-bytes"
    status: int
    records: tuple = ()
    stderr_code: str | None = None   # diagnostic code expected on stderr
    known_fault: str | None = None   # ROADMAP item 4 crash this query reproduces


def map_record(verb, decl_text, name, answers):
    rec = {"command": verb, "args": [name], "inputs": {"map": decl_text}}
    if verb == "minimal-twist":
        rec["minimal_twist"] = answers["minimal_twist"]
        return rec, 0 if answers["minimal_twist"] is not None else 1
    key = {"check-admissible": "admissible", "hom-log": "hom_log", "check-minimal": "minimal"}[verb]
    rec["verdict"] = answers[key]
    return rec, 0 if answers[key] else 1


def blowup_records(case, decl, with_charts):
    ans = case.answers[decl.name]
    text = case.canon(decl)
    out = [({"command": "classify", "args": [decl.name], "inputs": {"blowup": text},
             "verdict": ans["classify"]}, 1 if ans["classify"] == "invalid" else 0)]
    if with_charts and ans["charts"] is not None:
        coords = case.pairs[decl.data["pair"]]["coords"]
        charts = [{"index": j, "coord": coords[j], "map": fmt_assigns(coords, coords, rows),
                   "total_transform": fmt_divisor(coords, mults)}
                  for j, rows, mults in ans["charts"]]
        out.append(({"command": "blowup", "args": [decl.name], "inputs": {"blowup": text},
                     "verdict": ans["classify"], "charts": charts}, 0))
    return out


def corr_record(case, decl):
    ans = case.answers[decl.name]
    member = {k: ans[k] for k in ("mcor", "colim", "lcor")}
    rec = {"command": "corr-check", "args": [decl.name], "inputs": {"corr": case.canon(decl)},
           "memberships": member, "minimal_twist": ans["minimal_twist"]}
    return rec, 0 if all(member.values()) else 1


def qpair_record(case, decl):
    level, mults = case.answers[decl.name]["normalized"]
    coords = case.pairs[decl.data["pair"]]["coords"]
    rec = {"command": "qdiv-normalize", "args": [decl.name], "inputs": {"qpair": case.canon(decl)},
           "level": level, "divisor": fmt_divisor(coords, mults)}
    return rec, 0


def check_all_records(case):
    """Every record ``check-all --machine`` prints, in order, with the overall status."""
    out = []
    for decl in case.decls:
        if decl.kind == "map":
            out += [map_record(v, case.canon(decl), decl.name, case.answers[decl.name])
                    for v in ("check-admissible", "minimal-twist", "hom-log", "check-minimal")]
        elif decl.kind == "corr":
            out.append(corr_record(case, decl))
        elif decl.kind == "blowup":
            out += blowup_records(case, decl, True)
        elif decl.kind == "qpair":
            out.append(qpair_record(case, decl))
    return [r for r, _ in out], max((s for _, s in out), default=0)


def pair_result_record(verb, case, name, n):
    pair = case.pairs[name]
    coords, mults = pair["coords"], pair["mults"]
    if verb == "cube":
        coords, mults = coords + ["inf"], mults + [n]
    else:
        mults = [m * n for m in mults]
    return {"command": verb, "args": [name, str(n)],
            "inputs": {"pair": case.canon(Decl("pair", name, pair)), "n": n},
            "result": {"coords": coords, "divisor": fmt_divisor(coords, mults)}}


def shell_case(seed: int):
    """A small model holding every declaration form, and one round of queries.

    The round covers all twelve verbs, answers 0, 1, 2, 3 and 5, and the
    three known crash faults.  Its make-up is the same for every seed.
    """
    case = model_case(seed, 4)
    rng = random.Random(f"shell/{seed}")
    d0 = case.pairs["d0"]
    m = rng.randint(2, 5)
    case.add(Decl("pair", "dd", {"coords": list(d0["coords"]), "mults": [x * m for x in d0["mults"]]}))
    level = next(d for d in case.decls if d.name == "q0").data["level"]
    case.add(Decl("qpair", "w", {"pair": "dd", "level": level * m}))
    case.add(Decl("qpair", "u", {"pair": "d0", "level": level + 1}))
    by_name = {d.name: d for d in case.decls}
    maps = [d for d in case.decls if d.kind == "map" and d.name != "fpt"]

    def pick(pred):
        return next(d for d in maps if pred(case.answers[d.name]))

    queries = []

    def verdict_query(verb, decl):
        rec, status = map_record(verb, case.canon(decl), decl.name, case.answers[decl.name])
        queries.append(Query((verb, decl.name), "shell", status, (rec,)))

    verdict_query("check-admissible", pick(lambda a: a["admissible"]))
    verdict_query("check-admissible", pick(lambda a: not a["admissible"]))
    verdict_query("minimal-twist", pick(lambda a: (a["minimal_twist"] or 0) > 1))
    verdict_query("minimal-twist", pick(lambda a: a["minimal_twist"] is None))
    verdict_query("hom-log", pick(lambda a: a["hom_log"]))
    verdict_query("hom-log", pick(lambda a: not a["hom_log"]))
    verdict_query("check-minimal", pick(lambda a: a["minimal"]))
    verdict_query("check-minimal", pick(lambda a: not a["minimal"]))
    for name in ("z0", "z3"):  # valid, invalid center
        (rec, status), *_ = blowup_records(case, by_name[name], False)
        queries.append(Query(("classify", name), "shell", status, (rec,)))
    (_, (rec, _)) = blowup_records(case, by_name["z0"], True)
    queries.append(Query(("blowup", "z0"), "shell", 0, (rec,)))
    queries.append(Query(("blowup", "z3"), "shell", 5, (), "E072"))
    for name in ("r0", "r1"):  # all memberships hold, level-one test fails
        rec, status = corr_record(case, by_name[name])
        queries.append(Query(("corr-check", name), "shell", status, (rec,)))
    rec, _ = qpair_record(case, by_name["q0"])
    queries.append(Query(("qdiv-normalize", "q0"), "shell", 0, (rec,)))
    for other in ("w", "u"):
        equal = q_equal(level, d0["mults"], by_name[other].data["level"],
                        case.pairs[by_name[other].data["pair"]]["mults"])
        rec = {"command": "qdiv-eq", "args": ["q0", other],
               "inputs": {"first": case.canon(by_name["q0"]), "second": case.canon(by_name[other])},
               "verdict": equal}
        queries.append(Query(("qdiv-eq", "q0", other), "shell", 0 if equal else 1, (rec,)))
    for verb in ("cube", "twist"):
        n = rng.randint(2, 9)
        queries.append(Query((verb, "s0", str(n)), "shell", 0, (pair_result_record(verb, case, "s0", n),)))
    records, status = check_all_records(case)
    queries.append(Query(("check-all",), "shell", status, tuple(records)))
    queries.append(Query(("check-admissible", "nosuch"), "shell", 3, (), "E021"))
    queries.append(Query(("twist", "s0", "0"), "shell", 2, (), "E011"))
    queries.append(Query(("twist", "X", "²"), "fault-base", 2, known_fault="non-ASCII digit argument"))
    queries.append(Query(("classify", "X"), "fault-digit", 2, known_fault="non-ASCII digit in a model"))
    queries.append(Query(("classify", "X"), "fault-bytes", 2, known_fault="model file not UTF-8"))
    return case, queries


# --- kernel sweep ------------------------------------------------------------------


def sweep_case(seed: int, scale: int):
    """Value-object inputs for the kernel sweep and the expected answer of every call.

    Returns ``(inputs, expected)``: ``inputs`` is plain data the worker turns
    into value objects through the public constructors, and ``expected`` is a
    list of ``[key, answer]`` in the order the sweep makes its calls.
    """
    rng = random.Random(f"sweep/{seed}/{scale}")
    inputs = {"maps": [], "chains": [], "blowups": [], "corrs": [], "qpairs": []}
    expected = []

    def coords(prefix, dim):
        return [f"{prefix}{i}" for i in range(dim)]

    for i in range(20 * scale):
        kind = MAP_KINDS[i % 4]
        src, expo, dst = _map_pairs(rng, kind, (1, 6), (1, 6), lambda dt: _mults(rng, dt))
        n = rng.randint(2, 9)
        inputs["maps"].append([coords("x", len(src)), coords("y", len(dst)), expo, src, dst, n])
        ans = map_answers(src, expo, dst)
        expected += [[f"map{i}.pullback", ans["pullback"]],
                     [f"map{i}.is_admissible", ans["admissible"]],
                     [f"map{i}.minimal_twist", ans["minimal_twist"]],
                     [f"map{i}.hom_log_exists", ans["hom_log"]],
                     [f"map{i}.is_minimal", ans["minimal"]],
                     [f"map{i}.twist", [coords("x", len(src)), [m * n for m in src]]]]
    for i in range(10 * scale):
        da, db, dc = (rng.randint(1, 6) for _ in range(3))
        f, g, div = _expo(rng, da, db), _expo(rng, db, dc), _mults(rng, dc)
        inputs["chains"].append([da, db, dc, f, g, div])
        h = composed(g, f, da)
        via_g = pulled(g, div, db)
        expected += [[f"chain{i}.compose", [coords("a", da), coords("c", dc), h]],
                     [f"chain{i}.pullback_composite", pulled(h, div, da)],
                     [f"chain{i}.pullback_g", via_g],
                     [f"chain{i}.pullback_f_of_g", pulled(f, via_g, da)]]
    for i in range(10 * scale):
        dim = rng.randint(1, 6)
        mults = _mults(rng, dim, zero_share=0.4)
        if i % 4 == 3 and 0 in mults:
            zero = [j for j, m in enumerate(mults) if m == 0]
            center = rng.sample(zero, rng.randint(1, len(zero)))
        else:
            center = rng.sample(range(dim), rng.randint(1, dim))
        inputs["blowups"].append([dim, mults, sorted(center)])
        verdict = classify_center(mults, center)
        expected.append([f"blowup{i}.classify", verdict])
        if verdict != "invalid":
            charts = [[j, rows, tr] for j, rows, tr in blowup_answers(mults, center)]
            expected.append([f"blowup{i}.blowup_charts", charts])
    for i in range(20 * scale):
        if i % 10 == 9:
            constant = rng.random() < 0.5
            inputs["corrs"].append(["constant", constant])
            ans = corr_answers([], constant)
        elif i % 5 == 4:
            a, b, nx, ny = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 5)
            inputs["corrs"].append(["monomial", a, b, nx, ny])
            ans = corr_answers([("0", nx, ny, a, b)])
        else:
            make = _good_record if i % 2 == 0 else _any_record
            records = [make(rng, f"w{j}") for j in range(rng.randint(4, 16))]
            inputs["corrs"].append(["records", records])
            ans = corr_answers(records)
        expected += [[f"corr{i}.in_mcor", ans["mcor"]], [f"corr{i}.in_colim_mcor", ans["colim"]],
                     [f"corr{i}.in_lcor", ans["lcor"]], [f"corr{i}.corr_minimal_twist", ans["minimal_twist"]]]
    for i in range(10 * scale):
        dim = rng.randint(1, 5)
        base = _mults(rng, dim, zero_share=0.2, top=6)
        base[rng.randrange(dim)] = rng.randint(1, 6)
        common = rng.randint(1, 6)
        level = rng.randint(1, 10) * common
        mults = [m * common for m in base]
        if i % 2:
            level2, mults2 = level + 1, mults
        else:
            k = rng.randint(2, 4)
            level2, mults2 = level * k, [m * k for m in mults]
        n = rng.randint(1, 9)
        inputs["qpairs"].append([level, mults, level2, mults2, n])
        nl, nm = normalized(level, mults)
        cs = coords("x", dim)
        expected += [[f"qpair{i}.q_normalize", [nl, cs, nm]],
                     [f"qpair{i}.q_eq_partner", q_equal(level, mults, level2, mults2)],
                     [f"qpair{i}.q_eq_normalized", True],
                     [f"qpair{i}.cube", [cs + ["inf"], mults + [n]]]]
    return inputs, expected
