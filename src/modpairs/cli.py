"""Command driver: load a model, run one check, report as text or JSON records.

Exit statuses distinguish answers from failures to answer: 0 means every
queried check passed or the command produced its value, 1 means a queried
membership or verdict came back false, 2 means malformed input or usage,
3 an unknown name, 4 a dimension/structure mismatch, 5 an invalid blowup,
70 an internal error (a fault in modpairs itself, never an answer).
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowup import BlowupClass, blowup_charts, classify
from .correspondences import corr_minimal_twist, in_colim_mcor, in_lcor, in_mcor
from .dsl import (
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
    format_monomial,
    parse,
)
from .pairs import (
    Pair,
    StructureError,
    Value,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    setfield,
    twist,
)
from .qdivisors import cube, q_eq, q_normalize

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN_NAME = 3
EXIT_DIMENSION = 4
EXIT_INVALID_BLOWUP = 5
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h

COMMANDS = {
    "check-admissible": ("name",),
    "minimal-twist": ("name",),
    "hom-log": ("name",),
    "check-minimal": ("name",),
    "blowup": ("name",),
    "classify": ("name",),
    "corr-check": ("name",),
    "qdiv-normalize": ("name",),
    "qdiv-eq": ("first", "second"),
    "cube": ("name", "n"),
    "twist": ("name", "n"),
    "check-all": (),
}


class Report(Value):
    """Outcome of one command: process status, human text, machine records."""

    __slots__ = ("status", "text", "records", "diagnostics")

    def __init__(self, status: int, text: str, records: tuple[dict, ...], diagnostics: tuple[Diagnostic, ...] = ()):
        setfield(self, "status", status)
        setfield(self, "text", text)
        setfield(self, "records", records)
        setfield(self, "diagnostics", diagnostics)


class _CommandError(Exception):
    def __init__(self, status: int, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.status = status
        self.diagnostic = diagnostic


def _arg_diag(command: list[str], index: int, message: str, code: str) -> Diagnostic:
    # span within the space-joined command line, so it stays inside the input
    column = 1 + sum(len(a) + 1 for a in command[:index])
    length = len(command[index]) if index < len(command) else 0
    return Diagnostic("error", 1, column, length, message, code)


def _lookup(model: Model, kind, noun: str, command: list[str], index: int):
    name = command[index]
    decl = model.namespace(kind).get(name)
    if decl is None:
        raise _CommandError(
            EXIT_UNKNOWN_NAME,
            _arg_diag(command, index, f"unknown {noun} '{name}'", "E021"),
        )
    return decl


def _int_arg(command: list[str], index: int) -> int:
    text = command[index]
    if not (text.isascii() and text.isdigit()):
        raise _CommandError(
            EXIT_INPUT,
            _arg_diag(command, index, f"expected a non-negative integer, got '{text}'", "E011"),
        )
    if len(text) > MAX_INT_DIGITS:
        raise _CommandError(
            EXIT_INPUT,
            _arg_diag(command, index, f"integer argument longer than {MAX_INT_DIGITS} digits", "E012"),
        )
    return int(text)


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _twist_text(n: int | None) -> str:
    return "infeasible" if n is None else str(n)


def _pair_result(pair: Pair) -> dict:
    return {
        "coords": list(pair.chart.coords),
        "divisor": format_divisor(pair.chart, pair.divisor),
    }


def _pair_result_text(pair: Pair) -> str:
    coords = " ".join(pair.chart.coords)
    return f"coords {coords}; divisor {format_divisor(pair.chart, pair.divisor)}"


# Each report below runs one verb on a declaration the caller already holds;
# ``echo`` is the declaration's canonical text, rendered once by the caller
# however many verbs run on it.

_MAP_VERBS = ("check-admissible", "minimal-twist", "hom-log", "check-minimal")


def _map_report(verb: str, decl: MapDecl, echo: str) -> Report:
    f = decl.pair_map
    record = {"command": verb, "args": [decl.name], "inputs": {"map": echo}}
    lines = [f"command: {verb} {decl.name}", f"map: {echo}"]
    if verb == "minimal-twist":
        n = minimal_twist(f)
        record["minimal_twist"] = n
        lines.append(f"minimal-twist: {_twist_text(n)}")
        ok = n is not None
    else:
        if verb == "check-admissible":
            label, ok = "admissible", is_admissible(f)
        elif verb == "hom-log":
            label, ok = "hom-log", hom_log_exists(f)
        else:
            label, ok = "minimal", is_minimal(f)
        record["verdict"] = ok
        lines.append(f"{label}: {_bool_text(ok)}")
    return Report(EXIT_OK if ok else EXIT_FALSE, "\n".join(lines), (record,))


def _classify_report(decl: BlowupDecl, echo: str, verdict: BlowupClass) -> Report:
    record = {"command": "classify", "args": [decl.name], "inputs": {"blowup": echo}, "verdict": verdict.value}
    text = f"command: classify {decl.name}\nblowup: {echo}\nclassification: {verdict.value}"
    return Report(EXIT_OK if verdict is not BlowupClass.INVALID else EXIT_FALSE, text, (record,))


def _blowup_report(decl: BlowupDecl, echo: str, verdict: BlowupClass) -> Report:
    chart = decl.spec.pair.chart
    charts = []
    lines = [f"command: blowup {decl.name}", f"blowup: {echo}", f"classification: {verdict.value}"]
    for bc in blowup_charts(decl.spec):
        assigns = "; ".join(
            f"{name} <- {format_monomial(chart, bc.chart_map.expo[j])}"
            for j, name in enumerate(chart.coords)
        )
        transform = format_divisor(chart, bc.total_transform)
        charts.append(
            {
                "index": bc.index,
                "coord": chart.coords[bc.index],
                "map": assigns,
                "total_transform": transform,
            }
        )
        lines.append(f"chart {chart.coords[bc.index]}: map {{ {assigns} }}; total-transform {transform}")
    record = {
        "command": "blowup",
        "args": [decl.name],
        "inputs": {"blowup": echo},
        "verdict": verdict.value,
        "charts": charts,
    }
    return Report(EXIT_OK, "\n".join(lines), (record,))


def _corr_report(decl: CorrDecl, echo: str) -> Report:
    c = decl.corr
    memberships = {
        "mcor": in_mcor(c),
        "colim": in_colim_mcor(c),
        "lcor": in_lcor(c),
    }
    n = corr_minimal_twist(c)
    record = {
        "command": "corr-check",
        "args": [decl.name],
        "inputs": {"corr": echo},
        "memberships": memberships,
        "minimal_twist": n,
    }
    lines = [
        f"command: corr-check {decl.name}",
        f"corr: {echo}",
        f"mcor: {_bool_text(memberships['mcor'])}",
        f"colim: {_bool_text(memberships['colim'])}",
        f"lcor: {_bool_text(memberships['lcor'])}",
        f"minimal-twist: {_twist_text(n)}",
    ]
    status = EXIT_OK if all(memberships.values()) else EXIT_FALSE
    return Report(status, "\n".join(lines), (record,))


def _qdiv_normalize_report(decl: QPairDecl, echo: str) -> Report:
    result = q_normalize(decl.qpair)
    divisor = format_divisor(result.pair.chart, result.pair.divisor)
    record = {
        "command": "qdiv-normalize",
        "args": [decl.name],
        "inputs": {"qpair": echo},
        "level": result.level,
        "divisor": divisor,
    }
    text = f"command: qdiv-normalize {decl.name}\nqpair: {echo}\nnormalized: ({result.level}, {divisor})"
    return Report(EXIT_OK, text, (record,))


def _run_single(model: Model, command: list[str]) -> Report:
    verb = command[0]
    args = command[1:]

    if verb in _MAP_VERBS:
        decl = _lookup(model, MapDecl, "map", command, 1)
        return _map_report(verb, decl, format_decl(decl))

    if verb in ("classify", "blowup"):
        decl = _lookup(model, BlowupDecl, "blowup", command, 1)
        verdict = classify(decl.spec)
        if verb == "classify":
            return _classify_report(decl, format_decl(decl), verdict)
        if verdict is BlowupClass.INVALID:
            raise _CommandError(
                EXIT_INVALID_BLOWUP,
                _arg_diag(command, 1, f"blowup '{decl.name}' has a center missing the divisor support", "E072"),
            )
        return _blowup_report(decl, format_decl(decl), verdict)

    if verb == "corr-check":
        decl = _lookup(model, CorrDecl, "corr", command, 1)
        return _corr_report(decl, format_decl(decl))

    if verb == "qdiv-normalize":
        decl = _lookup(model, QPairDecl, "qpair", command, 1)
        return _qdiv_normalize_report(decl, format_decl(decl))

    if verb == "qdiv-eq":
        first = _lookup(model, QPairDecl, "qpair", command, 1)
        second = _lookup(model, QPairDecl, "qpair", command, 2)
        verdict = q_eq(first.qpair, second.qpair)
        first_echo, second_echo = format_decl(first), format_decl(second)
        record = {
            "command": verb,
            "args": args,
            "inputs": {"first": first_echo, "second": second_echo},
            "verdict": verdict,
        }
        text = "\n".join(
            [f"command: qdiv-eq {first.name} {second.name}",
             f"first: {first_echo}", f"second: {second_echo}",
             f"equal: {_bool_text(verdict)}"]
        )
        return Report(EXIT_OK if verdict else EXIT_FALSE, text, (record,))

    if verb in ("cube", "twist"):
        decl = _lookup(model, PairDecl, "pair", command, 1)
        n = _int_arg(command, 2)
        try:
            result = cube(decl.pair, n) if verb == "cube" else twist(decl.pair, n)
        except StructureError:
            raise  # a fresh-coordinate collision: reported like every structure error
        except ValueError as exc:
            raise _CommandError(EXIT_INPUT, _arg_diag(command, 2, str(exc), "E011")) from None
        echo = format_decl(decl)
        record = {
            "command": verb,
            "args": args,
            "inputs": {"pair": echo, "n": n},
            "result": _pair_result(result),
        }
        lines = [f"command: {verb} {decl.name} {n}", f"pair: {echo}",
                 f"result: {_pair_result_text(result)}"]
        if verb == "cube":
            # the complementary interval chart carries no divisor component
            lines.append("note: only the chart at infinity is materialized")
        return Report(EXIT_OK, "\n".join(lines), (record,))

    raise _CommandError(
        EXIT_INPUT,
        _arg_diag(command, 0, f"unknown command '{verb}'", "E011"),
    )


def _check_all(model: Model) -> Report:
    """Every check on every declaration, run on the declaration itself."""
    reports: list[Report] = []
    for decl in model.decls:
        if isinstance(decl, PairDecl):
            continue  # a pair alone has nothing to check
        echo = format_decl(decl)
        if isinstance(decl, MapDecl):
            reports += [_map_report(verb, decl, echo) for verb in _MAP_VERBS]
        elif isinstance(decl, CorrDecl):
            reports.append(_corr_report(decl, echo))
        elif isinstance(decl, BlowupDecl):
            verdict = classify(decl.spec)
            reports.append(_classify_report(decl, echo, verdict))
            if verdict is not BlowupClass.INVALID:
                reports.append(_blowup_report(decl, echo, verdict))
        elif isinstance(decl, QPairDecl):
            reports.append(_qdiv_normalize_report(decl, echo))
    return Report(
        max((r.status for r in reports), default=EXIT_OK),
        "\n\n".join(r.text for r in reports),
        tuple(record for r in reports for record in r.records),
    )


def run_command(model: Model, command) -> Report:
    """Run one command against a model; never raises for model-level problems."""
    command = list(command)
    if not command:
        return Report(
            EXIT_INPUT,
            "error: empty command",
            (),
            (Diagnostic("error", 1, 1, 0, "empty command", "E011"),),
        )
    verb = command[0]
    expected = COMMANDS.get(verb)
    try:
        if expected is None:
            raise _CommandError(EXIT_INPUT, _arg_diag(command, 0, f"unknown command '{verb}'", "E011"))
        if len(command) - 1 != len(expected):
            raise _CommandError(
                EXIT_INPUT,
                _arg_diag(
                    command, 0,
                    f"command '{verb}' takes {len(expected)} argument(s), got {len(command) - 1}",
                    "E011",
                ),
            )
        if verb == "check-all":
            return _check_all(model)
        return _run_single(model, command)
    except _CommandError as exc:
        return Report(
            exc.status,
            f"error: {exc.diagnostic.message}",
            (),
            (exc.diagnostic,),
        )
    except StructureError as exc:
        diag = Diagnostic("error", 1, 1, 0, str(exc), "E090")
        return Report(EXIT_DIMENSION, f"error: {exc}", (), (diag,))


def _read_model_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv=None) -> int:
    try:
        return _main(argv)
    except Exception as exc:  # a fault in modpairs, which must not read as a verdict
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="modpairs",
        description="Checks on declared pairs, maps, correspondences, levelled pairs and blowups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, positionals in COMMANDS.items():
        p = sub.add_parser(verb)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--model", default="-", help="model file, or - for stdin")
        p.add_argument("--machine", action="store_true", help="emit one JSON record per check")
    ns = parser.parse_args(argv)

    try:
        text = _read_model_text(ns.model)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_INPUT

    parsed = parse(text)
    if isinstance(parsed, list):
        for diag in parsed:
            print(format_diagnostic(diag), file=sys.stderr)
        return EXIT_INPUT

    command = [ns.command] + [getattr(ns, positional) for positional in COMMANDS[ns.command]]
    report = run_command(parsed, command)
    for diag in report.diagnostics:
        print(format_diagnostic(diag), file=sys.stderr)
    if ns.machine:
        for record in report.records:
            print(json.dumps(record, sort_keys=True))
    elif report.text and not report.diagnostics:  # a failed command reports on stderr only
        print(report.text)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
