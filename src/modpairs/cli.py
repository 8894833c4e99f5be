"""Command driver: load a model, run one check, report as text or JSON records.

Exit statuses distinguish answers from failures to answer: 0 means every
queried check passed or the command produced its value, 1 means a queried
membership or verdict came back false, 2 means malformed input or usage, a
model that cannot be read (a closed stdin too), 3 an unknown name, 4 a
dimension/structure mismatch, 5 an invalid blowup, 70 an internal error (a
fault in modpairs itself, never an answer), 74 stdout or stderr, argparse's
help and usage texts included, that could not be written in full, such as a
pipe whose reader has gone.  Stdin is decoded as a model file is, in strict
UTF-8 with universal newlines, whatever the locale.
Human text is written with ``backslashreplace``, as Python writes stderr, so
a name the output encoding cannot hold is escaped, not a fault.

``main`` pauses the cyclic garbage collector for its run and restores it as
it found it; ``run_command`` and the other library functions never touch it.
"""

from __future__ import annotations

import errno
import gc
import sys

from .blowup import BlowupClass, blowup_charts, classify
from .correspondences import corr_minimal_twist, in_colim_mcor, in_lcor, in_mcor
from .dsl import (
    KEYWORDS,
    MAX_INT_DIGITS,
    BlowupDecl,
    CorrDecl,
    Diagnostic,
    MapDecl,
    Model,
    PairDecl,
    QPairDecl,
    format_assignments,
    format_decl,
    format_diagnostic,
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
EXIT_IOERR = 74  # EX_IOERR

class Report(Value):
    """Outcome of one command: process status, human text, machine records."""

    __slots__ = ("status", "text", "records", "diagnostics")

    def __init__(self, status: int, text: str, records: tuple[dict, ...], diagnostics: tuple[Diagnostic, ...] = ()):
        setfield(self, "status", status)
        setfield(self, "text", text)
        setfield(self, "records", records)
        setfield(self, "diagnostics", diagnostics)


class _CommandError(Exception):
    """No answer: an exit status and a diagnostic spanning command word ``index``."""

    def __init__(self, status: int, index: int, message: str, code: str):
        super().__init__(message)
        self.status, self.index, self.code = status, index, code


def _arg_diag(command: list[str], index: int, message: str, code: str) -> Diagnostic:
    # span within the space-joined command line, so it stays inside the input
    column = 1 + sum(len(a) + 1 for a in command[:index])
    length = len(command[index]) if index < len(command) else 0
    return Diagnostic("error", 1, column, length, message, code)


def _lookup(model: Model, kind: type, command: list[str], index: int):
    name = command[index]
    decl = model.namespace(kind).get(name)
    if decl is None:
        raise _CommandError(EXIT_UNKNOWN_NAME, index, f"unknown {KEYWORDS[kind]} '{name}'", "E021")
    return decl


def _int_arg(command: list[str], index: int) -> int:
    text = command[index]
    if not (text.isascii() and text.isdigit()):
        raise _CommandError(EXIT_INPUT, index, f"expected a non-negative integer, got '{text}'", "E011")
    if len(text) > MAX_INT_DIGITS:
        raise _CommandError(EXIT_INPUT, index, f"integer argument longer than {MAX_INT_DIGITS} digits", "E012")
    return int(text)


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _twist_text(n: int | None) -> str:
    return "infeasible" if n is None else str(n)


# Each answer below is (whether the answer is yes, the record's result fields,
# the human result lines).


def _verdict(label: str, ok: bool):
    return ok, {"verdict": ok}, [f"{label}: {_bool_text(ok)}"]


def _least_twist(n: int | None):
    return n is not None, {"minimal_twist": n}, [f"minimal-twist: {_twist_text(n)}"]


def _classify(decl: BlowupDecl):
    verdict = classify(decl.spec)
    return verdict is not BlowupClass.INVALID, {"verdict": verdict.value}, [f"classification: {verdict.value}"]


def _blowup(decl: BlowupDecl):
    ok, fields, lines = _classify(decl)
    if not ok:  # declined: check-all skips it
        message = f"blowup '{decl.name}' has a center missing the divisor support"
        raise _CommandError(EXIT_INVALID_BLOWUP, 1, message, "E072")
    chart = decl.spec.pair.chart
    fields["charts"] = charts = [
        {
            "index": bc.index,
            "coord": chart.coords[bc.index],
            "map": format_assignments(bc.chart_map),
            "total_transform": format_divisor(chart, bc.total_transform),
        }
        for bc in blowup_charts(decl.spec)
    ]
    lines += [f"chart {c['coord']}: map {{ {c['map']} }}; total-transform {c['total_transform']}" for c in charts]
    return ok, fields, lines


def _corr_check(decl: CorrDecl):
    c = decl.corr
    memberships = {"mcor": in_mcor(c), "colim": in_colim_mcor(c), "lcor": in_lcor(c)}
    n = corr_minimal_twist(c)
    lines = [f"{test}: {_bool_text(ok)}" for test, ok in memberships.items()]
    lines.append(f"minimal-twist: {_twist_text(n)}")
    return all(memberships.values()), {"memberships": memberships, "minimal_twist": n}, lines


def _qdiv_normalize(decl: QPairDecl):
    result = q_normalize(decl.qpair)
    divisor = format_divisor(result.pair.chart, result.pair.divisor)
    return True, {"level": result.level, "divisor": divisor}, [f"normalized: ({result.level}, {divisor})"]


def _pair_result(pair: Pair, *notes: str):
    divisor = format_divisor(pair.chart, pair.divisor)
    text = f"result: coords {' '.join(pair.chart.coords)}; divisor {divisor}"
    return True, {"result": {"coords": list(pair.chart.coords), "divisor": divisor}}, [text, *notes]


# One entry per verb, in check-all's order: the declaration kind its names
# refer to, its positional names ("n" is the integer argument), and its answer
# from the declaration(s) (and n), or a _CommandError when it declines.  The
# answers call kernels by this module's names, never through a captured
# function object, so rebinding a name here reaches every call.
_VERBS = {
    "check-admissible": (MapDecl, ("name",), lambda d: _verdict("admissible", is_admissible(d.pair_map))),
    "minimal-twist": (MapDecl, ("name",), lambda d: _least_twist(minimal_twist(d.pair_map))),
    "hom-log": (MapDecl, ("name",), lambda d: _verdict("hom-log", hom_log_exists(d.pair_map))),
    "check-minimal": (MapDecl, ("name",), lambda d: _verdict("minimal", is_minimal(d.pair_map))),
    "classify": (BlowupDecl, ("name",), _classify),
    "blowup": (BlowupDecl, ("name",), _blowup),
    "corr-check": (CorrDecl, ("name",), _corr_check),
    "qdiv-normalize": (QPairDecl, ("name",), _qdiv_normalize),
    "qdiv-eq": (QPairDecl, ("first", "second"), lambda a, b: _verdict("equal", q_eq(a.qpair, b.qpair))),
    # the complementary interval chart carries no divisor component
    "cube": (PairDecl, ("name", "n"),
             lambda d, n: _pair_result(cube(d.pair, n), "note: only the chart at infinity is materialized")),
    "twist": (PairDecl, ("name", "n"), lambda d, n: _pair_result(twist(d.pair, n))),
}
COMMANDS = {verb: names for verb, (_, names, _) in _VERBS.items()} | {"check-all": ()}
# per declaration kind: its keyword and the verbs check-all runs on it
_CHECKS = {
    kind: (noun, [(verb, answer) for verb, (k, names, answer) in _VERBS.items() if k is kind and names == ("name",)])
    for kind, noun in KEYWORDS.items()
}


def _render(verb: str, args: list[str], words: str, inputs: dict, echoes: str, answer) -> tuple[int, str, dict]:
    """One answer's status, text (command line, input echoes, result lines) and record."""
    ok, fields, lines = answer
    text = f"command: {verb} {words}\n{echoes}\n" + "\n".join(lines)
    return EXIT_OK if ok else EXIT_FALSE, text, {"command": verb, "args": args, "inputs": inputs, **fields}


def _run_single(model: Model, command: list[str]) -> Report:
    verb, args = command[0], command[1:]
    kind, names, answer = _VERBS[verb]
    values, words, inputs, echoes = [], list(args), {}, []
    for index, name in enumerate(names, 1):
        if name == "n":
            value = inputs["n"] = _int_arg(command, index)
            words[index - 1] = str(value)
        else:
            value = _lookup(model, kind, command, index)
            key = KEYWORDS[kind] if name == "name" else name
            inputs[key] = echo = format_decl(value)
            echoes.append(f"{key}: {echo}")
        values.append(value)
    try:
        result = answer(*values)
    except StructureError:
        raise  # a fresh-coordinate collision: reported like every structure error
    except ValueError as exc:
        if "n" not in names:
            raise
        raise _CommandError(EXIT_INPUT, names.index("n") + 1, str(exc), "E011") from None
    status, text, record = _render(verb, args, " ".join(words), inputs, "\n".join(echoes), result)
    return Report(status, text, (record,))


def _check_all(model: Model) -> Report:
    """Every one-name verb on each declaration of its kind, in table order."""
    rendered = []
    for decl in model.decls:
        noun, checks = _CHECKS[type(decl)]
        if not checks:
            continue  # a pair alone has nothing to check
        name, echo = decl.name, format_decl(decl)
        line = f"{noun}: {echo}"
        for verb, answer in checks:
            try:
                result = answer(decl)
            except _CommandError:
                continue  # the verb declines, as blowup does on an invalid center
            rendered.append(_render(verb, [name], name, {noun: echo}, line, result))
    statuses, texts, records = zip(*rendered) if rendered else ((), (), ())
    return Report(max(statuses, default=EXIT_OK), "\n\n".join(texts), records)


def run_command(model: Model, command) -> Report:
    """Run one command against a model; never raises for model-level problems."""
    command = list(command)
    try:
        if not command:
            raise _CommandError(EXIT_INPUT, 0, "empty command", "E011")
        verb = command[0]
        expected = COMMANDS.get(verb)
        if expected is None:
            raise _CommandError(EXIT_INPUT, 0, f"unknown command '{verb}'", "E011")
        if len(command) - 1 != len(expected):
            message = f"command '{verb}' takes {len(expected)} argument(s), got {len(command) - 1}"
            raise _CommandError(EXIT_INPUT, 0, message, "E011")
        if verb == "check-all":
            return _check_all(model)
        return _run_single(model, command)
    except _CommandError as exc:
        diag = _arg_diag(command, exc.index, str(exc), exc.code)
        return Report(exc.status, f"error: {diag.message}", (), (diag,))
    except StructureError as exc:
        diag = Diagnostic("error", 1, 1, 0, str(exc), "E090")
        return Report(EXIT_DIMENSION, f"error: {exc}", (), (diag,))


def _read_model_text(path: str) -> str:
    if path != "-":
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    if sys.stdin is None:  # the descriptor was closed when the process started
        raise OSError(errno.EBADF, "Bad file descriptor")
    binary = getattr(sys.stdin, "buffer", None)
    if binary is None:  # text kept in memory
        return sys.stdin.read()
    return binary.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def main(argv=None) -> int:
    # A run builds only immutable trees without reference cycles, which
    # reference counting frees, so collector passes would reclaim nothing.
    # Only main pauses it, since only main owns the process.
    enabled = gc.isenabled()
    gc.disable()
    try:
        status, out, err = _main(argv)
    except Exception as exc:  # a fault in modpairs, which must not read as a verdict
        status, out, err = EXIT_INTERNAL, "", f"error: internal error: {exc!r}\n"
    finally:
        if enabled:
            gc.enable()
    try:
        _write(sys.stdout, out)
    except OSError as exc:  # a closed pipe or a full disk
        status, err = EXIT_IOERR, err + f"error: cannot write output: {exc}\n"
    try:
        _write(sys.stderr, err)
    except OSError:
        return EXIT_IOERR
    return status


def _read_argv(argv: list[str]) -> tuple[list[str], str, bool] | None:
    """(command, model, machine) for a verb, exactly its positionals and at most
    one each of --model F (or --model=F) and --machine, where no positional and
    no F but "-" starts with "-"; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, model, machine = argv[:1], None, False
    words = iter(argv[1:])
    for word in words:
        if word == "--machine" and not machine:
            machine = True
        elif word.partition("=")[0] == "--model" and model is None:
            model = word[8:] if "=" in word else next(words, "--")  # no value: refused below
        elif word.startswith("-"):
            return None
        else:
            command.append(word)
    model = "-" if model is None else model
    if len(command) != len(COMMANDS[argv[0]]) + 1 or model != "-" and model.startswith("-"):
        return None
    return command, model, machine


def _parser():
    """argparse, for every argv that ``_read_argv`` leaves: help, errors, other spellings."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="modpairs",
        description="Checks on declared pairs, maps, correspondences, levelled pairs and blowups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in COMMANDS:
        p = sub.add_parser(verb)
        for positional in COMMANDS[verb]:
            p.add_argument(positional)
        p.add_argument("--model", default="-", help="model file, or - for stdin")
        p.add_argument("--machine", action="store_true", help="emit one JSON record per check")
    return parser


def _main(argv) -> tuple[int, str, str]:
    argv = sys.argv[1:] if argv is None else list(argv)
    read = _read_argv(argv)
    if read is None:
        import contextlib
        import io
        out, err = io.StringIO(), io.StringIO()  # argparse's help and usage texts, for main to write
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ns = _parser().parse_args(argv)
        except SystemExit as exc:  # help printed, or a usage error
            return exc.code, out.getvalue(), err.getvalue()
        read = [ns.command] + [getattr(ns, p) for p in COMMANDS[ns.command]], ns.model, ns.machine
    command, model, machine = read

    try:
        text = _read_model_text(model)
    except (OSError, UnicodeDecodeError) as exc:
        return EXIT_INPUT, "", f"error: cannot read model: {exc}\n"

    parsed = parse(text)
    if isinstance(parsed, list):
        report = Report(EXIT_INPUT, "", (), tuple(parsed))
    else:
        report = run_command(parsed, command)
    err = "".join(format_diagnostic(diag) + "\n" for diag in report.diagnostics)
    out = ""
    if machine:
        import json
        # One encoding of the whole list, cut between records.  An encoded
        # string holds no bare '"', each record's first sorted key is "args"
        # and no nested object has that key, so '}, {"args": ' occurs only
        # between two records.
        out = json.dumps(report.records, sort_keys=True)[1:-1].replace('}, {"args": ', '}\n{"args": ')
        out += "\n" if out else ""
    elif report.text and not report.diagnostics:  # a failed command reports on stderr only
        out = report.text + "\n"
    return report.status, out, err


def _write(stream, text: str):
    """All of ``text`` to ``stream``, escaping what its encoding cannot hold as
    Python does on stderr; OSError when it cannot all be written.  The bytes go
    to the raw file, so a failed write leaves nothing for the flush at exit."""
    if not text:
        return
    if stream is None:  # the descriptor was closed when the process started
        raise OSError(errno.EBADF, "Bad file descriptor")
    binary = getattr(stream, "buffer", None)
    if binary is None:  # text kept in memory
        stream.write(text)
        return
    stream.flush()
    raw = getattr(binary, "raw", binary)  # the buffer itself under python -u, or a BytesIO
    data = memoryview(text.encode(stream.encoding, "backslashreplace"))
    while data:
        written = raw.write(data)
        if written is None:  # a full non-blocking file: wait until it drains
            import select
            select.select([], [raw], [])
        data = data[written:]  # a memoryview sliced from None is all of it


if __name__ == "__main__":
    sys.exit(main())
