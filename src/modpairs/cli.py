"""Command driver: load a model, run one check, report as text or JSON records.

A ``Report`` is its status, its records and its diagnostics; its ``text`` is
rendered from them on each read, so ``--machine``, which writes the records,
never builds the human text.

Exit statuses distinguish answers from failures to answer: 0 means every
queried check passed or the command produced its value, 1 means a queried
membership or verdict came back false, 2 means malformed input or usage, a
model that cannot be read (a closed stdin too), 3 an unknown name, 4 a
dimension/structure mismatch, 5 an invalid blowup, 70 an internal error (a
fault in modpairs itself, never an answer), 74 stdout or stderr, the help
text included, that could not be written in full, such as a pipe whose
reader has gone.  Stdin is decoded as a model file is, in strict
UTF-8 with universal newlines, whatever the locale.
Human text is written with ``backslashreplace``, as Python writes stderr, so
a name the output encoding cannot hold is escaped, not a fault.

``entry``, the process entry point (``python -m modpairs``, ``python -m
modpairs.cli`` and the installed ``modpairs`` script), is the one owner of
the cyclic garbage collector: it turns it off, runs ``main`` and freezes it
before the interpreter exits.  ``main``, ``run_command`` and the other
library functions never touch it.
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
    _setters,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
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
    """Outcome of one command: process status, machine records and diagnostics.

    ``text``, the human rendering, is built from the records on each read, so a
    caller that reads only the records never pays for it.
    """

    __slots__ = ("status", "records", "diagnostics")

    def __init__(self, status: int, records: tuple[dict, ...], diagnostics: tuple[Diagnostic, ...] = ()):
        _report_status(self, status)
        _report_records(self, records)
        _report_diagnostics(self, diagnostics)

    def __hash__(self):  # over every field but the records, which are dicts
        return hash((self.status, self.diagnostics))

    @property
    def text(self) -> str:
        """One ``error:`` line per diagnostic, else each record's text, a blank line between two."""
        if self.diagnostics:
            return "\n".join(f"error: {diag.message}" for diag in self.diagnostics)
        return "\n\n".join(map(_record_text, self.records))


_report_status, _report_records, _report_diagnostics = _setters(Report)


class _CommandError(Exception):
    """No answer: an exit status and a diagnostic spanning command word ``index``."""

    def __init__(self, status: int, index: int, message: str, code: str):
        super().__init__(message)
        self.status, self.index, self.code = status, index, code


def _arg_diag(command: list[str], index: int, message: str, code: str) -> Diagnostic:
    # span within the space-joined command line, so it stays inside the input
    column = 1 + sum(len(a) + 1 for a in command[:index])
    length = len(command[index]) if index < len(command) else 0
    return Diagnostic(1, column, length, message, code)


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


# Each answer below is (whether the answer is yes, the record's result fields);
# each text beside it reads the human result lines from such a record.


def _verdict(ok: bool):
    return ok, {"verdict": ok}


def _verdict_text(label: str):
    return lambda r: [f"{label}: {_bool_text(r['verdict'])}"]


def _least_twist(n: int | None):
    return n is not None, {"minimal_twist": n}


def _least_twist_text(r: dict) -> list[str]:
    n = r["minimal_twist"]
    return [f"minimal-twist: {'infeasible' if n is None else n}"]


def _classify(decl: BlowupDecl):
    verdict = classify(decl.spec)
    return verdict is not BlowupClass.INVALID, {"verdict": verdict.value}


def _blowup(decl: BlowupDecl):
    ok, fields = _classify(decl)
    if not ok:  # declined: check-all skips it
        message = f"blowup '{decl.name}' has a center missing the divisor support"
        raise _CommandError(EXIT_INVALID_BLOWUP, 1, message, "E072")
    chart = decl.spec.pair.chart
    fields["charts"] = [
        {
            "index": bc.index,
            "coord": chart.coords[bc.index],
            "map": format_assignments(bc.chart_map),
            "total_transform": format_divisor(chart, bc.total_transform),
        }
        for bc in blowup_charts(decl.spec)
    ]
    return ok, fields


def _blowup_text(r: dict) -> list[str]:
    charts = [f"chart {c['coord']}: map {{ {c['map']} }}; total-transform {c['total_transform']}" for c in r["charts"]]
    return [f"classification: {r['verdict']}", *charts]


def _corr_check(decl: CorrDecl):
    c = decl.corr
    memberships = {"mcor": in_mcor(c), "colim": in_colim_mcor(c), "lcor": in_lcor(c)}
    return all(memberships.values()), {"memberships": memberships, "minimal_twist": corr_minimal_twist(c)}


def _corr_check_text(r: dict) -> list[str]:
    memberships = r["memberships"]  # read in a fixed order, which a JSON round trip does not keep
    return [f"{test}: {_bool_text(memberships[test])}" for test in ("mcor", "colim", "lcor")] + _least_twist_text(r)


def _qdiv_normalize(decl: QPairDecl):
    result = q_normalize(decl.qpair)
    return True, {"level": result.level, "divisor": format_divisor(result.pair.chart, result.pair.divisor)}


def _pair_result(pair: Pair):
    return True, {"result": {"coords": list(pair.chart.coords), "divisor": format_divisor(pair.chart, pair.divisor)}}


def _pair_result_text(r: dict) -> list[str]:
    result = r["result"]
    return [f"result: coords {' '.join(result['coords'])}; divisor {result['divisor']}"]


# One entry per verb, in check-all's order: the declaration kind its names
# refer to, its positional names ("n" is the integer argument), its answer
# from the declaration(s) (and n), or a _CommandError when it declines, and
# its text.  The answers call kernels by this module's names, never through a
# captured function object, so rebinding a name here reaches every call.
_VERBS = {
    "check-admissible": (MapDecl, ("name",), lambda d: _verdict(is_admissible(d.pair_map)),
                         _verdict_text("admissible")),
    "minimal-twist": (MapDecl, ("name",), lambda d: _least_twist(minimal_twist(d.pair_map)), _least_twist_text),
    "hom-log": (MapDecl, ("name",), lambda d: _verdict(hom_log_exists(d.pair_map)), _verdict_text("hom-log")),
    "check-minimal": (MapDecl, ("name",), lambda d: _verdict(is_minimal(d.pair_map)), _verdict_text("minimal")),
    "classify": (BlowupDecl, ("name",), _classify, lambda r: [f"classification: {r['verdict']}"]),
    "blowup": (BlowupDecl, ("name",), _blowup, _blowup_text),
    "corr-check": (CorrDecl, ("name",), _corr_check, _corr_check_text),
    "qdiv-normalize": (QPairDecl, ("name",), _qdiv_normalize,
                       lambda r: [f"normalized: ({r['level']}, {r['divisor']})"]),
    "qdiv-eq": (QPairDecl, ("first", "second"), lambda a, b: _verdict(q_eq(a.qpair, b.qpair)), _verdict_text("equal")),
    # the complementary interval chart carries no divisor component
    "cube": (PairDecl, ("name", "n"), lambda d, n: _pair_result(cube(d.pair, n)),
             lambda r: _pair_result_text(r) + ["note: only the chart at infinity is materialized"]),
    "twist": (PairDecl, ("name", "n"), lambda d, n: _pair_result(twist(d.pair, n)), _pair_result_text),
}
COMMANDS = {verb: names for verb, (_, names, _, _) in _VERBS.items()} | {"check-all": ()}
# per declaration kind: its keyword and the verbs check-all runs on it
_CHECKS = {
    kind: (noun, [(verb, answer) for verb, (k, names, answer, _) in _VERBS.items() if k is kind and names == ("name",)])
    for kind, noun in KEYWORDS.items()
}


def _record_text(record: dict) -> str:
    """A record's human text, read from the record alone: its command line, with
    ``n`` as the integer read, its input echoes, then its verb's result lines."""
    verb = record.get("command")
    if verb not in _VERBS:
        raise StructureError(f"no command renders a record of {verb!r}")
    _, names, _, result_text = _VERBS[verb]
    try:
        inputs = record["inputs"]
        words = [str(inputs["n"]) if name == "n" else word for name, word in zip(names, record["args"])]
        echoes = [f"{key}: {echo}" for key, echo in inputs.items() if key != "n"]
        return "\n".join([f"command: {verb} {' '.join(words)}", *echoes, *result_text(record)])
    except KeyError as exc:
        raise StructureError(f"a {verb} record lacks {exc}") from None


def _run_single(model: Model, command: list[str]) -> Report:
    verb, args = command[0], command[1:]
    kind, names, answer, _ = _VERBS[verb]
    values, inputs = [], {}
    for index, name in enumerate(names, 1):
        if name == "n":
            value = inputs["n"] = _int_arg(command, index)
        else:
            value = _lookup(model, kind, command, index)
            inputs[KEYWORDS[kind] if name == "name" else name] = format_decl(value)
        values.append(value)
    try:
        ok, fields = answer(*values)
    except StructureError:
        raise  # a fresh-coordinate collision: reported like every structure error
    except ValueError as exc:
        if "n" not in names:
            raise
        raise _CommandError(EXIT_INPUT, names.index("n") + 1, str(exc), "E011") from None
    return Report(EXIT_OK if ok else EXIT_FALSE, ({"command": verb, "args": args, "inputs": inputs, **fields},))


def _check_all(model: Model) -> Report:
    """Every one-name verb on each declaration of its kind, in table order."""
    status, records = EXIT_OK, []
    for decl in model.decls:
        noun, checks = _CHECKS[type(decl)]
        if not checks:
            continue  # a pair alone has nothing to check
        name, echo = decl.name, format_decl(decl)
        for verb, answer in checks:
            try:
                ok, fields = answer(decl)
            except _CommandError:
                continue  # the verb declines, as blowup does on an invalid center
            if not ok:
                status = EXIT_FALSE
            records.append({"command": verb, "args": [name], "inputs": {noun: echo}, **fields})
    return Report(status, tuple(records))


def _refused(command: list[str]) -> Report | None:
    """The E011 report on an empty command, an unknown verb or a wrong argument count; else None."""
    if not command:
        message = "empty command"
    elif command[0] not in COMMANDS:
        message = f"unknown command '{command[0]}'"
    elif len(command) - 1 != len(COMMANDS[command[0]]):
        message = f"command '{command[0]}' takes {len(COMMANDS[command[0]])} argument(s), got {len(command) - 1}"
    else:
        return None
    return Report(EXIT_INPUT, (), (_arg_diag(command, 0, message, "E011"),))


def run_command(model: Model, command) -> Report:
    """Run one command against a model; never raises for model-level problems."""
    command = list(command)
    refused = _refused(command)
    if refused is not None:
        return refused
    try:
        if command[0] == "check-all":
            return _check_all(model)
        return _run_single(model, command)
    except _CommandError as exc:
        diag = _arg_diag(command, exc.index, str(exc), exc.code)
        return Report(exc.status, (), (diag,))
    except StructureError as exc:
        diag = Diagnostic(1, 1, 0, str(exc), "E090")
        return Report(EXIT_DIMENSION, (), (diag,))


def _read_model_text(path: str) -> str:
    """A file's or stdin's bytes in strict UTF-8, every line ending read as a newline."""
    if path != "-":
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    elif sys.stdin is None:  # the descriptor was closed when the process started
        raise OSError(errno.EBADF, "Bad file descriptor")
    elif getattr(sys.stdin, "buffer", None) is None:  # text kept in memory
        text = sys.stdin.read()
    else:
        text = sys.stdin.buffer.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv=None) -> int:
    try:
        status, out, err = _main(argv)
    except Exception as exc:  # a fault in modpairs, which must not read as a verdict
        status, out, err = EXIT_INTERNAL, "", f"error: internal error: {exc!r}\n"
    try:
        _write(sys.stdout, out)
    except OSError as exc:  # a closed pipe or a full disk
        status, err = EXIT_IOERR, err + f"error: cannot write output: {exc}\n"
    try:
        _write(sys.stderr, err)
    except OSError:
        return EXIT_IOERR
    return status


def entry():
    """Run ``main`` as a process: its status is the exit status.

    A run builds only immutable trees without reference cycles, which
    reference counting frees, so the collector is off for it and never turned
    back on.  Then every object still alive moves into the permanent
    generation, which the interpreter's shutdown collections skip, and the OS
    reclaims it as on any exit.  It leaves through ``sys.exit``, so ``atexit``
    handlers and a tool wrapping the run, such as a profiler, still run.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


def _read_argv(argv: list[str]) -> tuple[list[str], str | None, bool, list[str] | None]:
    """(command, model, machine, asked) from argv.  Five spellings are options,
    wherever they stand: --machine, --model F, --model=F, -h and --help; the
    last --model wins, and F is None for a --model that ends argv.  Every other
    word is a positional of the command.  asked is None without -h or --help,
    else the positionals' first word before the last of them, if any."""
    command, model, machine, asked = [], "-", False, None
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):  # most words: kept cheap for a shell call
            command.append(word)
        elif word == "--machine":
            machine = True
        elif word == "--model":
            model = next(words, None)
        elif word.startswith("--model="):
            model = word[8:]
        elif word in ("-h", "--help"):
            asked = command[:1]
        else:
            command.append(word)
    return command, model, machine, asked


def _help(asked: list[str]) -> str:
    """The usage of the verb that help was asked after, else of every verb: from the verb table."""
    usages = {verb: " ".join([verb, *("n" if name == "n" else KEYWORDS[_VERBS[verb][0]] for name in names)])
              for verb, names in COMMANDS.items()}
    if asked and asked[0] in COMMANDS:
        text = f"usage: modpairs {usages[asked[0]]} [--model FILE] [--machine]\n"
    else:
        text = ("usage: modpairs COMMAND [ARGUMENT...] [--model FILE] [--machine]\n\n"
                "Checks on declared pairs, maps, correspondences, levelled pairs and blowups.\n\n"
                "commands and their arguments:\n" + "".join(f"  {usage}\n" for usage in usages.values()))
    return text + """
options:
  --model FILE  the model file, or - for stdin (the default)
  --machine     one JSON record per line for each check
  -h, --help    this help; after a command, that command's usage
"""


def _main(argv) -> tuple[int, str, str]:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, model, machine, asked = _read_argv(argv)
    if asked is not None:
        return EXIT_OK, _help(asked), ""
    if model is None:
        return EXIT_INPUT, "", "error: --model needs a file name\n"
    report = _refused(command)  # before the model is read, so a usage error never waits on stdin
    if report is None:
        try:
            text = _read_model_text(model)
        except (OSError, ValueError) as exc:  # a UnicodeDecodeError, or a NUL in the file name
            return EXIT_INPUT, "", f"error: cannot read model: {exc}\n"
        parsed = parse(text)
        report = Report(EXIT_INPUT, (), tuple(parsed)) if isinstance(parsed, list) else run_command(parsed, command)
    if report.diagnostics:  # a failed command reports on stderr only
        return report.status, "", "".join(format_diagnostic(diag) + "\n" for diag in report.diagnostics)
    if machine:
        import json
        # One encoding of the whole list, cut between records.  An encoded
        # string holds no bare '"', each record's first sorted key is "args"
        # and no nested object has that key, so '}, {"args": ' occurs only
        # between two records.  The records are fresh dicts and lists that
        # run_command built in this call, so no cycle check is needed.
        encoded = json.dumps(report.records, sort_keys=True, check_circular=False)
        out = encoded[1:-1].replace('}, {"args": ', '}\n{"args": ')
    else:
        out = report.text  # its one read, so that --machine never renders it
    return report.status, out + "\n" if out else "", ""


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
    entry()
