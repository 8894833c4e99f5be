import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modpairs.cli import (
    COMMANDS,
    EXIT_DIMENSION,
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_INVALID_BLOWUP,
    EXIT_IOERR,
    EXIT_OK,
    EXIT_UNKNOWN_NAME,
    Report,
    _parser,
    _read_argv,
    main,
    run_command,
)
import modpairs
from modpairs.dsl import MAX_INT_DIGITS, Diagnostic, Model, parse, print_model
from randgen import random_model

README = Path(__file__).parent.parent / "README.md"
EXAMPLE = Path(__file__).parent.parent / "scripts" / "example.lp"
MALFORMED = Path(__file__).parent / "data" / "malformed" / "m01_bad_keyword.lp"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
# main's help, usage and argparse errors, frozen under one Python version
ARGV_SURFACE = json.loads((Path(__file__).parent / "data" / "argv_surface.json").read_text(encoding="utf-8"))

DEMO = """\
pair X { dim 1; coords t; divisor { t: 1 } }
pair Y { dim 1; coords s; divisor { s: 3 } }
map f : X -> Y { s <- t^2 }
map g : X -> X { t <- t }
corr C monomial(2, 3, 1, 1)
corr D monomial(1, 1, 1, 1)
qpair Q = (6, X)
qpair R = (2, X)
pair Z { dim 2; coords x y; divisor { x: 1, y: 1 } }
pair W { dim 2; coords u v; divisor { u: 1 } }
blowup B on Z center { x, y }
blowup V on W center { v }
"""


def model() -> Model:
    parsed = parse(DEMO)
    assert isinstance(parsed, Model)
    return parsed


class TestChecks:
    def test_check_admissible_false(self):
        report = run_command(model(), ["check-admissible", "f"])
        assert report.status == EXIT_FALSE
        assert report.records[0]["verdict"] is False

    def test_check_admissible_true(self):
        report = run_command(model(), ["check-admissible", "g"])
        assert report.status == EXIT_OK
        assert report.records[0]["verdict"] is True

    def test_minimal_twist(self):
        report = run_command(model(), ["minimal-twist", "f"])
        assert report.status == EXIT_OK
        assert report.records[0]["minimal_twist"] == 6
        assert "minimal-twist: 6" in report.text

    def test_hom_log(self):
        report = run_command(model(), ["hom-log", "f"])
        assert report.status == EXIT_OK
        assert report.records[0]["verdict"] is True

    def test_check_minimal(self):
        report = run_command(model(), ["check-minimal", "g"])
        assert report.status == EXIT_OK

    def test_corr_check_counterexample(self):
        report = run_command(model(), ["corr-check", "C"])
        assert report.status == EXIT_FALSE
        record = report.records[0]
        assert record["memberships"] == {"mcor": False, "colim": True, "lcor": False}
        assert record["minimal_twist"] == 2
        assert record["inputs"]["corr"] == "corr C monomial(2, 3, 1, 1)"

    def test_corr_check_identity(self):
        report = run_command(model(), ["corr-check", "D"])
        assert report.status == EXIT_OK
        assert report.records[0]["memberships"] == {"mcor": True, "colim": True, "lcor": True}

    def test_classify_modification(self):
        report = run_command(model(), ["classify", "B"])
        assert report.status == EXIT_OK
        assert report.records[0]["verdict"] == "modification"

    def test_blowup_charts(self):
        report = run_command(model(), ["blowup", "B"])
        assert report.status == EXIT_OK
        charts = report.records[0]["charts"]
        assert [c["total_transform"] for c in charts] == ["{x: 2, y: 1}", "{x: 1, y: 2}"]
        assert charts[0]["map"] == "x <- x; y <- x * y"

    def test_qdiv_normalize(self):
        report = run_command(model(), ["qdiv-normalize", "Q"])
        assert report.status == EXIT_OK
        record = report.records[0]
        assert record["level"] == 6 and record["divisor"] == "{t: 1}"

    def test_qdiv_eq(self):
        report = run_command(model(), ["qdiv-eq", "Q", "R"])
        assert report.status == EXIT_FALSE
        assert report.records[0]["verdict"] is False

    def test_cube(self):
        report = run_command(model(), ["cube", "X", "2"])
        assert report.status == EXIT_OK
        assert report.records[0]["result"] == {"coords": ["t", "inf"], "divisor": "{t: 1, inf: 2}"}

    def test_twist(self):
        report = run_command(model(), ["twist", "X", "3"])
        assert report.status == EXIT_OK
        assert report.records[0]["result"] == {"coords": ["t"], "divisor": "{t: 3}"}

    def test_check_all(self):
        report = run_command(model(), ["check-all"])
        assert report.status == EXIT_FALSE  # f and C fail checks
        commands = [r["command"] for r in report.records]
        assert commands.count("corr-check") == 2
        assert "blowup" in commands and "qdiv-normalize" in commands


class TestErrors:
    def test_unknown_name(self):
        report = run_command(model(), ["minimal-twist", "nope"])
        assert report.status == EXIT_UNKNOWN_NAME
        assert report.diagnostics[0].code == "E021"

    def test_unknown_command(self):
        report = run_command(model(), ["frobnicate", "f"])
        assert report.status == EXIT_INPUT

    def test_wrong_arity(self):
        report = run_command(model(), ["qdiv-eq", "Q"])
        assert report.status == EXIT_INPUT

    def test_invalid_blowup(self):
        report = run_command(model(), ["blowup", "V"])
        assert report.status == EXIT_INVALID_BLOWUP
        assert report.diagnostics

    def test_classify_invalid_is_answer(self):
        report = run_command(model(), ["classify", "V"])
        assert report.status == EXIT_FALSE
        assert report.records[0]["verdict"] == "invalid"

    def test_dimension_mismatch(self):
        text = DEMO + "pair A { dim 1; coords q; divisor { q: 1 } }\nqpair S = (2, A)\n"
        parsed = parse(text)
        report = run_command(parsed, ["qdiv-eq", "Q", "S"])
        assert report.status == EXIT_DIMENSION

    def test_cube_coordinate_collision_is_structure_error(self):
        parsed = parse("pair I { dim 1; coords inf; divisor { inf: 1 } }\n")
        report = run_command(parsed, ["cube", "I", "2"])
        assert report.status == EXIT_DIMENSION
        assert report.diagnostics[0].code == "E090"
        assert "collides" in report.text

    def test_cube_zero_weight_is_input_error(self):
        report = run_command(model(), ["cube", "X", "0"])
        assert report.status == EXIT_INPUT
        assert report.diagnostics[0].code == "E011"

    def test_bad_integer_argument(self):
        report = run_command(model(), ["twist", "X", "zero"])
        assert report.status == EXIT_INPUT

    def test_non_ascii_digit_argument(self):
        report = run_command(model(), ["twist", "X", "\u00b2"])
        assert report.status == EXIT_INPUT
        assert report.diagnostics[0].code == "E011"

    def test_overlong_integer_argument(self):
        command = ["twist", "X", "7" * (MAX_INT_DIGITS + 1)]
        report = run_command(model(), command)
        assert report.status == EXIT_INPUT
        diag = report.diagnostics[0]
        assert diag.code == "E012"
        assert " ".join(command)[diag.column - 1 : diag.column - 1 + diag.length] == command[2]

    def test_diagnostic_span_inside_command_text(self):
        command = ["minimal-twist", "nope"]
        report = run_command(model(), command)
        diag = report.diagnostics[0]
        joined = " ".join(command)
        assert joined[diag.column - 1 : diag.column - 1 + diag.length] == "nope"

    def test_empty_command(self):
        expected = Diagnostic("error", 1, 1, 0, "empty command", "E011")
        assert run_command(model(), []) == Report(EXIT_INPUT, "error: empty command", (), (expected,))


_WORD = st.one_of(
    st.sampled_from(sorted(COMMANDS)),
    st.sampled_from("XYfgCDQRZWBV"),
    st.sampled_from(["0", "007", "\u00b2", "-1", "nope", ""]),
    st.text(max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(command=st.lists(_WORD, max_size=4))
def test_run_command_on_any_words(command):
    """Any list of words gives a report: a failure carries diagnostics and no
    records, an answer no diagnostics, and every span lies in the command text."""
    report = run_command(model(), command)
    assert report.status in range(6)
    if report.status >= EXIT_INPUT:
        assert not report.records and report.diagnostics
    else:
        assert not report.diagnostics
    joined = " ".join(command)
    for diag in report.diagnostics:
        assert diag.line == 1 and diag.column >= 1
        assert diag.column - 1 + diag.length <= len(joined)


class TestDeterminism:
    def test_machine_records_byte_identical(self):
        first = run_command(model(), ["check-all"])
        second = run_command(model(), ["check-all"])
        dump = lambda r: [json.dumps(rec, sort_keys=True) for rec in r.records]
        assert dump(first) == dump(second)
        assert first.text == second.text


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_check_all_is_its_single_verbs(seed):
    """check-all gives what each one-name verb gives on every declaration of its
    kind, in declaration order then command order, leaving out a verb that
    declines (blowup on an invalid center)."""
    m = random_model(random.Random(seed))
    assert len({d.name for d in m.decls}) == len(m.decls)  # so E021 means "not of this verb's kind"
    singles = []
    for decl in m.decls:
        for verb, names in COMMANDS.items():
            if names != ("name",):
                continue
            report = run_command(m, [verb, decl.name])
            if report.diagnostics:
                assert [d.code for d in report.diagnostics] in (["E021"], ["E072"])
                continue
            singles.append(report)
    report = run_command(m, ["check-all"])
    assert report.records == tuple(record for r in singles for record in r.records)
    assert report.text == "\n\n".join(r.text for r in singles)
    assert report.status == max((r.status for r in singles), default=EXIT_OK)
    assert not report.diagnostics


def test_readme_lists_the_commands():
    """The README's command table names every command, in the order of ``COMMANDS``."""
    listed = re.findall(r"^\| `([a-z-]+)` \|", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert listed == list(COMMANDS)


class TestMain:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "demo.lp"
        path.write_text(DEMO)
        return str(path)

    def test_human_output(self, model_file, capsys):
        status = main(["minimal-twist", "f", "--model", model_file])
        out = capsys.readouterr()
        assert status == EXIT_OK
        assert "minimal-twist: 6" in out.out

    def test_machine_output(self, model_file, capsys):
        status = main(["corr-check", "C", "--model", model_file, "--machine"])
        out = capsys.readouterr()
        assert status == EXIT_FALSE
        record = json.loads(out.out.strip())
        assert record["memberships"]["colim"] is True

    def test_parse_errors_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_text("pair X { dim 2; coords t; divisor {} }\n")
        status = main(["check-all", "--model", str(path)])
        out = capsys.readouterr()
        assert status == EXIT_INPUT
        assert "E030" in out.err and not out.out

    def test_model_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.lp"
        path.write_bytes(b"pair X { dim 1; coords t; divisor { t: \xff } }\n")
        status = main(["classify", "X", "--model", str(path)])
        out = capsys.readouterr()
        assert status == EXIT_INPUT
        assert "cannot read model" in out.err and not out.out

    def test_non_ascii_digit_in_model(self, tmp_path, capsys):
        path = tmp_path / "digit.lp"
        path.write_text("pair X { dim \u00b2; coords t; divisor { t: 1 } }\n", encoding="utf-8")
        status = main(["classify", "X", "--model", str(path)])
        assert status == EXIT_INPUT
        assert "1:14: error: unexpected character '\u00b2' [E001]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, golden", [([], "check_all_example.txt"), (["--machine"], "check_all_example.jsonl")])
    def test_check_all_golden(self, flags, golden, capsys):
        status = main(["check-all", "--model", str(EXAMPLE), *flags])
        assert status == EXIT_FALSE
        assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text(encoding="utf-8")

    def test_cube_collision_prints_nothing_on_stdout(self, tmp_path, capsys):
        path = tmp_path / "i.lp"
        path.write_text("pair I { dim 1; coords inf; divisor { inf: 1 } }\n")
        status = main(["cube", "I", "2", "--model", str(path)])
        out = capsys.readouterr()
        assert status == EXIT_DIMENSION
        assert out.out == ""
        assert out.err == "1:1: error: fresh coordinate name 'inf' collides with the chart [E090]\n"

    def test_unknown_name_prints_nothing_on_stdout(self, model_file, capsys):
        status = main(["minimal-twist", "nope", "--model", model_file])
        out = capsys.readouterr()
        assert status == EXIT_UNKNOWN_NAME
        assert out.out == ""
        assert out.err == "1:15: error: unknown map 'nope' [E021]\n"

    def test_missing_file(self, capsys):
        status = main(["check-all", "--model", "/nonexistent/model.lp"])
        assert status == EXIT_INPUT
        assert "cannot read model" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, model_file, capsys, monkeypatch):
        def broken(model, command):
            raise RuntimeError("broken\nkernel")

        monkeypatch.setattr("modpairs.cli.run_command", broken)
        status = main(["check-all", "--model", model_file])
        out = capsys.readouterr()
        assert status == EXIT_INTERNAL
        assert status not in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_UNKNOWN_NAME, EXIT_DIMENSION, EXIT_INVALID_BLOWUP)
        assert out.err.splitlines() == ["error: internal error: RuntimeError('broken\\nkernel')"]
        assert not out.out

    @pytest.mark.parametrize("case", ARGV_SURFACE["cases"], ids=lambda case: " ".join(case["argv"]) or "no-args")
    def test_argv_surface_is_frozen(self, case, capsys, monkeypatch):
        # argparse words help and errors differently in other Python versions
        if "%d.%d" % sys.version_info[:2] != ARGV_SURFACE["python"]:
            pytest.skip(f"captured under Python {ARGV_SURFACE['python']}")
        monkeypatch.setenv("COLUMNS", "80")
        try:
            status = main(list(case["argv"]))
        except SystemExit as exc:
            status = exc.code
        out = capsys.readouterr()
        assert (out.out, out.err, status) == (case["stdout"], case["stderr"], case["status"])

    def test_stdin(self, model_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DEMO))
        status = main(["classify", "B"])
        assert status == EXIT_OK
        assert "modification" in capsys.readouterr().out

    def test_check_all_machine_is_ndjson(self, model_file, capsys):
        status = main(["check-all", "--model", model_file, "--machine"])
        out = capsys.readouterr().out.strip().splitlines()
        assert status == EXIT_FALSE
        for line in out:
            json.loads(line)
        assert len(out) >= 10


def _cli(argv: list[str], stdout, *, stdin=None, stderr=subprocess.PIPE, preexec_fn=None, **env) -> subprocess.Popen:
    """``python -m modpairs argv`` in a child process, without a shell; an
    ``env`` value of None removes the variable."""
    src = str(Path(modpairs.__file__).resolve().parents[1])
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=src, **env).items() if v is not None}
    return subprocess.Popen([sys.executable, "-m", "modpairs", *argv], stdin=stdin, stdout=stdout, stderr=stderr,
                            preexec_fn=preexec_fn, env=env)


# 2 000 maps whose every verdict is true, so check-all exits 0 with output beyond a pipe's capacity
_MAPS = "pair X { dim 1; coords t; divisor {t: 1} }\n" + "".join(f"map f{i} : X -> X {{ t <- t }}\n" for i in range(2000))


class TestOutput:
    # stdout unbuffered, as under ``python -u``, and buffered
    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("flags", [[], ["--machine"]], ids=["human", "machine"])
    def test_closed_stdout_is_an_output_error(self, flags, unbuffered):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe fails
        try:
            child = _cli(["check-all", "--model", str(EXAMPLE), *flags], write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        _, err = child.communicate()
        assert (child.returncode, err) == (EXIT_IOERR, b"error: cannot write output: [Errno 32] Broken pipe\n")

    def test_help_into_a_pipe_whose_reader_has_gone_is_an_output_error(self):
        read, write = os.pipe()
        os.close(read)
        try:
            child = _cli(["--help"], write)
        finally:
            os.close(write)
        _, err = child.communicate()
        assert (child.returncode, err) == (EXIT_IOERR, b"error: cannot write output: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("flags", [[], ["--machine"]], ids=["human", "machine"])
    def test_a_reader_that_stops_early(self, tmp_path, flags):
        # ``check-all | head -c 10`` on an output beyond a pipe's capacity: an
        # unbuffered stdout's write is cut short, and the rest must not be lost unreported
        path = tmp_path / "maps.lp"
        path.write_text(_MAPS)
        child = _cli(["check-all", "--model", str(path), *flags], subprocess.PIPE, PYTHONUNBUFFERED="1")
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        assert (child.wait(), child.stderr.read()) == (EXIT_IOERR, b"error: cannot write output: [Errno 32] Broken pipe\n")
        child.stderr.close()

    @pytest.mark.parametrize("fd, argv, status, err", [
        (0, ["twist", "X", "2"], EXIT_INPUT, b"error: cannot read model: [Errno 9] Bad file descriptor\n"),
        (1, ["twist", "X", "2", "--model", str(EXAMPLE)], EXIT_IOERR,
         b"error: cannot write output: [Errno 9] Bad file descriptor\n"),
        # a closed stream with nothing to write is no error
        (1, ["twist", "Q", "2", "--model", str(EXAMPLE)], EXIT_UNKNOWN_NAME, b"1:7: error: unknown pair 'Q' [E021]\n"),
        (2, ["twist", "Q", "2", "--model", str(EXAMPLE)], EXIT_IOERR, b""),
        (2, ["check-all", "--model", str(MALFORMED)], EXIT_IOERR, b""),
        # argparse's texts go the same way
        (1, ["--help"], EXIT_IOERR, b"error: cannot write output: [Errno 9] Bad file descriptor\n"),
        (2, ["twist", "X"], EXIT_IOERR, b""),
    ], ids=["stdin", "stdout", "stdout-nothing-to-write", "stderr-unknown-name", "stderr-malformed",
            "stdout-help", "stderr-usage-error"])
    def test_a_closed_descriptor_is_never_an_answer(self, fd, argv, status, err):
        # as ``<&-``, ``>&-`` or ``2>&-`` in a shell: the stream is None in the child
        child = _cli(argv, subprocess.PIPE, preexec_fn=lambda: os.close(fd))
        out, got = child.communicate()
        assert (child.returncode, out, got) == (status, b"", err)

    @pytest.mark.parametrize("argv", [["twist", "Q", "2", "--model", str(EXAMPLE)], ["check-all", "--model", str(MALFORMED)]],
                             ids=["unknown-name", "malformed"])
    def test_a_stderr_whose_reader_has_gone_is_an_output_error(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            child = _cli(argv, subprocess.PIPE, stderr=write)
        finally:
            os.close(write)
        out, _ = child.communicate()
        assert (child.returncode, out) == (EXIT_IOERR, b"")

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_a_full_nonblocking_stdout_is_waited_on(self, tmp_path, unbuffered):
        path = tmp_path / "maps.lp"
        path.write_text(_MAPS)
        argv, delay = ["check-all", "--model", str(path), "--machine"], 1.0
        read, write = os.pipe()
        os.set_blocking(write, False)  # the child shares the open file, so its writes find the pipe full
        try:
            child = _cli(argv, write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        time.sleep(delay)
        with open(read, "rb") as reader:
            out = reader.read()
        err = child.stderr.read()
        child.stderr.close()
        _, wait_status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(wait_status)
        assert (child.returncode, err, out) == (EXIT_OK, b"", _main_out(argv)[1].encode())
        assert usage.ru_utime + usage.ru_stime < delay / 2  # waiting, not retrying until the reader comes

    @pytest.mark.parametrize("data, env", [
        ("pair P { dim 1; coords \u00e9; divisor {\u00e9: 1} }\nmap f : P -> P { \u00e9 <- \u00e9 }\n".encode(),
         {"PYTHONIOENCODING": "latin-1"}),
        (b"pair X { dim 1; coords t; divisor { t: \xff } }\n", {"LC_ALL": "C"}),
        (b"pair X { dim 1; coords t; divisor { t: \xff } }\n", {"PYTHONIOENCODING": "latin-1"}),
        (b"pair X { dim 1; coords t; divisor { t: 1 } }\rpair Y @\r", {"LC_ALL": "C"}),
    ], ids=["accent-latin-1", "not-utf8-c-locale", "not-utf8-latin-1", "cr-newlines"])
    def test_stdin_reads_as_a_model_file(self, tmp_path, data, env):
        path = tmp_path / "model.lp"
        path.write_bytes(data)
        piped = _cli(["check-all"], subprocess.PIPE, stdin=subprocess.PIPE, **env)
        named = _cli(["check-all", "--model", str(path)], subprocess.PIPE, stdin=subprocess.DEVNULL, **env)
        assert (*piped.communicate(data), piped.returncode) == (*named.communicate(), named.returncode)
        if b"\xff" in data:
            assert named.returncode == EXIT_INPUT

    def test_ascii_stdout_escapes_a_name(self, tmp_path):
        path = tmp_path / "accent.lp"
        path.write_text("pair P { dim 1; coords \u00e9; divisor {\u00e9: 1} }\nmap f : P -> P { \u00e9 <- \u00e9 }\n",
                        encoding="utf-8")
        child = _cli(["check-admissible", "f", "--model", str(path)], subprocess.PIPE, PYTHONIOENCODING="ascii")
        out, err = child.communicate()
        assert (child.returncode, err) == (EXIT_OK, b"")
        assert out == b"command: check-admissible f\nmap: map f : P -> P { \\xe9 <- \\xe9 }\nadmissible: true\n"


# the names of DEMO that each verb accepts
_FITS = {"check-admissible": "fg", "minimal-twist": "fg", "hom-log": "fg", "check-minimal": "fg",
         "classify": "BV", "blowup": "BV", "corr-check": "CD", "qdiv-normalize": "QR", "qdiv-eq": "QR",
         "cube": "XYZW", "twist": "XYZW", "check-all": ""}
_NUMBER = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["\u00b2", "-1", "7" * (MAX_INT_DIGITS + 1)]),
)
_ARG = st.one_of(st.sampled_from("XYfgCDQRZWBV"), st.sampled_from(["nope", "inf"]), _NUMBER, st.text(max_size=8))


@st.composite
def _command(draw):
    """Mostly a verb with arguments of the kinds it takes; else any words."""
    if draw(st.integers(0, 3)) == 1:
        return draw(st.lists(st.sampled_from(sorted(COMMANDS)) | _ARG, min_size=1, max_size=4))
    verb = draw(st.sampled_from(sorted(COMMANDS)))
    args = [draw(_NUMBER if p == "n" else st.sampled_from(_FITS[verb])) for p in COMMANDS[verb]]
    if args and draw(st.booleans()):  # one argument of any kind
        args[draw(st.integers(0, len(args) - 1))] = draw(_ARG)
    return [verb, *args]


def _false_answer(record: dict) -> bool:
    return (
        record.get("verdict") in (False, "invalid")
        or False in record.get("memberships", {}).values()
        or ("minimal_twist" in record and record["minimal_twist"] is None)
    )


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "demo.lp"
    path.write_text(DEMO)
    return str(path)


@settings(max_examples=150, deadline=None)
@given(command=_command(), machine=st.booleans())
def test_main_on_any_argv(demo_file, command, machine):
    """Any argv gives a status, never a traceback or an internal error; 1 comes
    only with a false answer, and a failed command prints nothing on stdout."""
    argv = [*command, "--model", demo_file] + (["--machine"] if machine else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse reports a usage error, or prints help
            status = exc.code
    assert status != EXIT_INTERNAL, err.getvalue()
    assert status in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_UNKNOWN_NAME, EXIT_DIMENSION, EXIT_INVALID_BLOWUP)
    if status not in (EXIT_OK, EXIT_FALSE):
        assert out.getvalue() == ""
    if machine and status == EXIT_FALSE:
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert any(_false_answer(record) for record in records)


_WORD = st.sampled_from(sorted(COMMANDS)) | st.sampled_from("XYfgCDQRZWBV") | st.text(max_size=6)
_ODD = st.sampled_from(["--model", "--machine", "--mach", "-h", "--", "-1", "-x", "-", ""])
_OPTION = st.one_of(
    st.sampled_from([("--machine",), ("--mach",)]),
    st.tuples(st.just("--model"), _WORD | _ODD),
    (_WORD | _ODD).map(lambda value: ("--model=" + value,)),
    st.tuples(_ODD),
)


@st.composite
def _argv(draw):
    """Mostly a verb and as many words as it takes, with option words spliced in
    anywhere after the verb; else any words."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(_WORD | _ODD, max_size=6))
    verb = draw(st.sampled_from(sorted(COMMANDS)))
    argv = draw(st.lists(_WORD, min_size=len(COMMANDS[verb]), max_size=len(COMMANDS[verb]) + draw(st.integers(0, 1))))
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(argv)))
        argv[index:index] = draw(_OPTION)
    return [verb, *argv]


_FULL_PARSER = _parser()  # the fallback's parser, with every verb


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
@example(argv=["twist", "X", "2", "--mach"])
@example(argv=["check-all", "--model", "a", "--model=b"])
@example(argv=["classify", "--model", "-x", "B"])
def test_the_hand_reader_agrees_with_argparse(argv):
    """Whatever argv the hand reader accepts, argparse over every verb reads
    the same way, and the reader takes only the spellings it documents, each
    at most once: abbreviations, repeats and values that look like options
    are argparse's to read or refuse."""
    read = _read_argv(argv)
    if read is None:
        return
    words = argv[1:]
    if "--model" in words:
        index = words.index("--model")
        words[index:index + 2] = ["--model"]  # without its value
    options = ["--model" if word.startswith("--model=") else word for word in words if word.startswith("-")]
    assert set(options) <= {"--model", "--machine"} and len(options) == len(set(options)), argv
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            ns = _FULL_PARSER.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the hand reader accepts: {err.getvalue()}")
    assert read == ([ns.command, *(getattr(ns, name) for name in COMMANDS[ns.command])], ns.model, ns.machine)


# statements beside DEMO's, with maps to and from the point chart and literals at the length bound
_EXTRA = [
    "pair P { dim 0; coords; divisor {} }",
    "map h : Z -> P { }",
    "map k : P -> X { t <- 1 }",
    "map b : X -> Y { s <- t^" + "9" * MAX_INT_DIGITS + " }",
    "corr E : X -> X { point w { nx 0; ny 2; ex 1; ey 1 } }",
    "qpair H = (" + "9" * MAX_INT_DIGITS + ", Y)",
    "blowup A on Z center { x }",
]
_STATEMENTS = DEMO.splitlines() + _EXTRA
_WORDS = ["pair", "map", "corr", "qpair", "blowup", "dim", "coords", "divisor", "monomial", "point",
          "nx", "ny", "ex", "ey", "on", "center", "{", "}", "(", ")", ";", ":", ",", "=", "->", "<-",
          "^", "*", "X", "Y", "Z", "P", "t", "s", "0", "1", "007", "9" * (MAX_INT_DIGITS + 1),
          "\u00b2", " ", "\n", "\r\n", "# note"]
_TEXT = st.lists(st.sampled_from(_STATEMENTS) | st.sampled_from(_WORDS) | st.text(max_size=4), max_size=16)
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe2\x82"])


@st.composite
def _model_bytes(draw):
    """Raw bytes, DSL fragments with invalid UTF-8 spliced in, DSL fragments alone,
    or ``DEMO`` with some of the other statements (which often parses)."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.binary(max_size=200))
    if kind == 3:
        return "\n".join([DEMO, *draw(st.lists(st.sampled_from(_EXTRA), unique=True))]).encode()
    pieces = [piece.encode() for piece in draw(_TEXT)]
    if kind == 1:
        pieces.insert(draw(st.integers(0, len(pieces))), draw(_BAD_UTF8))
    return b"\n".join(pieces) if draw(st.booleans()) else b"".join(pieces)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.lp"


_VERBS = sorted(set(COMMANDS) - {"check-all"})
_NAMES = st.sampled_from("XYZPWfghkbCDEQRHBVA")


@settings(max_examples=150, deadline=None)
@given(data=_model_bytes(), verb=st.sampled_from(_VERBS), first=_NAMES, second=_NAMES,
       n=st.sampled_from(["0", "1", "3", "9" * MAX_INT_DIGITS]), machine=st.booleans())
def test_main_on_any_model_bytes(fuzz_file, data, verb, first, second, n, machine):
    """Any model file gives a documented status, never an internal error, and a
    failed command prints nothing on stdout."""
    fuzz_file.write_bytes(data)
    args = [n if p == "n" else name for p, name in zip(COMMANDS[verb], (first, second))]
    for argv in (["check-all", "--machine"], [verb, *args] + (["--machine"] if machine else [])):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main([*argv, "--model", str(fuzz_file)])
        assert status != EXIT_INTERNAL, err.getvalue()
        assert status in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_UNKNOWN_NAME, EXIT_DIMENSION, EXIT_INVALID_BLOWUP)
        if status not in (EXIT_OK, EXIT_FALSE):
            assert out.getvalue() == ""


def _main_out(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def _per_record(m: Model, command: list[str]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in run_command(m, command).records)


_ONE_NAME = [verb for verb, names in COMMANDS.items() if names == ("name",)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_machine_output_is_one_json_line_per_record(fuzz_file, seed):
    """main's one encoding of all records, cut into lines, prints what
    encoding each record by itself prints: check-all and every one-name verb
    on every declaration of a printed random model."""
    m = random_model(random.Random(seed))
    fuzz_file.write_text(print_model(m), encoding="utf-8")
    commands = [["check-all"]] + [[verb, d.name] for d in m.decls for verb in _ONE_NAME]
    for command in commands:
        status, out = _main_out([*command, "--model", str(fuzz_file), "--machine"])
        assert out == _per_record(m, command), command
        assert status == run_command(m, command).status


# DEMO, whose blowup B has two charts, with a map whose least twist is infeasible
_SHAPES = DEMO + "pair O { dim 1; coords o; divisor {} }\nmap h : O -> X { t <- o }\n"


@pytest.mark.parametrize("text, command", [
    # names the whole-statement matcher leaves to the token path
    ("pair \u00e9 { dim 1; coords \u00fc; divisor {\u00fc: 1} }\nmap f : \u00e9 -> \u00e9 { \u00fc <- \u00fc^2 }\n",
     ["check-all"]),
    ("pair \u00e9 { dim 1; coords \u00fc; divisor {\u00fc: 1} }\n", ["twist", "\u00e9", "3"]),
    ("pair X { dim 1; coords t; divisor {t: 1} }\npair Y { dim 2; coords u v; divisor {u: 2} }\n", ["check-all"]),
    (_SHAPES, ["check-all"]),
    (_SHAPES, ["blowup", "B"]),
    (_SHAPES, ["corr-check", "C"]),
    (_SHAPES, ["minimal-twist", "h"]),
    (_SHAPES, ["twist", "Z", "2"]),
    (_SHAPES, ["cube", "X", "1"]),
    (_SHAPES, ["qdiv-eq", "Q", "R"]),
], ids=["non-ascii-check-all", "non-ascii-twist", "pairs-only", "check-all", "charts", "memberships",
        "minimal-twist-null", "result", "cube", "qdiv-eq"])
def test_machine_output_cases(tmp_path, text, command):
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    m = parse(text)
    assert isinstance(m, Model)
    status, out = _main_out([*command, "--model", str(path), "--machine"])
    assert out == _per_record(m, command)
    assert status == run_command(m, command).status


def test_the_shapes_cover_every_record_field():
    records = [r for c in (["check-all"], ["twist", "Z", "2"]) for r in run_command(parse(_SHAPES), c).records]
    assert {"charts", "memberships", "result", "verdict", "level", "divisor"} <= {k for r in records for k in r}
    assert any(r.get("minimal_twist", 0) is None for r in records)
    assert any(len(r.get("charts", ())) > 1 for r in records)


def _raise_in_run_command(model, command):
    raise RuntimeError("broken")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, status, fault", [
    (["check-all"], EXIT_FALSE, False),
    (["--help"], EXIT_OK, False),
    (["twist", "nope", "2"], EXIT_UNKNOWN_NAME, False),
    (["check-all"], EXIT_INTERNAL, True),
], ids=["verb", "help", "unknown-name", "internal-error"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled, argv, status, fault):
    path = tmp_path / "demo.lp"
    path.write_text(DEMO)
    if fault:
        monkeypatch.setattr("modpairs.cli.run_command", _raise_in_run_command)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got, _ = _main_out([*argv, "--model", str(path)])
        except SystemExit as exc:  # argparse prints help
            got = exc.code
        assert (got, gc.isenabled()) == (status, enabled)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("text", [DEMO, DEMO + "pair \u00e9 { dim x; coords; }\nmap f : X -> Q { }\n"],
                         ids=["demo", "faulted"])
def test_a_run_leaves_no_modpairs_cycles(tmp_path, text):
    """Everything main builds is freed by reference counting alone, which is
    why main may pause the cyclic collector: a collection afterwards finds
    no modpairs object in a cycle."""
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    assert isinstance(parse(text), list) == (text != DEMO)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["check-all"], ["check-all", "--machine"], ["blowup", "B"], ["twist", "Z", "99"]):
            _main_out([*argv, "--model", str(path)])
        gc.collect()
        cyclic = {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("modpairs")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not cyclic


class _Refusing(io.StringIO):
    """A text stdout whose every write fails, with or without a descriptor."""

    def __init__(self, fd=None):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


def _open_fds() -> set[str]:
    return set(os.listdir("/dev/fd"))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="lists open descriptors from /dev/fd")
@pytest.mark.parametrize("with_fd", [False, True], ids=["no-descriptor", "descriptor"])
def test_an_output_error_closes_what_it_opens(tmp_path, with_fd):
    path = tmp_path / "demo.lp"
    path.write_text(DEMO)
    read, write = os.pipe()
    try:
        stdout, err = _Refusing(write if with_fd else None), io.StringIO()
        before, pipe = _open_fds(), os.fstat(write)
        with redirect_stdout(stdout), redirect_stderr(err):
            status = main(["check-all", "--model", str(path)])
        after, still = _open_fds(), os.fstat(write)
    finally:
        os.close(read)
        os.close(write)
    assert (status, err.getvalue()) == (EXIT_IOERR, "error: cannot write output: [Errno 28] No space left on device\n")
    assert after == before
    assert (still.st_dev, still.st_ino) == (pipe.st_dev, pipe.st_ino)  # the descriptor still refers to the pipe
