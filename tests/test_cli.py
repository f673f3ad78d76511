import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

from quadgenus.cli import main
from quadgenus.forms import principal_form

from oracles import run_child

# Every subcommand in text and JSON format plus some error cases, each with
# its exact exit code, stdout and stderr.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_text(capsys):
    code, out, err = run_cli(capsys, "compose", "-d", "-23", "(2,1,3)", "(2,1,3)")
    assert code == 0
    assert out == "(2,-1,3)\n"
    assert err == ""


def test_compose_json(capsys):
    code, out, err = run_cli(
        capsys, "--format", "json", "compose", "-d", "-23", "(2,1,3)", "(2,1,3)"
    )
    assert code == 0
    env = json.loads(out)
    assert env == {
        "status": "ok",
        "command": "compose",
        "result": {"form": {"a": "2", "b": "-1", "c": "3", "d": "-23"}},
    }
    # field order is pinned
    assert out.startswith('{"status":"ok","command":"compose","result":')


def test_compose_matrix_agrees(capsys):
    code, out, _ = run_cli(capsys, "compose-matrix", "-d", "-23", "(2,1,3)", "(2,-1,3)")
    assert code == 0
    assert out == "(1,1,6)\n"


def test_classgroup_json(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "-d", "-4", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["h"] == "1"
    assert env["result"]["structure"] == []
    assert env["result"]["genus_order"] == "1"


def test_classgroup_table_flag(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "-d", "-23", "--table", "--format", "json")
    env = json.loads(out)
    assert env["result"]["table"] == [
        ["0", "1", "2"],
        ["1", "2", "0"],
        ["2", "0", "1"],
    ]


def test_reduce_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "reduce", "-d", "-23", "(4,5,3)")
    assert code == 0
    assert out.splitlines()[0] == "(2,-1,3)"
    code, out, _ = run_cli(capsys, "enumerate", "-d", "-23")
    assert out.splitlines() == ["(1,1,6)", "(2,-1,3)", "(2,1,3)"]


def test_ideal_commands(capsys):
    code, out, _ = run_cli(capsys, "form2ideal", "-d", "-23", "(2,1,3)")
    assert out == "[2, (-1+sqrt(-23))/2]\n"
    code, out, _ = run_cli(capsys, "ideal2form", "-d", "-23", "(4,5)")
    assert out == "(4,5,3)\n"
    code, out, _ = run_cli(capsys, "ideal-mul", "-d", "-23", "(2,1)", "(2,1)")
    assert out == "[4, (-5+sqrt(-23))/2]\n"
    code, out, _ = run_cli(capsys, "--format", "json", "ideal-mul", "-d", "-23", "(2,1)", "(2,-1)")
    env = json.loads(out)
    assert env["result"] == {"content": "2", "ideal": {"a": "1", "b": "1", "d": "-23"}}


def test_normform_and_transforms(capsys):
    code, out, _ = run_cli(capsys, "normform", "-d", "-23", "(4,0),(1,-1)")
    assert out == "+4*z1^2 +2*z1*z2 +6*z2^2\n"
    # whitespace around parentheses, commas and numbers is allowed
    code, spaced, _ = run_cli(capsys, "normform", "-d", "-23", " ( 4 ,0) , (1, -1 ) ")
    assert code == 0
    assert spaced == out
    code, out, _ = run_cli(
        capsys, "solve-transform", "-d", "-23", "(2,0),(-23,-1)", "(4,0),(1,-1)"
    )
    assert out == "[[2, 12], [0, 1]]\n"
    code, out, _ = run_cli(
        capsys, "form-action", "-d", "-23", "[[4,14],[0,1]]", "(1,-23,138)"
    )
    assert out == "+16*z1^2 +20*z1*z2 +12*z2^2\n"


def test_genus(capsys):
    code, out, _ = run_cli(capsys, "genus", "-d", "-84", "--format", "json")
    env = json.loads(out)
    assert env["result"]["genus_order"] == "4"
    assert len(env["result"]["two_torsion"]) == 4


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--range", "-4..-100", "--samples", "6", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["mismatches"] == []
    assert int(env["result"]["discriminants"]) == 49


def test_verify_reports_mismatches(capsys, monkeypatch):
    # a matrix route that always answers the principal form disagrees on
    # every pair whose product is not principal
    monkeypatch.setattr("quadgenus.cli.compose_via_matrices", lambda f, g: principal_form(f.disc))
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--range", "-23..-23")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pairs"] == "6"

    def form(a, b, c):
        return {"a": str(a), "b": str(b), "c": str(c), "d": "-23"}

    assert result["mismatches"] == [
        {"d": "-23", "f": form(1, 1, 6), "g": form(2, -1, 3)},
        {"d": "-23", "f": form(1, 1, 6), "g": form(2, 1, 3)},
        {"d": "-23", "f": form(2, -1, 3), "g": form(2, -1, 3)},
        {"d": "-23", "f": form(2, 1, 3), "g": form(2, 1, 3)},
    ]
    code, out, _ = run_cli(capsys, "verify", "--range", "-23..-23")
    assert out == "checked 1 discriminants, 6 pairs, 4 mismatches\n"


def test_verify_memory_does_not_grow_with_the_pair_count(capsys):
    # h = 248 gives 30,876 pairs; one sampled pair must not build them all
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--range", "-4000003..-4000003", "--samples", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == "checked 1 discriminants, 1 pairs, 0 mismatches\n"
    assert peak < 1_000_000


def test_golden_output(capsys):
    mismatched = []
    for case in GOLDEN:
        got = run_cli(capsys, *case["argv"])
        if got != (case["code"], case["stdout"], case["stderr"]):
            mismatched.append((case["argv"], got))
    assert mismatched == []


def test_determinism(capsys):
    args = ["--format", "json", "classgroup", "-d", "-479"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_domain_errors_exit_1(capsys):
    code, out, err = run_cli(capsys, "compose", "-d", "-5", "(1,0,1)", "(1,0,1)")
    assert code == 1
    assert out == ""
    env = json.loads(err)
    assert env["status"] == "error"
    assert "0 or 1 mod 4" in env["error"]

    code, out, err = run_cli(capsys, "enumerate", "-d", "4")
    assert code == 1
    assert "negative" in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "compose", "-d", "-4", "(1,0,2)", "(1,0,1)")
    assert code == 1
    assert "expected -4" in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "reduce", "-d", "-60", "(2,2,8)")
    assert code == 1
    assert "primitive" in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "form-action", "-d", "-23", "[[1,0],[0,1]]", "(1,1,7)")
    assert code == 1
    assert out == ""
    env = json.loads(err)
    assert env["command"] == "form-action"
    assert env["error"] == "form (1,1,7) has discriminant -27, expected -23"

    # a binary triple is read as a form whatever the matrix's size, so a
    # square matrix of the wrong size is a dimension mismatch, as for a tuple
    for matrix, form, size in (
        ("[[1]]", "(2,1,3)", 1),
        ("[[1,0,0],[0,1,0],[0,0,1]]", "(2,1,3)", 3),
        ("[[1]]", "(4,0),(1,-1)", 1),
    ):
        code, out, err = run_cli(capsys, "form-action", "-d", "-23", matrix, form)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == f"dimension mismatch: {size}x{size} matrix on 2 variables"


def test_usage_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "compose", "-d", "-23", "(2,1,3)")
    assert code == 2
    assert out == ""
    assert json.loads(err)["status"] == "error"

    code, out, err = run_cli(capsys, "nope")
    assert code == 2

    code, out, err = run_cli(capsys)
    assert code == 2

    code, out, err = run_cli(capsys, "reduce", "-d", "-23", "2 1 3")
    assert code == 2
    assert "expected" in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "compose", "-d", "abc", "(2,1,3)", "(2,1,3)")
    assert code == 2
    assert out == ""
    assert "-d" in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "verify", "--range", "-4..-20", "--samples", "-1")
    assert code == 2
    assert out == ""
    assert "--samples" in json.loads(err)["error"]

    # -0 parses as a range endpoint but is no discriminant
    for text in ("-0..-8", "-8..-0", "-00..-0"):
        code, out, err = run_cli(capsys, "verify", "--range", text)
        assert code == 2
        assert out == ""
        assert text in json.loads(err)["error"]

    code, out, err = run_cli(capsys, "verify", "--range", "-4..-20", "--samples", "0")
    assert code == 0
    assert out == "checked 9 discriminants, 0 pairs, 0 mismatches\n"

    code, out, err = run_cli(capsys, "form-action", "-d", "-23", "[[true,0],[0,1]]", "(1,1,6)")
    assert code == 2
    assert out == ""
    assert "integers" in json.loads(err)["error"]

    # a matrix that is not a list of rows
    for matrix in ("5", "[1,2]", "null", "[[1,2],3]"):
        code, out, err = run_cli(capsys, "form-action", "-d", "-23", matrix, "(1,1,6)")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "transform matrix must be square"

    # a matrix nested deeper than the JSON decoder recurses
    code, out, err = run_cli(capsys, "form-action", "-d", "-23", "[" * 20000 + "]" * 20000, "(1,1,6)")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "cannot parse matrix: nested too deeply"

    for ideal in ("abc", "(2,1,3)", "(2,1),(2,1)"):
        code, out, err = run_cli(capsys, "ideal2form", "-d", "-23", ideal)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"cannot parse ideal {ideal!r}, expected \"(a,b)\""

    # stray, doubled, leading and missing commas, and a space inside a number
    for bad, argv in (
        ("(1,1),,,(1,-1)(2,0),", ("normform", "(1,1),,,(1,-1)(2,0),")),
        ("(2,0)(-23,-1)", ("solve-transform", "(2,0)(-23,-1)", "(4,0),(1,-1)")),
        (",(4,0),,(1,-1)", ("solve-transform", "(2,0),(-23,-1)", ",(4,0),,(1,-1)")),
        ("(1 1,1)", ("normform", "(1 1,1)")),
    ):
        code, out, err = run_cli(capsys, argv[0], "-d", "-23", *argv[1:])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"cannot parse {bad!r}, expected \"(x,y),(x,y),...\""


COMPOSE = ["compose", "-d", "-23", "(2,1,3)", "(2,1,3)"]
VERIFY = ["verify", "--range", "-4..-40", "--samples", "3"]
COMMANDS = (
    "reduce", "enumerate", "compose", "compose-matrix", "classgroup", "ideal-mul", "form2ideal",
    "ideal2form", "normform", "solve-transform", "form-action", "genus", "verify",
)


@pytest.mark.parametrize(
    "spelling, canonical",
    [
        # --format before or after the command, options before or after positionals
        (["compose", "--format", "json", *COMPOSE[1:]], ["--format", "json", *COMPOSE]),
        ([*COMPOSE, "--format", "json"], ["--format", "json", *COMPOSE]),
        (["compose", "(2,1,3)", "(2,1,3)", "-d", "-23"], COMPOSE),
        (["compose", "(2,1,3)", "-d", "-23", "(2,1,3)"], COMPOSE),
        (["classgroup", "--table", "-d", "-23"], ["classgroup", "-d", "-23", "--table"]),
        (["verify", "--samples", "3", "--range", "-4..-40"], VERIFY),
        # --name=value, and -d=value or -dvalue
        (["--format=json", *COMPOSE], ["--format", "json", *COMPOSE]),
        (["compose", "-d=-23", "(2,1,3)", "(2,1,3)"], COMPOSE),
        (["compose", "-d-23", "(2,1,3)", "(2,1,3)"], COMPOSE),
        (["verify", "--range=-4..-40", "--samples=3"], VERIFY),
        # a unique prefix of a long option
        (["--form", "json", *COMPOSE], ["--format", "json", *COMPOSE]),
        ([*COMPOSE, "--f=json"], ["--format", "json", *COMPOSE]),
        (["classgroup", "-d", "-23", "--tab"], ["classgroup", "-d", "-23", "--table"]),
        (["verify", "--ra=-4..-40", "--s", "3"], VERIFY),
        # -- ends the options
        (["compose", "-d", "-23", "--", "(2,1,3)", "(2,1,3)"], COMPOSE),
        (["compose", "-d", "-23", "(2,1,3)", "--", "(2,1,3)"], COMPOSE),
        # a repeated option keeps its last value
        (["compose", "-d", "-5", *COMPOSE[1:]], COMPOSE),
        (["--format", "text", *COMPOSE, "--format", "json"], ["--format", "json", *COMPOSE]),
        (["verify", "--range", "-4..-8", "--samples", "9", *VERIFY[1:]], VERIFY),
        (["classgroup", "-d", "-23", "--table", "--table"], ["classgroup", "-d", "-23", "--table"]),
        # values that start with "-", and int() spellings of -d and --samples
        (["compose", "-d", " -23 ", "(2,1,3)", "(2,1,3)"], COMPOSE),
        (["verify", "--range", "-4..-40", "--samples", "+3"], VERIFY),
        (["verify", "--range", "-4..-40", "--samples", " 3 "], VERIFY),
    ],
)
def test_argv_grammar(capsys, spelling, canonical):
    expected = run_cli(capsys, *canonical)
    assert expected[0] == 0 and expected[1]
    assert run_cli(capsys, *spelling) == expected


CHOICES = ", ".join(repr(name) for name in COMMANDS)


@pytest.mark.parametrize(
    "argv, error",
    [
        (COMPOSE[:-1], "the following arguments are required: g"),
        (["compose", "(2,1,3)", "(2,1,3)"], "the following arguments are required: -d"),
        (["compose"], "the following arguments are required: -d, f, g"),
        (["verify", "--samples", "3"], "the following arguments are required: --range"),
        (["compose", "-d", "abc", "(2,1,3)", "(2,1,3)"], "argument -d: invalid int value: 'abc'"),
        (["verify", "--range", "-4..-40", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
        (["compose", "-d"], "argument -d: expected one argument"),
        (["compose", "(2,1,3)", "(2,1,3)", "-d"], "argument -d: expected one argument"),
        (["verify", "--range"], "argument --range: expected one argument"),
        (["verify", "-d", "-23", "--range", "-4..-40"], "unrecognized arguments: -d -23"),
        ([*COMPOSE, "--table"], "unrecognized arguments: --table"),
        ([*COMPOSE, "(2,1,3)"], "unrecognized arguments: (2,1,3)"),
        (["nope"], f"argument command: invalid choice: 'nope' (choose from {CHOICES})"),
        (["--format", "xml", *COMPOSE], "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
        ([], "a subcommand is required (try --help)"),
        (["--format", "json"], "a subcommand is required (try --help)"),
        (["classgroup", "-d", "-23", "--table=x"], "argument --table: ignored explicit argument 'x'"),
    ],
)
def test_argv_grammar_errors(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"status": "error", "command": "", "error": error}


def test_env_var_format(capsys, monkeypatch):
    monkeypatch.setenv("QG_FORMAT", "json")
    code, out, _ = run_cli(capsys, "reduce", "-d", "-4", "(1,-4,5)")
    env = json.loads(out)
    assert env["result"]["form"] == {"a": "1", "b": "0", "c": "1", "d": "-4"}
    # explicit flag beats the environment
    code, out, _ = run_cli(capsys, "--format", "text", "reduce", "-d", "-4", "(1,-4,5)")
    assert out.splitlines()[0] == "(1,0,1)"

    monkeypatch.setenv("QG_FORMAT", "xml")
    code, out, err = run_cli(capsys, "reduce", "-d", "-4", "(1,-4,5)")
    assert code == 2
    assert out == ""
    env = json.loads(err)
    assert env["command"] == "reduce"
    assert env["error"] == "QG_FORMAT must be json or text, not 'xml'"


def test_generator_and_variable_limits(capsys):
    # 64 variables is the edge; one more is refused before any work starts
    code, out, _ = run_cli(capsys, "normform", "-d", "-23", ",".join(["(2,0)"] * 64))
    assert code == 0
    assert out.startswith("+1*z1^2 +2*z1*z2 ") and out.endswith(" +1*z64^2\n")
    code, out, err = run_cli(capsys, "normform", "-d", "-23", ",".join(["(2,0)"] * 65))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "at most 64 generators are supported"
    matrix = json.dumps([[int(i == j) for j in range(65)] for i in range(65)])
    code, out, err = run_cli(capsys, "form-action", "-d", "-23", matrix, "(1,1,6)")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "at most 64 variables are supported"


def test_arbitrary_precision_survives_json(capsys):
    d = -(10**30 + 3)  # = 1 mod 4
    c = (1 - d) // 4
    code, out, _ = run_cli(
        capsys, "--format", "json", "reduce", "-d", str(d), f"(1,1,{c})"
    )
    assert code == 0
    env = json.loads(out)
    assert env["result"]["form"]["c"] == str(c)
    assert int(env["result"]["form"]["d"]) == d


def test_integers_of_any_length(capsys):
    # past Python's default 4300-digit limit on int/str conversion; the
    # decimal strings are written out so this test converts no int itself
    big = "1" + "0" * 2999
    code, out, err = run_cli(capsys, "--format", "json", "normform", "-d", "-23", f"({big},0)")
    assert (code, err) == (0, "")
    coeffs = json.loads(out)["result"]["form"]["coeffs"]
    assert coeffs == [["0", "0", "25" + "0" * 5996]]  # N(10^2999 / 2)
    d = "-1" + "0" * 4997 + "003"  # -(10^5000 + 3), 1 mod 4
    c = "25" + "0" * 4997 + "1"  # (1 - d) / 4
    code, out, err = run_cli(capsys, "reduce", "-d", d, f"(1,1,{c})")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"(1,1,{c})"


def test_digit_limit_is_restored(capsys):
    # the 4300-digit guard on int/str conversion is lifted only while a
    # command runs, whether it succeeds or fails
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, "compose", "-d", "-23", "(2,1,3)", "(2,1,3)")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run_cli(capsys, "reduce", "-d", "-23", "(1,1,7)")[0] == 1
        assert sys.get_int_max_str_digits() == 5000
        assert run_cli(capsys, "reduce", "-d", "-23", "(1,1)")[0] == 2
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_runs_without_a_digit_limit_to_lift(capsys, monkeypatch):
    # CPython 3.10.0-3.10.6 has no sys.set_int_max_str_digits
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli(capsys, "compose", "-d", "-23", "(2,1,3)", "(2,1,3)") == (0, "(2,-1,3)\n", "")


def test_console_entry_point():
    proc = run_child("-m", "quadgenus", "compose", "-d", "-23", "(2,1,3)", "(2,1,3)")
    assert proc.returncode == 0
    assert proc.stdout == "(2,-1,3)\n"

    bad = run_child("-m", "quadgenus", "compose", "-d", "7", "(1,0,1)", "(1,0,1)")
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert json.loads(bad.stderr)["status"] == "error"


def run_closed(stream, argv):
    """`python -m quadgenus *argv` with stream ("stdout" or "stderr") a pipe
    whose reader has gone; the other stream is captured."""
    r, w = os.pipe()
    os.close(r)
    try:
        return run_child("-m", "quadgenus", *argv, text=False, timeout=60, **{stream: w})
    finally:
        os.close(w)


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_closed_stdout_ends_quietly(fmt):
    # a reader that leaves before the output is written (`| head -1`) is no
    # domain error: exit 0, and no traceback on stderr
    proc = run_closed("stdout", [*fmt, "compose", "-d", "-23", "(2,1,3)", "(2,1,3)"])
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv, code",
    [(["compose", "-d", "-23", "(2,1,3)"], 2), (["compose", "-d", "-5", "(1,0,1)", "(1,0,1)"], 1)],
    ids=["usage", "domain"],
)
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # the error envelope cannot be written, but the exit code still tells
    # a usage error from a domain error
    proc = run_closed("stderr", argv)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["compose", "--help"]])
def test_help(argv):
    proc = run_child("-m", "quadgenus", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    words = set(proc.stdout.split())
    if argv[0] == "compose":
        assert {"-d", "f", "g"} <= words
    else:
        assert set(COMMANDS) <= words


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--range", "-4..-300", "--samples", "4"],
        ["classgroup", "-d", "-5460", "--format", "json"],
    ],
    ids=["verify", "classgroup-json"],
)
def test_optimized_mode_changes_nothing(argv):
    # invariants are explicit checks, not asserts, so -O keeps every output
    plain = run_child("-m", "quadgenus", *argv)
    optimized = run_child("-O", "-m", "quadgenus", *argv)
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode,
        plain.stdout,
        plain.stderr,
    )


def test_internal_error_exit_3(capsys, monkeypatch):
    # a plain ValueError is a fault too: only a DomainError means exit 1
    for fault in (AssertionError("composite B invariant broken"), ValueError("boom")):

        def broken(*args):
            raise fault

        monkeypatch.setattr("quadgenus.forms.composition_b", broken)
        code, out, err = run_cli(capsys, "compose", "-d", "-23", "(2,1,3)", "(2,1,3)")
        assert code == 3
        assert out == ""
        assert err == (
            '{"status":"error","command":"compose",'
            f'"error":"internal error in quadgenus.forms: {fault}"}}\n'
        )
