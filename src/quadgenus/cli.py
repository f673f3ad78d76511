"""Command-line surface: one subcommand per library operation.

Every run prints a single envelope. JSON output serializes all numbers as
decimal strings so arbitrary precision survives any consumer; identical
inputs give byte-identical output. Errors go to stderr as an envelope,
exit code 1 for domain errors, 2 for usage errors and 3 for internal
errors (any other fault inside the library, such as a broken invariant),
whose message names the library module that raised it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys

from .arith import Discriminant, DomainError, QuadInt
from .classgroup import cl_mod_squares, class_group, two_torsion
from .forms import BinaryForm, compose_crt, enumerate_reduced, reduce_form
from .ideals import OrderIdeal, compose_via_matrices, form_to_ideal, ideal_mul, ideal_to_form
from .lattice import GenTuple, check_matrix, solve_transform
from .normforms import MultiQuadraticForm, form_action, norm_form

MAX_VARS = 64

# argument grammars, each matched in full against the raw text; whitespace
# is allowed around parentheses, commas and numbers, not inside a number
_INT = r"\s*-?\d+\s*"
_PAIR = rf"\({_INT},{_INT}\)"
_FORM_RE = re.compile(rf"\s*\({_INT},{_INT},{_INT}\)\s*")
_IDEAL_RE = re.compile(rf"\s*{_PAIR}\s*")
_TUPLE_RE = re.compile(rf"\s*{_PAIR}(\s*,\s*{_PAIR})*\s*")
_RANGE_RE = re.compile(r"\s*-\d+\s*\.\.\s*-\d+\s*")
_NUMBER_RE = re.compile(r"-?\d+")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ints(pattern: re.Pattern, text: str, error: str | None = None) -> list[int] | None:
    """The integers of text, in order, if pattern matches all of it; else
    None, or, given error, the UsageError "cannot parse " + error.format(text)."""
    if pattern.fullmatch(text):
        return [int(n) for n in _NUMBER_RE.findall(text)]
    if error is not None:
        raise UsageError("cannot parse " + error.format(text))
    return None


def _parse_form(text: str, disc: Discriminant) -> BinaryForm:
    return BinaryForm(*_ints(_FORM_RE, text, 'form {!r}, expected "(a,b,c)"'), disc)


def _parse_ideal(text: str, disc: Discriminant) -> OrderIdeal:
    return OrderIdeal(*_ints(_IDEAL_RE, text, 'ideal {!r}, expected "(a,b)"'), disc)


def _parse_tuple(text: str, disc: Discriminant) -> GenTuple:
    pq = _ints(_TUPLE_RE, text, '{!r}, expected "(x,y),(x,y),..."')
    if len(pq) > 2 * MAX_VARS:
        raise UsageError(f"at most {MAX_VARS} generators are supported")
    return GenTuple([QuadInt(p, q, disc) for p, q in zip(pq[::2], pq[1::2])], disc)


def _parse_matrix(text: str):
    try:
        rows = check_matrix(json.loads(text))
    except json.JSONDecodeError as exc:
        raise UsageError(f"cannot parse matrix {text!r}: {exc}") from None
    except RecursionError:
        raise UsageError("cannot parse matrix: nested too deeply") from None
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    if len(rows) > MAX_VARS:
        raise UsageError(f"at most {MAX_VARS} variables are supported")
    return rows


def _stringify(value):
    """JSON-ready copy of a result: integers as decimal strings, forms,
    ideals and norm forms as objects of their fields."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, BinaryForm):
        value = {"a": value.a, "b": value.b, "c": value.c, "d": value.disc.d}
    elif isinstance(value, OrderIdeal):
        value = {"a": value.a, "b": value.b, "d": value.disc.d}
    elif isinstance(value, MultiQuadraticForm):
        coeffs = [(i, j, c) for (i, j), c in value.coeffs.items()]
        value = {"m": value.m, "d": value.disc.d, "coeffs": coeffs}
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _text(value) -> str:
    """One result value as text: a list of forms space-separated, a number
    or an integer vector or matrix in JSON notation."""
    if isinstance(value, list) and value and isinstance(value[0], BinaryForm):
        return " ".join(str(f) for f in value)
    return json.dumps(value)


# Subcommand handlers: each takes the parsed arguments and the
# discriminant of -d (None for verify) and returns (result, text_lines)


def _cmd_reduce(args, disc):
    r, w = reduce_form(_parse_form(args.form, disc))
    return {"form": r, "witness": w}, [str(r), "witness: " + _text(w)]


def _cmd_enumerate(args, disc):
    forms = enumerate_reduced(disc)
    return {"d": disc.d, "h": len(forms), "forms": forms}, [str(f) for f in forms]


def _cmd_compose(args, disc):
    r = args.route(_parse_form(args.f, disc), _parse_form(args.g, disc))
    return {"form": r}, [str(r)]


def _cmd_classgroup(args, disc):
    g = class_group(disc)
    genus_order, reps = cl_mod_squares(g)
    values = {
        "d": disc.d,
        "h": g.h,
        "structure": g.structure,
        "elements": g.elements,
        "two_torsion": two_torsion(g),
        "genus_order": genus_order,
        "coset_reps": reps,
    }
    result = {k: values[k] for k in args.fields}
    lines = [f"{k}: {_text(v)}" for k, v in result.items()]
    if args.table:
        result["table"] = g.table
        lines.append("table:")
        lines += ["  " + " ".join(str(k) for k in row) for row in g.table]
    return result, lines


def _cmd_ideal_mul(args, disc):
    content, prod = ideal_mul(_parse_ideal(args.i1, disc), _parse_ideal(args.i2, disc))
    text = str(prod) if content == 1 else f"{content} * {prod}"
    return {"content": content, "ideal": prod}, [text]


def _cmd_form2ideal(args, disc):
    i = form_to_ideal(_parse_form(args.form, disc))
    return {"ideal": i}, [str(i)]


def _cmd_ideal2form(args, disc):
    f = ideal_to_form(_parse_ideal(args.ideal, disc))
    return {"form": f}, [str(f)]


def _cmd_normform(args, disc):
    f = norm_form(_parse_tuple(args.tuple, disc))
    return {"form": f}, [str(f)]


def _cmd_solve_transform(args, disc):
    h = solve_transform(_parse_tuple(args.x, disc), _parse_tuple(args.y, disc))
    return {"matrix": h}, [_text(h)]


def _cmd_form_action(args, disc):
    h = _parse_matrix(args.matrix)
    # a binary triple and a generator tuple never match each other's shape
    if abc := _ints(_FORM_RE, args.form):
        f = MultiQuadraticForm.from_binary_triple(*abc, disc)
    else:
        f = norm_form(_parse_tuple(args.form, disc))
    r = form_action(h, f)
    return {"form": r}, [str(r)]


def _parse_range(text: str) -> tuple[int, int]:
    a, b = _ints(_RANGE_RE, text, 'range {!r}, expected "-lo..-hi"')
    if max(a, b) >= 0:
        raise UsageError(f"range {text!r} must have negative endpoints")
    return max(a, b), min(a, b)


def _cmd_verify(args, _disc):
    lo, hi = _parse_range(args.range)
    samples = args.samples
    if samples < 0:
        raise UsageError(f"--samples must be >= 0, got {samples}")
    rng = random.Random(0)
    discs = pairs = 0
    mismatches = []
    for d in range(lo, hi - 1, -1):
        if d % 4 not in (0, 1):
            continue
        disc = Discriminant(d)
        forms = enumerate_reduced(disc)
        h = len(forms)
        discs += 1
        # index k of the pairs (i, j), i <= j, in row-major order; sampling
        # the indices draws the same pairs as sampling the list of pairs
        n = h * (h + 1) // 2
        for k in range(n) if n <= samples else rng.sample(range(n), samples):
            # counted from the end, the rows have lengths 1, 2, 3, ..., so
            # pair k lies in row r from the bottom, the row of i = h - 1 - r
            back = n - 1 - k
            r = (math.isqrt(8 * back + 1) - 1) // 2
            f, g = forms[h - 1 - r], forms[h - 1 - back + r * (r + 1) // 2]
            crt = compose_crt(f, g)
            mat = compose_via_matrices(f, g)
            _, prod = ideal_mul(form_to_ideal(f), form_to_ideal(g))
            idl = reduce_form(ideal_to_form(prod))[0]
            pairs += 1
            if not (crt == mat == idl):
                mismatches.append({"d": d, "f": f, "g": g})
    result = {
        "range": [lo, hi],
        "discriminants": discs,
        "pairs": pairs,
        "mismatches": mismatches,
    }
    lines = [f"checked {discs} discriminants, {pairs} pairs, {len(mismatches)} mismatches"]
    return result, lines


def build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("json", "text"),
        default=argparse.SUPPRESS,
        help="output format (default: text, or the QG_FORMAT environment variable)",
    )
    parser = _Parser(prog="quadgenus", description=__doc__, parents=[shared])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, fn, **arguments):
        p = sub.add_parser(name, parents=[shared])
        p.add_argument("-d", type=int, required=True, help="discriminant (negative, 0 or 1 mod 4)")
        for arg, helptext in arguments.items():
            p.add_argument(arg, help=helptext)
        p.set_defaults(fn=fn)
        return p

    two_forms = {"f": 'first form "(a,b,c)"', "g": 'second form "(a,b,c)"'}
    add("reduce", _cmd_reduce, form='form "(a,b,c)"')
    add("enumerate", _cmd_enumerate)
    add("compose", _cmd_compose, **two_forms).set_defaults(route=compose_crt)
    add("compose-matrix", _cmd_compose, **two_forms).set_defaults(route=compose_via_matrices)
    p = add("classgroup", _cmd_classgroup)
    p.add_argument("--table", action="store_true", help="include the full Cayley table")
    p.set_defaults(fields=("d", "h", "structure", "elements", "two_torsion", "genus_order"))
    add("ideal-mul", _cmd_ideal_mul, i1='first ideal "(a,b)"', i2='second ideal "(a,b)"')
    add("form2ideal", _cmd_form2ideal, form='form "(a,b,c)"')
    add("ideal2form", _cmd_ideal2form, ideal='ideal "(a,b)"')
    add("normform", _cmd_normform, tuple='generator tuple "(p,q),(p,q),..."')
    add("solve-transform", _cmd_solve_transform, x='source tuple "(p,q),..."', y='target tuple "(p,q),..."')
    add("form-action", _cmd_form_action, matrix='matrix "[[..],[..]]"', form='form "(a,b,c)" or tuple "(p,q),..."')
    add("genus", _cmd_classgroup).set_defaults(
        fields=("d", "h", "two_torsion", "genus_order", "coset_reps"), table=False
    )
    vp = sub.add_parser("verify", parents=[shared])
    vp.add_argument("--range", required=True, help='discriminant range "-lo..-hi"')
    vp.add_argument("--samples", type=int, default=25, help="max pairs per discriminant")
    vp.set_defaults(fn=_cmd_verify)
    return parser


# built on the first main() call, not at import, and reused after that
_parser = functools.cache(build_parser)


def _raising_module(exc) -> str:
    """The innermost library module the exception's traceback passes through."""
    name = __name__
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith(__package__ + "."):
            name = module
        tb = tb.tb_next
    return name


def _json(envelope) -> str:
    return json.dumps(_stringify(envelope), separators=(",", ":"))


def main(argv=None) -> int:
    # Python's 4300-digit cap on int/str conversion is lifted while the
    # command runs, so integers of any length are read and printed
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # join option values that start with "-" so argparse does not read them
    # as flags, e.g. --range -4..-2000
    while "--range" in argv[:-1]:
        i = argv.index("--range")
        argv[i:i + 2] = [f"--range={argv[i + 1]}"]
    command = ""
    try:
        args = _parser().parse_args(argv)
        command = args.command or ""
        fmt = getattr(args, "format", None) or os.environ.get("QG_FORMAT") or "text"
        if fmt not in ("json", "text"):
            raise UsageError(f"QG_FORMAT must be json or text, not {fmt!r}")
        if not command:
            raise UsageError("a subcommand is required (try --help)")
        disc = Discriminant(args.d) if "d" in args else None
        result, lines = args.fn(args, disc)
    except Exception as exc:
        if isinstance(exc, (UsageError, DomainError)):
            code, error = (2 if isinstance(exc, UsageError) else 1), str(exc)
        else:
            code, error = 3, f"internal error in {_raising_module(exc)}: {exc}"
        print(_json({"status": "error", "command": command, "error": error}), file=sys.stderr)
        return code
    # a reader that closes stdout early (`| head -1`) ends the run quietly,
    # with fd 1 on devnull so that the flush at interpreter exit cannot raise
    try:
        if fmt == "json":
            print(_json({"status": "ok", "command": command, "result": result}))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
