"""Command-line surface: one subcommand per library operation.

A run prints its result as text lines, or as one envelope with --format
json, and renders only the format it prints. JSON output serializes all
numbers as decimal strings so arbitrary precision survives any consumer;
identical inputs give byte-identical output. Errors go to stderr as an
envelope, exit code 1 for domain errors, 2 for usage errors and 3 for
internal errors (any other fault inside the library, such as a broken
invariant), whose message names the library module that raised it.

Arguments: -d, the discriminant; f, g, form: forms "(a,b,c)"; i1, i2,
ideal: ideals "(a,b)"; tuple, x, y: tuples "(p,q),(p,q),..."; matrix:
JSON rows; --range "-lo..-hi"; --samples: pairs per discriminant (25);
--table: add the Cayley table; --format: json or text (or QG_FORMAT).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys

from .arith import Discriminant, DomainError, QuadInt
from .classgroup import cl_mod_squares, class_group, two_torsion
from .forms import ENUMERATION_LIMIT, BinaryForm, compose_crt, enumerate_reduced, reduce_form
from .ideals import OrderIdeal, compose_via_matrices, form_to_ideal, ideal_mul, ideal_to_form
from .lattice import GenTuple, check_matrix, solve_transform
from .normforms import MultiQuadraticForm, form_action, norm_form

MAX_VARS = 64

# argument grammars, each matched in full against the raw text; whitespace
# is allowed around parentheses, commas and numbers, not inside a number;
# a form's and an ideal's grammar capture their integers
_INT = r"\s*-?\d+\s*"
_PAIR = rf"\({_INT},{_INT}\)"
_CAPTURED = r"\s*(-?\d+)\s*"
_FORM_RE = re.compile(rf"\s*\({_CAPTURED},{_CAPTURED},{_CAPTURED}\)\s*")
_IDEAL_RE = re.compile(rf"\s*\({_CAPTURED},{_CAPTURED}\)\s*")
_TUPLE_RE = re.compile(rf"\s*{_PAIR}(?:\s*,\s*{_PAIR})*\s*")
_RANGE_RE = re.compile(r"\s*-\d+\s*\.\.\s*-\d+\s*")
_NUMBER_RE = re.compile(r"-?\d+")
# an option: "--" and a name, or "-" and a letter, then "=" and a value or
# (after the letter) the value itself; -23 or -4..-40 is a value
_OPTION_RE = re.compile(r"(--[^=]*|-[a-zA-Z])(=?)(.*)", re.S)


class UsageError(Exception):
    pass


def _ints(pattern: re.Pattern, text: str, error: str | None = None) -> list[int] | None:
    """The integers of text, in order (pattern's groups, if it has any), if
    pattern matches all of it; else None, or, given error, the UsageError
    "cannot parse " + error.format(text)."""
    if m := pattern.fullmatch(text):
        return [int(n) for n in (m.groups() or _NUMBER_RE.findall(text))]
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
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is BinaryForm:
        return {"a": str(value.a), "b": str(value.b), "c": str(value.c), "d": str(value.disc.d)}
    if kind is list or kind is tuple:
        return [_stringify(v) for v in value]
    if kind is dict:
        return {k: _stringify(v) for k, v in value.items()}
    if kind is OrderIdeal:
        return {"a": str(value.a), "b": str(value.b), "d": str(value.disc.d)}
    if kind is MultiQuadraticForm:
        coeffs = [[str(i), str(j), str(c)] for (i, j), c in value.coeffs.items()]
        return {"m": str(value.m), "d": str(value.disc.d), "coeffs": coeffs}
    return value


def _text(value) -> str:
    """One result value as text: a list of forms space-separated, a number
    or an integer vector or matrix in JSON notation."""
    if isinstance(value, list) and value and isinstance(value[0], BinaryForm):
        return " ".join(str(f) for f in value)
    return json.dumps(value)


# Subcommand handlers: each takes the dict of parsed arguments and the
# discriminant of -d (None for verify) and returns (result, lines): lines()
# renders the text output, which a --format json run never calls


def _cmd_reduce(args, disc):
    r, w = reduce_form(_parse_form(args["form"], disc))
    return {"form": r, "witness": w}, lambda: [str(r), "witness: " + _text(w)]


def _cmd_enumerate(args, disc):
    forms = enumerate_reduced(disc)
    return {"d": disc.d, "h": len(forms), "forms": forms}, lambda: [str(f) for f in forms]


def _cmd_compose(args, disc):
    r = args["route"](_parse_form(args["f"], disc), _parse_form(args["g"], disc))
    return {"form": r}, lambda: [str(r)]


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
    result = {k: values[k] for k in args["fields"]}

    def lines():
        out = [f"{k}: {_text(values[k])}" for k in args["fields"]]
        if args["table"]:
            out += ["table:", *("  " + " ".join(str(k) for k in row) for row in g.table)]
        return out

    if args["table"]:
        result["table"] = g.table
    return result, lines


def _cmd_ideal_mul(args, disc):
    content, prod = ideal_mul(_parse_ideal(args["i1"], disc), _parse_ideal(args["i2"], disc))
    return {"content": content, "ideal": prod}, lambda: [str(prod) if content == 1 else f"{content} * {prod}"]


def _cmd_form2ideal(args, disc):
    i = form_to_ideal(_parse_form(args["form"], disc))
    return {"ideal": i}, lambda: [str(i)]


def _cmd_ideal2form(args, disc):
    f = ideal_to_form(_parse_ideal(args["ideal"], disc))
    return {"form": f}, lambda: [str(f)]


def _cmd_normform(args, disc):
    f = norm_form(_parse_tuple(args["tuple"], disc))
    return {"form": f}, lambda: [str(f)]


def _cmd_solve_transform(args, disc):
    h = solve_transform(_parse_tuple(args["x"], disc), _parse_tuple(args["y"], disc))
    return {"matrix": h}, lambda: [_text(h)]


def _cmd_form_action(args, disc):
    h = _parse_matrix(args["matrix"])
    # a binary triple and a generator tuple never match each other's shape
    if abc := _ints(_FORM_RE, args["form"]):
        f = MultiQuadraticForm.from_binary_triple(*abc, disc)
    else:
        f = norm_form(_parse_tuple(args["form"], disc))
    r = form_action(h, f)
    return {"form": r}, lambda: [str(r)]


def _parse_range(text: str) -> tuple[int, int]:
    a, b = _ints(_RANGE_RE, text, 'range {!r}, expected "-lo..-hi"')
    if max(a, b) >= 0:
        raise UsageError(f"range {text!r} must have negative endpoints")
    return max(a, b), min(a, b)


def _cmd_verify(args, _disc):
    lo, hi = _parse_range(args["range"])
    if -hi > ENUMERATION_LIMIT:  # fail before the sweep, not once it gets there
        raise DomainError(f"|d| = {-hi} is past the enumeration limit |d| <= {ENUMERATION_LIMIT}")
    samples = args["samples"]
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
            # all three routes end in reduce_form, so agreeing is not enough:
            # |b| <= a <= c, and b >= 0 when |b| = a or a = c
            a, b, c = crt.a, crt.b, crt.c
            if not (crt == mat == idl and abs(b) <= a <= c and (b >= 0 or (-b < a < c))):
                mismatches.append({"d": d, "f": f, "g": g})
    result = {
        "range": [lo, hi],
        "discriminants": discs,
        "pairs": pairs,
        "mismatches": mismatches,
    }
    return result, lambda: [f"checked {discs} discriminants, {pairs} pairs, {len(mismatches)} mismatches"]


# name -> (handler, positional names, fixed values, options), in the order
# that --help lists them and an unknown command is offered them. An option
# with a fixed value is optional, and the others are required.
_COMMANDS = {
    "reduce": (_cmd_reduce, ("form",), {}, ("-d",)),
    "enumerate": (_cmd_enumerate, (), {}, ("-d",)),
    "compose": (_cmd_compose, ("f", "g"), {"route": compose_crt}, ("-d",)),
    "compose-matrix": (_cmd_compose, ("f", "g"), {"route": compose_via_matrices}, ("-d",)),
    "classgroup": (
        _cmd_classgroup, (), {"fields": ("d", "h", "structure", "elements", "two_torsion", "genus_order"), "table": False},
        ("-d", "--table"),
    ),
    "ideal-mul": (_cmd_ideal_mul, ("i1", "i2"), {}, ("-d",)),
    "form2ideal": (_cmd_form2ideal, ("form",), {}, ("-d",)),
    "ideal2form": (_cmd_ideal2form, ("ideal",), {}, ("-d",)),
    "normform": (_cmd_normform, ("tuple",), {}, ("-d",)),
    "solve-transform": (_cmd_solve_transform, ("x", "y"), {}, ("-d",)),
    "form-action": (_cmd_form_action, ("matrix", "form"), {}, ("-d",)),
    "genus": (
        _cmd_classgroup, (), {"fields": ("d", "h", "two_torsion", "genus_order", "coset_reps"), "table": False},
        ("-d",),
    ),
    "verify": (_cmd_verify, (), {"samples": 25}, ("--range", "--samples")),
}

# option -> int, str, its choices, or None for a flag; no option is a prefix
# of another, so one given by its full name needs no prefix scan
_OPTIONS = {"--format": ("json", "text"), "-d": int, "--table": None, "--range": str, "--samples": int}
_GLOBAL_OPTIONS = ("--format", "-h", "--help")


def _choice(arg, value, choices) -> UsageError:
    return UsageError(f"argument {arg}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")


def _parse(argv) -> tuple[str, dict | None]:
    """The command argv names ("" if none) and its arguments, or None for
    them if argv asks for help."""
    name, names, fixed, options = "", (), {}, ()
    args, given, extras = {}, [], []
    ended = False  # by "--", after which every token is a value
    tokens = iter(argv)
    for token in tokens:
        m = not ended and _OPTION_RE.match(token)
        if not m:
            if name:
                (given if len(given) < len(names) else extras).append(token)
            elif token in _COMMANDS:
                name, (_, names, fixed, options) = token, _COMMANDS[token]
            else:
                raise _choice("command", token, _COMMANDS)
            continue
        if token == "--":
            ended = True
            continue
        opt, eq, value = m.groups()
        if opt not in options and opt not in _GLOBAL_OPTIONS:
            match = [o for o in (*_GLOBAL_OPTIONS, *options) if o.startswith(opt)]
            if len(match) != 1:
                extras.append(token)
                continue
            opt = match[0]
        if opt in ("-h", "--help"):
            return name, None
        kind = _OPTIONS[opt]
        if kind is None:
            if eq or value:
                raise UsageError(f"argument {opt}: ignored explicit argument {value!r}")
            value = True
        elif not (eq or value):  # the value is the next token
            value = next(tokens, "--")
            if _OPTION_RE.match(value):
                raise UsageError(f"argument {opt}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {opt}: invalid int value: {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise _choice(opt, value, kind)
        args[opt.lstrip("-")] = value
    args = fixed | args
    if missing := [o for o in options if o.lstrip("-") not in args] + list(names[len(given):]):
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return name, args | dict(zip(names, given))


def _help(name: str) -> str:
    """The --help text, for the named command or for every one."""
    lines = ["  " + " ".join((n, *c[3], *c[1])) for n, c in _COMMANDS.items() if name in ("", n)]
    return "\n".join(["usage: quadgenus [-h] [--format json|text] command ...", *lines, "", __doc__])


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


_ENCODER = json.JSONEncoder(separators=(",", ":"))


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


def _emit(stream, lines) -> None:
    """Print lines to stream; if its reader has gone (`| head -1`), point
    its fd at devnull, so that the flush at interpreter exit cannot raise."""
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _run(argv) -> int:
    command = ""
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            _emit(sys.stdout, [_help(command)])
            return 0
        fmt = args.get("format") or os.environ.get("QG_FORMAT") or "text"
        if fmt not in ("json", "text"):
            raise UsageError(f"QG_FORMAT must be json or text, not {fmt!r}")
        if not command:
            raise UsageError("a subcommand is required (try --help)")
        disc = Discriminant(args["d"]) if "d" in args else None
        result, lines = _COMMANDS[command][0](args, disc)
        if fmt == "json":
            out = [_ENCODER.encode({"status": "ok", "command": command, "result": _stringify(result)})]
        else:
            out = lines()
    except Exception as exc:
        if isinstance(exc, (UsageError, DomainError)):
            code, error = (2 if isinstance(exc, UsageError) else 1), str(exc)
        else:
            code, error = 3, f"internal error in {_raising_module(exc)}: {exc}"
        # the exit code holds even when stderr is closed
        _emit(sys.stderr, [_ENCODER.encode({"status": "error", "command": command, "error": error})])
        return code
    _emit(sys.stdout, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
