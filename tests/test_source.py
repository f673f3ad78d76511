import ast
import inspect
from pathlib import Path

import quadgenus
import quadgenus.forms as forms
import quadgenus.lattice as lattice
import quadgenus.normforms as normforms
from quadgenus.ideals import OrderIdeal, compose_via_matrices

from oracles import every_pair, rebind, recorder

SRC = Path(quadgenus.__file__).parent
TESTS = Path(__file__).parent


def test_no_bare_assert_in_library():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imported_modules(name, root=SRC):
    """Every module an import statement of <root>/<name> names; root is
    src/quadgenus unless given."""
    found = set()
    for node in ast.walk(ast.parse((root / name).read_text(), name)):
        if isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def test_no_test_module_imports_another():
    # shared helpers live in tests/oracles.py: a test module that imports
    # another is not collected under pytest --import-mode=importlib
    found = {
        f"{path.name}: {module}"
        for path in sorted(TESTS.glob("*.py"))
        for module in _imported_modules(path.name, TESTS)
        if module.startswith("test_")
    }
    assert found == set()


def test_forms_imports_only_arith():
    assert _imported_modules("forms.py") - {"__future__", "math"} == {".arith"}


def test_classgroup_does_not_import_lattice():
    assert ".lattice" not in _imported_modules("classgroup.py")


def test_cli_builds_no_argparse_parser():
    # every CLI process imports cli.py; neither module is needed to read argv
    assert not {"argparse", "functools"} & _imported_modules("cli.py")


def test_package_all_is_the_module_lists():
    modules = ("arith", "lattice", "normforms", "forms", "ideals", "classgroup")
    names = [n for mod in modules for n in getattr(quadgenus, mod).__all__]
    assert quadgenus.__all__ == names
    assert len(set(names)) == len(names)
    for n in names:
        getattr(quadgenus, n)


def _class_methods(name):
    """Names of the classes in src/quadgenus that define the method name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == name:
                        found.add(node.name)
    return found


def test_equality_and_hashing_come_from_one_base():
    assert _class_methods("__hash__") == {"_Value"}
    # QuadInt keeps its own __eq__ so that it compares with ints
    assert _class_methods("__eq__") == {"_Value", "QuadInt"}


def test_bool_is_excluded_by_exact_int_checks():
    # an integer field is checked as `type(v) is not int`, and no result
    # holds a bool, so no code tells booleans apart from the ints they subclass
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and "bool" in ast.unparse(node.args[1])
                    ):
                        found.append(f"{path.stem}.{fn.name}")
    assert found == []


def _imported_names(name, module):
    """The names src/quadgenus/<name> imports from its sibling module."""
    tree = ast.parse((SRC / name).read_text(), name)
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def _calls(name, fn_name):
    """Names called in the top-level function fn_name of src/quadgenus/<name>,
    once per call site."""
    tree = ast.parse((SRC / name).read_text(), name)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == fn_name)
    return [
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    ]


def _route_calls(monkeypatch, *originals):
    """Names of the originals called, through any quadgenus binding, while
    the matrix route composes every ordered pair at d = -23, -76 and -84."""
    wrappers = [recorder(original) for original in originals]
    for original, wrapper in zip(originals, wrappers):
        rebind(monkeypatch, original, wrapper)
    for f, g in every_pair((-23, -76, -84)):
        assert compose_via_matrices(f, g) == forms.compose_crt(f, g)
    return [original.__name__ for original, w in zip(originals, wrappers) for _ in w.calls]


def test_crt_route_makes_no_repair():
    # the congruence route composes every pair in one closed form; no route
    # calls the coprime repair
    called = _calls("forms.py", "compose_crt")
    assert "composition_b" in called
    assert "coprime_equivalent" not in called


def test_the_composite_is_derived_once():
    # composition_b returns (a3, B); the CRT route and the class-group kernel
    # unpack both and derive neither e nor a3 again
    tree = ast.parse((SRC / "forms.py").read_text(), "forms.py")
    for fn_name in ("compose_crt", "_compose_ab"):
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == fn_name)
        called = _calls("forms.py", fn_name)
        assert called.count("composition_b") == 1 and "gcd" not in called, fn_name
        targets = [
            node.targets[0]
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and getattr(getattr(node.value, "func", None), "id", None) == "composition_b"
        ]
        assert len(targets) == 1 and isinstance(targets[0], ast.Tuple), fn_name
        assert len(targets[0].elts) == 2, fn_name


def test_matrix_route_makes_no_repair(monkeypatch):
    # tau_pair carries e = gcd(a, a', (b+b')/2), so every pair takes one
    # substitution; composition_b is the one composition helper still borrowed
    assert "coprime_equivalent" not in _calls("ideals.py", "compose_via_matrices")
    assert _imported_names("ideals.py", "forms") == {"BinaryForm", "composition_b", "reduce_form"}
    assert _route_calls(monkeypatch, forms.coprime_equivalent) == []


def test_only_solve_transform_runs_row_operations():
    # hnf_basis and contains take the canonical basis in closed form; the
    # row-operation core serves the one caller that needs provenance
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_hnf_core":
                        callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"lattice.solve_transform"}


def test_matrix_route_writes_its_substitution_out(monkeypatch):
    # h_alpha @ tau1 is multiplied inline and substituted into the order's
    # norm form by the written-out 2x2 formula; the route shares no
    # substitution code with normforms.form_action, the test oracle
    called = _calls("ideals.py", "compose_via_matrices")
    for name in ("h_alpha", "tau_pair", "principal_norm_form"):
        assert called.count(name) == 1, name
    assert not set(called) & {"_substitute", "form_action", "mat_mul", "check_matrix"}
    assert _imported_names("ideals.py", "normforms") == {"principal_norm_form"}
    assert _route_calls(monkeypatch, normforms.form_action, lattice.check_matrix) == []


def test_an_ideal_keeps_its_c():
    # the validity check's divmod computes c = (b^2 - d)/4a; the ideal keeps
    # it in a slot instead of computing it again on each read
    assert "c" in OrderIdeal.__slots__
    assert not isinstance(inspect.getattr_static(OrderIdeal, "c"), property)


def test_matrix_route_reads_no_lower_left_entry():
    # h_alpha and tau1 both have 0 in the lower-left corner, so the route
    # unpacks those entries to _ and writes out no r-term
    tree = ast.parse((SRC / "ideals.py").read_text(), "ideals.py")
    fn = next(n for n in tree.body if getattr(n, "name", None) == "compose_via_matrices")
    lower_left = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value.value if isinstance(node.value, ast.Subscript) else node.value
        name = getattr(getattr(value, "func", None), "id", None)
        if name in ("h_alpha", "tau_pair"):
            (target,) = node.targets
            lower_left[name] = target.elts[1].elts[0]
    assert set(lower_left) == {"h_alpha", "tau_pair"}
    for name, entry in lower_left.items():
        assert isinstance(entry, ast.Name) and entry.id == "_", name
    loads = {
        node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert "_" not in loads


def _generator_sites(name, functions=None):
    """file:line of each generator expression in src/quadgenus/<name>, only
    inside the named functions (Class.method for a method) when given."""
    tree = ast.parse((SRC / name).read_text(), name)
    scopes = [tree]
    if functions is not None:
        scopes = []
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            prefix = f"{node.name}." if is_class else ""
            for fn in node.body if is_class else [node]:
                if isinstance(fn, ast.FunctionDef) and prefix + fn.name in functions:
                    scopes.append(fn)
        assert len(scopes) == len(functions), name
    return [
        f"{name}:{node.lineno}"
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.GeneratorExp)
    ]


def test_per_op_code_builds_no_generators():
    # each run of a generator expression builds a generator object and a
    # frame; in the matrix route two of them cost about 1.2 of 5.4 us a
    # pair on CPython 3.11, and the class-group layer paid the same way.
    # List comprehensions may stay: 3.12+ inlines them (PEP 709).
    found = []
    for name in ("arith.py", "forms.py", "ideals.py", "classgroup.py"):
        found += _generator_sites(name)
    found += _generator_sites(
        "lattice.py", {"GenTuple.__init__", "GenTuple.coords", "_basis_rows", "module_mul"}
    )
    assert found == []


def test_classgroup_composes_only_through_the_forms_kernel():
    # forms is the one module that knows the composition law: the class-group
    # loop and its Cayley table both call forms._compose_ab
    assert _imported_names("classgroup.py", "forms") == {
        "BinaryForm",
        "_compose_ab",
        "enumerate_reduced",
        "principal_form",
        "reduce_form",
    }
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "_compose_ab"
    ]
    assert defined == ["forms.py"]


def test_the_order_norm_form_has_one_spelling():
    # binary only; in m variables it is norm_form(integral_tuple(disc, m))
    assert list(inspect.signature(normforms.principal_norm_form).parameters) == ["disc"]
