"""In-memory span tracing of quadgenus's public functions.

`Tracer.install` replaces every binding of each function in TRACED, in every
loaded quadgenus module, with a wrapper that records one span: its name, the
span that was open when it started, start and end times, and up to two
counts derived from the call's arguments and output. Because the wrapper
replaces the module attribute, calls made inside the library (for example
`forms.compose_crt` calling `forms.reduce_form`) are caught too.

Spans stay in flat arrays until the run ends; `per_layer_metrics` derives
every per-layer metric from them, and `write_csv` writes them out.
"""

from __future__ import annotations

import array
import math
import sys
import time
from functools import wraps

# (module, attribute, span name); a dotted attribute is a method of a class.
TRACED = (
    ("arith", "QuadInt.__mul__", "arith.quadint_mul"),
    ("lattice", "check_matrix", "lattice.check_matrix"),
    ("lattice", "mat_mul", "lattice.mat_mul"),
    ("lattice", "hnf_basis", "lattice.hnf_basis"),
    ("lattice", "module_mul", "lattice.module_mul"),
    ("normforms", "norm_form", "normforms.norm_form"),
    ("normforms", "form_action", "normforms.form_action"),
    ("normforms", "principal_norm_form", "normforms.principal_norm_form"),
    ("forms", "reduce_form", "forms.reduce_form"),
    ("forms", "composition_b", "forms.composition_b"),
    ("forms", "coprime_equivalent", "forms.coprime_equivalent"),
    ("forms", "compose_crt", "forms.compose_crt"),
    ("forms", "enumerate_reduced", "forms.enumerate_reduced"),
    ("ideals", "ideal_mul", "ideals.ideal_mul"),
    ("ideals", "ideal_to_form", "ideals.ideal_to_form"),
    ("ideals", "compose_via_matrices", "ideals.compose_via_matrices"),
    ("ideals", "tau_pair", "ideals.tau_pair"),
    ("classgroup", "class_group", "classgroup.class_group"),
    ("classgroup", "two_torsion", "classgroup.two_torsion"),
    ("classgroup", "cl_mod_squares", "classgroup.cl_mod_squares"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in TRACED)
LAYERS = ("arith", "lattice", "normforms", "forms", "ideals", "classgroup")


def _composition_b_counts(args, out):
    # the seed code scans gcd(a1, a2) candidates for the middle coefficient
    return math.gcd(args[0], args[2]), 0


def _coprime_equivalent_counts(args, out):
    return int(out.triple() != args[0].triple()), 0


def _enumerate_reduced_counts(args, out):
    bound = math.isqrt(-args[0].d // 3)
    return bound * (bound + 1), len(out)


def _class_group_counts(args, out):
    return 0, out.h


# span name -> hook(args, output) -> (x, y)
COUNT_HOOKS = {
    "forms.composition_b": _composition_b_counts,
    "forms.coprime_equivalent": _coprime_equivalent_counts,
    "forms.enumerate_reduced": _enumerate_reduced_counts,
    "classgroup.class_group": _class_group_counts,
}

# Per-layer metrics every traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{n}.{k}", u) for n in ("forms.reduce_form", "lattice.mat_mul", "lattice.check_matrix")
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("forms.composition_b.calls", "count"), ("forms.composition_b.self_s", "s"),
       ("forms.composition_b.candidates", "count"), ("forms.composition_b.useful_ratio", "ratio"),
       ("forms.coprime_equivalent.calls", "count"), ("forms.coprime_equivalent.self_s", "s"),
       ("forms.coprime_equivalent.repairs", "count"),
       ("forms.compose_crt.calls", "count"), ("forms.compose_crt.self_s", "s"),
       ("classgroup.class_group.calls", "count"), ("classgroup.class_group.self_s", "s"),
       ("classgroup.class_group.compositions_per_class", "ratio"),
       ("classgroup.two_torsion.self_s", "s"), ("classgroup.cl_mod_squares.self_s", "s"),
       ("forms.enumerate_reduced.calls", "count"), ("forms.enumerate_reduced.self_s", "s"),
       ("forms.enumerate_reduced.scanned", "count"), ("forms.enumerate_reduced.useful_ratio", "ratio")]
    + [(f"{n}.{k}", u) for n in ("ideals.ideal_mul", "ideals.ideal_to_form",
                                 "ideals.compose_via_matrices", "ideals.tau_pair",
                                 "lattice.hnf_basis", "lattice.module_mul",
                                 "normforms.norm_form", "normforms.form_action")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("normforms.principal_norm_form.calls", "count"),
       ("arith.quadint_mul.calls", "count"), ("arith.quadint_mul.self_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("cli.import_s", "s"), ("cli.main.self_s", "s"),
       ("cli.output_bytes", "count"),
       ("trace.spans", "count"), ("trace.span_cost_us", "us"), ("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = array.array("H")
        self.parent = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.x = array.array("q")
        self.y = array.array("q")
        self._stack = [-1]
        self._undo = []

    def __len__(self):
        return len(self.t0)

    def wrap(self, fn, name):
        ix = SPAN_NAMES.index(name)
        hook = COUNT_HOOKS.get(name)
        names, parents, t0s, t1s, xs, ys = self.name, self.parent, self.t0, self.t1, self.x, self.y
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0s)
            names.append(ix)
            parents.append(stack[-1])
            t0s.append(0.0)
            t1s.append(0.0)
            xs.append(0)
            ys.append(0)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                t0s[sid] = start
                stack.pop()
            if hook is not None:
                xs[sid], ys[sid] = hook(args, out)
            return out

        return traced

    def install(self):
        """Wrap every binding of every TRACED function in the loaded
        quadgenus modules; `uninstall` restores them."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "quadgenus" or k.startswith("quadgenus."))]
        for mod_name, attr, name in TRACED:
            mod = sys.modules.get(f"quadgenus.{mod_name}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self.wrap(orig, name)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, key, wrapped)
                        self._undo.append((cls, key, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,t0,t1,x,y\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{SPAN_NAMES[self.name[i]]},"
                         f"{self.t0[i]!r},{self.t1[i]!r},{self.x[i]},{self.y[i]}\n")

    def summary(self):
        """Per span name: calls, self_s, x, y; plus the number of
        compose_crt spans whose parent is a class_group span."""
        n = len(self)
        child = [0.0] * n
        names, parents, t0, t1 = self.name, self.parent, self.t0, self.t1
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "x": 0, "y": 0}
                 for name in SPAN_NAMES}
        crt = SPAN_NAMES.index("forms.compose_crt")
        group = SPAN_NAMES.index("classgroup.class_group")
        group_compositions = 0
        for i in range(n):
            s = stats[SPAN_NAMES[names[i]]]
            s["calls"] += 1
            s["self_s"] += t1[i] - t0[i] - child[i]
            s["x"] += self.x[i]
            s["y"] += self.y[i]
            if names[i] == crt and parents[i] >= 0 and names[parents[i]] == group:
                group_compositions += 1
        return stats, group_compositions


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, extra):
    """Every PER_LAYER metric as {"value", "unit"}; `extra` supplies the
    cli.* and trace.* values measured outside the spans."""
    stats, group_compositions = tracer.summary()
    values = {}
    for name, s in stats.items():
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_s"] = s["self_s"]
    cb = stats["forms.composition_b"]
    values["forms.composition_b.candidates"] = cb["x"]
    values["forms.composition_b.useful_ratio"] = _ratio(cb["calls"], cb["x"])
    values["forms.coprime_equivalent.repairs"] = stats["forms.coprime_equivalent"]["x"]
    en = stats["forms.enumerate_reduced"]
    values["forms.enumerate_reduced.scanned"] = en["x"]
    values["forms.enumerate_reduced.useful_ratio"] = _ratio(en["y"], en["x"])
    values["classgroup.class_group.compositions_per_class"] = _ratio(
        group_compositions, stats["classgroup.class_group"]["y"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))
    values["trace.spans"] = len(tracer)
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def span_cost_us(calls=200_000):
    """Wall cost of one span, in microseconds: a traced no-op call minus a
    plain one."""

    def noop(v):
        return v

    tracer = Tracer()
    traced = tracer.wrap(noop, "cli.main")
    clock = time.perf_counter
    t = clock()
    for i in range(calls):
        noop(i)
    plain = clock() - t
    t = clock()
    for i in range(calls):
        traced(i)
    return ((clock() - t) - plain) / calls * 1e6
