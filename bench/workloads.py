"""The three seeded workloads of the quadgenus benchmark.

Each workload class builds its inputs from a seed, without the library,
and exposes:

- `inputs`: plain data (ints, strings, lists) that fixes every op; the
  benchmark hashes it so that a run records exactly what it measured;
- `prepare(qg)`: turns the inputs into `ops`, the library's own objects
  (timed, with the import of the library, as set-up);
- `ops`: the ops of one pass, run one after another by the closed loop;
- `run(op)`: the library calls one op makes, and nothing else (timed);
- `check(op, out)`: the correctness oracle for that op (not timed);
- `trace_ops`: the number of ops in the traced batch.

`qg` is the imported quadgenus package. Ops call the library through its
module attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"


# --- sweep -------------------------------------------------------------------


class SampledPairs:
    """Pairs of forms drawn from lists of forms, made when indexed: pair j
    of list k takes the forms at fractions (u, v) = fractions[k][j] of the
    list. Holding the pairs themselves would make set-up and memory the
    benchmark's own."""

    def __init__(self, form_lists, fractions):
        self.form_lists = form_lists
        self.fractions = fractions
        self.per_list = len(fractions[0])

    def __len__(self):
        return len(self.form_lists) * self.per_list

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        k, j = divmod(i, self.per_list)
        forms = self.form_lists[k]
        u, v = self.fractions[k][j]
        return forms[int(u * len(forms))], forms[int(v * len(forms))]


class Sweep:
    """The dual-oracle sweep of `verify` and acceptance C1: seeded ordered
    pairs of reduced forms of a seeded set of discriminants in [-4000, -3],
    through the CRT route, the matrix route and ideal multiplication."""

    name = "sweep"
    trace_ops = 1500
    n_discs = 24
    pairs_per_disc = 250

    def __init__(self, seed):
        # The 2000 discriminants d = 0, 1 (mod 4) in [-4000, -3], in order of
        # |d|, are cut into n_discs bins, and one is drawn from each, so every
        # seed gets nearly the same spread of |d| and of h. Each gets the same
        # number of pairs, so the mix does not lean on the largest h, and a
        # pass is short enough for a run to time every pair many times.
        rng = random.Random(f"sweep:{seed}")
        discs = [d for d in range(-3, -4001, -1) if d % 4 in (0, 1)]
        cuts = [j * len(discs) // self.n_discs for j in range(self.n_discs + 1)]
        self.inputs = [[rng.choice(discs[lo:hi]),
                        [[rng.random(), rng.random()] for _ in range(self.pairs_per_disc)]]
                       for lo, hi in zip(cuts, cuts[1:])]

    def prepare(self, qg):
        self.qg = qg
        self.ops = SampledPairs([qg.enumerate_reduced(qg.Discriminant(d)) for d, _ in self.inputs],
                                [fractions for _, fractions in self.inputs])

    def run(self, op):
        qg = self.qg
        f, g = op
        crt = qg.compose_crt(f, g)
        mat = qg.compose_via_matrices(f, g)
        _, prod = qg.ideal_mul(qg.form_to_ideal(f), qg.form_to_ideal(g))
        idl = qg.reduce_form(qg.ideal_to_form(prod))[0]
        return crt.triple(), mat.triple(), idl.triple()

    def check(self, op, out):
        crt, mat, idl = out
        return crt == mat == idl and crt[1] ** 2 - 4 * crt[0] * crt[2] == op[0].disc.d


# --- classgroup --------------------------------------------------------------

# Ops per pass from each stratum of data/classgroup_pool.json, whose strata
# do not overlap in cost (A < B < C): of the 60 ops the median (the 30th)
# falls inside B and the 90th percentile (the 54th) inside C.
CLASSGROUP_PICKS = {"A": 18, "B": 30, "C": 12}


class ClassGroupOps:
    """class_group + two_torsion + cl_mod_squares per discriminant, checked
    against (h, structure, genus order, #two-torsion) stored in
    data/classgroup_pool.json. Strata bound h, and so the cost of each op."""

    name = "classgroup"
    trace_ops = 10

    def __init__(self, seed):
        rng = random.Random(f"classgroup:{seed}")
        pool = json.loads((DATA_DIR / "classgroup_pool.json").read_text())["strata"]
        # A stratum with k picks is cut, in the pool's order (of cost on the
        # seed library), into k bins, and one discriminant is drawn from
        # each, so every seed sees nearly the same spread of costs.
        self.inputs = []
        for s, k in CLASSGROUP_PICKS.items():
            entries = pool[s]
            cuts = [j * len(entries) // k for j in range(k + 1)]
            self.inputs += [rng.choice(entries[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        rng.shuffle(self.inputs)

    def prepare(self, qg):
        self.qg = qg
        self.ops = [(qg.Discriminant(e["d"]), (e["h"], e["structure"], e["genus_order"],
                                               e["two_torsion"]))
                    for e in self.inputs]

    def run(self, op):
        qg = self.qg
        group = qg.class_group(op[0])
        torsion = qg.two_torsion(group)
        genus_order, _ = qg.cl_mod_squares(group)
        return group.h, list(group.structure), genus_order, len(torsion)

    def check(self, op, out):
        return out == op[1]


# --- cli ---------------------------------------------------------------------


class Cli:
    """`quadgenus.cli.main` over a fixed command list, in process: one op is
    one `--format json` command (argparse, the library calls, the JSON
    output), and its stdout must equal the stored golden byte for byte.
    Set-up imports quadgenus.cli afresh, the import every invocation of the
    CLI pays. A pass runs every command once, in an order the seed picks."""

    name = "cli"
    trace_ops = None  # one pass

    def __init__(self, seed):
        rng = random.Random(f"cli:{seed}")
        golden = json.loads((DATA_DIR / "cli_golden.json").read_text())
        self.trace_ops = len(golden)
        self.inputs = rng.sample(golden, len(golden))

    def prepare(self, qg):
        t = time.perf_counter()
        self.cli = importlib.import_module("quadgenus.cli")
        self.import_s = time.perf_counter() - t
        self.ops = [(["--format", "json", *e["argv"]], e["stdout"]) for e in self.inputs]

    def run(self, op):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(op[0])
        return code, stdout.getvalue()

    def check(self, op, out):
        return out == (0, op[1])
