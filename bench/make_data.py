"""Regenerate the benchmark's stored oracles from the library as it stands.

    python3 bench/make_data.py

writes data/classgroup_pool.json (discriminants per cost stratum with their
h, invariant factors, genus order and two-torsion count, each stratum in
order of the op's cost on the library as it stands) and
data/cli_golden.json (the cli workload's commands and their exact stdout).
The files in the repository were made from the seed library; regenerate
them only when a change is meant to alter these results.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from quadgenus import Discriminant, cl_mod_squares, class_group, enumerate_reduced, two_torsion  # noqa: E402

# stratum: (|d| low, |d| high, h low, h high (exclusive), entries)
STRATA = {
    "A": (10 ** 3, 3 * 10 ** 3, 8, 14, 54),
    "B": (10 ** 4, 3 * 10 ** 4, 20, 30, 60),
    "C": (3 * 10 ** 4, 6 * 10 ** 4, 30, 40, 36),
}

CLI_COMMANDS = [
    ["reduce", "-d", "-23", "(4,5,3)"],
    ["reduce", "-d", "-1999", "(1000,999,250)"],
    ["enumerate", "-d", "-23"],
    ["enumerate", "-d", "-3315"],
    ["compose", "-d", "-23", "(2,1,3)", "(2,1,3)"],
    ["compose", "-d", "-1999", "(2,-1,250)", "(2,-1,250)"],
    ["compose-matrix", "-d", "-23", "(2,1,3)", "(2,1,3)"],
    ["compose-matrix", "-d", "-23", "(2,1,3)", "(2,-1,3)"],
    ["classgroup", "-d", "-84"],
    ["classgroup", "-d", "-84", "--table"],
    ["classgroup", "-d", "-3315"],
    ["genus", "-d", "-84"],
    ["genus", "-d", "-5460"],
    ["ideal-mul", "-d", "-23", "(2,1)", "(2,-1)"],
    ["form2ideal", "-d", "-23", "(2,1,3)"],
    ["ideal2form", "-d", "-23", "(4,5)"],
    ["normform", "-d", "-23", "(4,0),(1,-1)"],
    ["solve-transform", "-d", "-23", "(2,0),(-23,-1)", "(4,0),(1,-1)"],
    ["form-action", "-d", "-23", "[[4,14],[0,1]]", "(1,-23,138)"],
    ["verify", "--range", "-4..-40", "--samples", "5"],
]


def by_cost(entries, rounds=5):
    """The entries in order of the classgroup workload's op on each, cheapest
    first: the fastest of `rounds` timings, taken in round-robin so that a
    slow spell of the host does not fall on every timing of one entry."""
    discs = [Discriminant(e["d"]) for e in entries]
    best = [math.inf] * len(entries)
    for _ in range(rounds):
        for i, disc in enumerate(discs):
            t = time.perf_counter()
            group = class_group(disc)
            two_torsion(group)
            cl_mod_squares(group)
            best[i] = min(best[i], time.perf_counter() - t)
    return [e for _, e in sorted(zip(best, entries), key=lambda pair: pair[0])]


def classgroup_pool(rng):
    strata = {}
    for name, (lo, hi, h_lo, h_hi, n) in STRATA.items():
        entries, seen = [], set()
        while len(entries) < n:
            d = -int(10 ** rng.uniform(math.log10(lo), math.log10(hi)))
            if d % 4 not in (0, 1) or d in seen:
                continue
            seen.add(d)
            disc = Discriminant(d)
            if not h_lo <= len(enumerate_reduced(disc)) < h_hi:
                continue
            group = class_group(disc)
            genus_order, _ = cl_mod_squares(group)
            entries.append({
                "d": d,
                "h": group.h,
                "structure": list(group.structure),
                "genus_order": genus_order,
                "two_torsion": len(two_torsion(group)),
                "fundamental": disc.is_fundamental(),
            })
        strata[name] = entries = by_cost(entries)
        fundamental = sum(e["fundamental"] for e in entries)
        print(f"stratum {name}: {n} discriminants, {fundamental} fundamental", file=sys.stderr)
    return {"strata": strata}


def cli_golden():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QG_FORMAT", None)
    out = []
    for argv in CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "quadgenus", "--format", "json", *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{argv} failed: {proc.stderr}")
        out.append({"argv": argv, "stdout": proc.stdout})
    return out


def main():
    data = BENCH_DIR / "data"
    data.mkdir(exist_ok=True)
    pool = classgroup_pool(random.Random(20250911))
    (data / "classgroup_pool.json").write_text(json.dumps(pool, indent=0) + "\n")
    (data / "cli_golden.json").write_text(json.dumps(cli_golden(), indent=1) + "\n")


if __name__ == "__main__":
    main()
