"""Reference implementations, seeded generators, sweeps and instrumentation
shared by the test modules.

Each oracle here is written once and imported by the tests that need it;
test modules import from this module and never from each other. Every
generator takes its bounds as arguments and draws from the caller's
`random.Random` in a fixed order, so a seed always gives the same inputs.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

from quadgenus.arith import Discriminant, QuadInt
from quadgenus.forms import (
    BinaryForm,
    compose_crt,
    enumerate_reduced,
    form_inverse,
    principal_form,
    reduce_form,
)
from quadgenus.ideals import form_to_ideal, ideal_mul, ideal_to_form
from quadgenus.lattice import GenTuple

SRC = Path(__file__).resolve().parent.parent / "src"


# --- number-theory oracles ----------------------------------------------------


def squarefree(n):
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


def is_fundamental(d):
    """True iff d < 0 is a fundamental discriminant, by trial division."""
    if d % 4 == 1:
        return squarefree(-d)
    k = d // 4
    return d % 4 == 0 and k % 4 in (2, 3) and squarefree(-k)


def distinct_primes(n):
    """The number of distinct primes dividing n, by trial division."""
    n = abs(n)
    count = 0
    i = 2
    while i * i <= n:
        if n % i == 0:
            count += 1
            while n % i == 0:
                n //= i
        i += 1
    return count + (1 if n > 1 else 0)


def count_reduced(d):
    """The number of reduced primitive forms of discriminant d: scan the
    whole (a, b, c) box and test the discriminant equation directly."""
    count = 0
    amax = math.isqrt(-d // 3)
    cmax = (-d + amax * amax) // 4 + 1
    for a in range(1, amax + 1):
        for c in range(a, cmax + 1):
            for b in range(-a, a + 1):
                if b * b - 4 * a * c != d:
                    continue
                if b < 0 and (abs(b) == a or a == c):
                    continue
                if math.gcd(a, b, c) == 1:
                    count += 1
    return count


def is_reduced(f):
    """|b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    return abs(b) <= a <= c and (b >= 0 or -b < a < c)


def ideal_route(f, g):
    """f composed with g through ideal multiplication, then reduction: the
    third composition route, next to compose_crt and compose_via_matrices."""
    _, prod = ideal_mul(form_to_ideal(f), form_to_ideal(g))
    return reduce_form(ideal_to_form(prod))[0]


# --- seeded generators --------------------------------------------------------


def random_disc(rng, hi):
    """A discriminant d with 3 <= -d < hi, redrawn until d = 0, 1 (mod 4)."""
    while True:
        dv = -rng.randrange(3, hi)
        if dv % 4 in (0, 1):
            return Discriminant(dv)


def random_quadint(rng, disc, bound):
    """(p + q*sqrt(d))/2 with |q| <= bound and |p| <= bound + 1, p moved up
    by one when its parity does not match q*d."""
    q = rng.randrange(-bound, bound + 1)
    p = rng.randrange(-bound, bound + 1)
    if (p - q * disc.d) % 2:
        p += 1
    return QuadInt(p, q, disc)


def random_tuple(rng, disc, m, bound):
    return GenTuple([random_quadint(rng, disc, bound) for _ in range(m)], disc)


def form_near_sqrt(rng, digits):
    """A primitive form (a, b, c) with a, c close to sqrt(|d|/4), so that
    |d| = 4ac - b^2 has the given number of digits; not always reduced."""
    a = math.isqrt(10**digits // 8) + rng.randrange(10**6)
    while True:
        c = a + rng.randrange(1, 10**6)
        b = rng.randrange(-a + 1, a + 1)
        if math.gcd(a, b, c) == 1:
            d = Discriminant(b * b - 4 * a * c)
            assert len(str(-d.d)) == digits
            return BinaryForm(a, b, c, d)


def big_pairs():
    """Every ordered pair of f, f^2, f^3, their inverses and the principal
    form, for two reduced f at each of 20, 50 and 200 digits: squares,
    inverses and e > 1 at large d."""
    rng = random.Random(15)
    for digits in (20, 50, 200):
        for _ in range(2):
            f = reduce_form(form_near_sqrt(rng, digits))[0]
            f2 = compose_crt(f, f)
            powers = (f, f2, compose_crt(f2, f))
            forms = powers + tuple(form_inverse(h) for h in powers) + (principal_form(f.disc),)
            for g in forms:
                for h in forms:
                    yield g, h


# --- sweeps -------------------------------------------------------------------


def discs(bound):
    """Every discriminant value d in [-bound, -3], from -3 down."""
    return [dv for dv in range(-3, -bound - 1, -1) if dv % 4 in (0, 1)]


def every_pair(dvs):
    """Every ordered pair of reduced forms at each d of dvs, in turn."""
    for dv in dvs:
        forms = enumerate_reduced(Discriminant(dv))
        for f in forms:
            for g in forms:
                yield f, g


# --- instrumentation ----------------------------------------------------------


def recorder(original):
    """A wrapper of original that appends each call's argument tuple to its
    list `calls`; install it with monkeypatch.setattr or rebind."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return original(*args)

    recorded.calls = calls
    return recorded


def rebind(monkeypatch, original, replacement):
    """Point every quadgenus module binding of original at replacement."""
    name = original.__name__
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "quadgenus" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def run_child(*args, **run_kwargs):
    """`python *args` in a child that runs the checkout's package, installed
    or not. Keywords go to subprocess.run; by default stdout and stderr are
    captured as text."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **run_kwargs}
    return subprocess.run([sys.executable, *args], env=env, **options)
