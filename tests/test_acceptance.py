"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import json
import math
import random
import time

import pytest

from quadgenus.arith import Discriminant
from quadgenus.classgroup import cl_mod_squares, class_group, two_torsion
from quadgenus.cli import main
from quadgenus.forms import BinaryForm, compose_crt, enumerate_reduced, principal_form, reduce_form
from quadgenus.ideals import (
    OrderIdeal,
    compose_via_matrices,
    form_to_ideal,
    h_alpha,
    ideal_mul,
    ideal_to_form,
    tau_pair,
)
from quadgenus.lattice import apply_transform, mat_mul, solve_transform
from quadgenus.normforms import (
    form_action,
    norm_form,
    principal_norm_form,
    represent_from_fo,
)

import oracles
from oracles import (
    count_reduced,
    discs,
    distinct_primes,
    ideal_route,
    is_fundamental,
    is_reduced,
    random_disc,
    random_tuple,
    rebind,
)

RANGE_LIMIT = -2000


@pytest.fixture(scope="module")
def fundamental_discs():
    return [d for d in discs(-RANGE_LIMIT) if is_fundamental(d)]


@pytest.fixture(scope="module")
def groups(fundamental_discs):
    return {d: class_group(Discriminant(d)) for d in fundamental_discs}


def _random_ideal_from_forms(rng, disc, forms):
    f = rng.choice(forms)
    k = rng.randrange(-5, 6)
    return OrderIdeal(f.a, f.b + 2 * k * f.a, disc)


def _random_concordant_pairs(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        disc = random_disc(rng, 8000)
        forms = enumerate_reduced(disc)
        a1 = _random_ideal_from_forms(rng, disc, forms)
        a2 = _random_ideal_from_forms(rng, disc, forms)
        if math.gcd(a1.a, a2.a, (a1.b + a2.b) // 2) == 1:
            out.append((disc, a1, a2))
    return out


def _check_c1(f, g):
    """C1 on one pair: the three routes give one form, and it is reduced;
    all three end in reduce_form, so agreeing alone would not show that."""
    crt = compose_crt(f, g)
    assert crt == compose_via_matrices(f, g) == ideal_route(f, g), (f.disc.d, f.triple(), g.triple())
    assert is_reduced(crt), (f.disc.d, f.triple(), g.triple(), crt.triple())


def test_c1_dual_oracle_composition(groups):
    """Criterion 1: CRT, matrix, and ideal composition agree on every pair
    of reduced forms for every fundamental d in [-2000, -3], within 60 s."""
    t0 = time.monotonic()
    pairs = 0
    for d, g in groups.items():
        forms = g.elements
        h = g.h
        for i in range(h):
            fi = forms[i]
            for j in range(h):
                _check_c1(fi, forms[j])
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPT 1 dual-oracle composition: PASS ({pairs} pairs, {elapsed:.1f}s)")


def test_c1_dual_oracle_non_fundamental():
    """Criterion 1 on the orders of conductor > 1: CRT, matrix and ideal
    composition agree on every ordered pair of reduced forms for every
    non-fundamental d in [-1200, -3]. In this range every pair whose B is
    not pinned down by B = b1, B = b2 and B^2 = d alone lies at such a d."""
    t0 = time.monotonic()
    pairs = 0
    for d in discs(1200):
        if is_fundamental(d):
            continue
        forms = enumerate_reduced(Discriminant(d))
        for f in forms:
            for g in forms:
                _check_c1(f, g)
                pairs += 1
    elapsed = time.monotonic() - t0
    print(f"\nACCEPT 1b dual-oracle, non-fundamental d: PASS ({pairs} pairs, {elapsed:.1f}s)")


def test_c1_and_verify_catch_a_reduction_one_swap_short(monkeypatch, capsys):
    # a reduce_form that skips its final swap returns (c, -b, a) for the
    # reduced (a, b, c); every route ends in it, so all three still agree
    reduce = reduce_form

    def one_swap_short(f):
        r = reduce(f)[0]
        return BinaryForm(r.c, -r.b, r.a, r.disc), None  # no caller here reads the witness

    rebind(monkeypatch, reduce_form, one_swap_short)
    monkeypatch.setattr(oracles, "reduce_form", one_swap_short)
    forms = enumerate_reduced(Discriminant(-23))
    for f in forms:
        for g in forms:
            assert compose_crt(f, g) == compose_via_matrices(f, g) == ideal_route(f, g)
            with pytest.raises(AssertionError):
                _check_c1(f, g)
    assert main(["verify", "--range", "-23..-23"]) == 0
    assert capsys.readouterr().out == "checked 1 discriminants, 6 pairs, 6 mismatches\n"
    assert main(["--format", "json", "verify", "--range", "-23..-23"]) == 0
    mismatches = json.loads(capsys.readouterr().out)["result"]["mismatches"]
    assert [sorted(m) for m in mismatches] == [["d", "f", "g"]] * 6


def test_c2_matrix_closed_form():
    """Criterion 2: tau1 after h_alpha equals [[aa', (B-d)/2], [0, 1]] and
    the scaled substituted principal form equals (aa', B, (B^2-d)/(4aa')),
    exactly, for 1000 random concordant pairs."""
    for disc, a1, a2 in _random_concordant_pairs(101, 1000):
        d = disc.d
        tau1, _, bb, _, _ = tau_pair(a1, a2)
        composite = mat_mul(h_alpha(a1), tau1)
        aa = a1.a * a2.a
        assert composite == ((aa, (bb - d) // 2), (0, 1))
        carried = form_action(composite, principal_norm_form(disc))
        triple = carried.binary_triple()
        assert all(x % aa == 0 for x in triple)
        scaled = tuple(x // aa for x in triple)
        assert scaled == (aa, bb, (bb * bb - d) // (4 * aa))
    print("\nACCEPT 2 matrix closed form: PASS (1000 pairs, exact)")


def test_c3_transform_roundtrip():
    """Criterion 3: solve_transform reproduces random transformed tuples
    exactly and the norm-form action is natural, 1000 random cases."""
    rng = random.Random(102)
    for _ in range(1000):
        disc = random_disc(rng, 2000)
        m = rng.choice((2, 3, 4))
        x = random_tuple(rng, disc, m, 20)
        h = tuple(tuple(rng.randrange(-9, 10) for _ in range(m)) for _ in range(m))
        y = apply_transform(h, x)
        solved = solve_transform(x, y)
        assert apply_transform(solved, x) == y
        assert form_action(h, norm_form(x)) == norm_form(y)
    print("\nACCEPT 3 transform round-trip and naturality: PASS (1000 cases)")


def test_c4_class_numbers():
    """Criterion 4: desk-scale class numbers against the brute-force
    reduced-form scan, within 5 s."""
    known = {-3: 1, -4: 1, -23: 3, -47: 5, -71: 7, -84: 4, -163: 1}
    t0 = time.monotonic()
    for dv, expected in known.items():
        assert count_reduced(dv) == expected, f"oracle disagrees at {dv}"
        assert class_group(Discriminant(dv)).h == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\nACCEPT 4 class numbers: PASS ({elapsed:.2f}s)")


def test_c5_group_axioms(groups):
    """Criterion 5: closure, identity, inverses, associativity for every
    fundamental |d| <= 2000 (associativity spot-checked when h > 50)."""
    rng = random.Random(103)
    for d, g in groups.items():
        h = g.h
        t = g.table
        ids = list(range(h))
        assert g.elements[0] == principal_form(g.disc)
        assert t[0] == ids and [row[0] for row in t] == ids
        for row in t:
            assert sorted(row) == ids  # closure + cancellation
        for i in range(h):
            assert any(t[i][j] == 0 for j in range(h))  # inverse exists
        if h > 50:
            triples = ((rng.randrange(h), rng.randrange(h), rng.randrange(h)) for _ in range(10**4))
        else:
            triples = ((i, j, k) for i in range(h) for j in range(h) for k in range(h))
        for i, j, k in triples:
            assert t[t[i][j]][k] == t[i][t[j][k]]
    print(f"\nACCEPT 5 group axioms: PASS ({len(groups)} groups)")


def test_c6_genus_count(groups):
    """Criterion 6: |Cl/Cl^2| = 2^(t-1) for every fundamental |d| <= 2000,
    t = number of distinct primes dividing d."""
    for d, g in groups.items():
        order, _ = cl_mod_squares(g)
        assert order == 2 ** (distinct_primes(d) - 1), f"genus count fails at {d}"
        assert order == len(two_torsion(g))
    print(f"\nACCEPT 6 genus count: PASS ({len(groups)} discriminants)")


def test_c7_representation_from_base_form():
    """Criterion 7: 500 random ideals are represented from the order's norm
    form, and standard bases give exactly [[a, (b-d)/2], [0, 1]]."""
    rng = random.Random(104)
    for _ in range(500):
        disc = random_disc(rng, 8000)
        forms = enumerate_reduced(disc)
        alpha = _random_ideal_from_forms(rng, disc, forms)
        x = alpha.gen_tuple()
        h = represent_from_fo(x)
        assert h == ((alpha.a, (alpha.b - disc.d) // 2), (0, 1))
        assert form_action(h, principal_norm_form(disc)) == norm_form(x)
    print("\nACCEPT 7 base-form representation: PASS (500 ideals, exact)")


def test_c8_norm_multiplicativity_and_roundtrips():
    """Criterion 8: over 1000 random concordant pairs, ideal products have
    norm a*a' and the form <-> ideal dictionary round-trips exactly."""
    for disc, a1, a2 in _random_concordant_pairs(105, 1000):
        content, prod = ideal_mul(a1, a2)
        assert content == 1
        assert prod.a == a1.a * a2.a
        f1 = ideal_to_form(a1)
        assert (f1.a, f1.b) == (a1.a, a1.b)
        # the ideal's norm form is a times its form
        assert norm_form(a1.gen_tuple()).binary_triple() == tuple(a1.a * x for x in f1.triple())
        assert form_to_ideal(f1) == a1
        f2 = ideal_to_form(a2)
        assert form_to_ideal(f2) == a2
        g = reduce_form(f1)[0]
        assert ideal_to_form(form_to_ideal(g)) == g
    print("\nACCEPT 8 norm multiplicativity and round-trips: PASS (1000 pairs)")
