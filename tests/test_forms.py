import math
import random
import time

import pytest

import quadgenus.forms as forms_module
from quadgenus.arith import Discriminant, DomainError, _xgcd
from quadgenus.classgroup import class_group
from quadgenus.forms import (
    BinaryForm,
    compose_crt,
    composition_b,
    coprime_equivalent,
    enumerate_reduced,
    form_inverse,
    is_equivalent,
    principal_form,
    reduce_form,
)
from quadgenus.ideals import compose_via_matrices, form_to_ideal, ideal_mul, ideal_to_form
from quadgenus.lattice import mat_mul
from quadgenus.normforms import MultiQuadraticForm, form_action

from oracles import (
    count_reduced,
    discs,
    every_pair,
    form_near_sqrt,
    ideal_route,
    random_disc,
    recorder,
)

D23 = Discriminant(-23)


def bf(a, b, c, d=D23):
    return BinaryForm(a, b, c, d)


def test_constructor_rejects_bad_forms():
    with pytest.raises(DomainError, match="discriminant"):
        bf(1, 0, 1)
    with pytest.raises(DomainError, match="positive definite"):
        BinaryForm(-1, 1, -6, D23)
    with pytest.raises(DomainError, match="primitive"):
        BinaryForm(2, 2, 8, Discriminant(-60))


def test_reduce_examples():
    d4 = Discriminant(-4)
    assert reduce_form(BinaryForm(1, -4, 5, d4))[0].triple() == (1, 0, 1)
    assert reduce_form(bf(4, 5, 3))[0].triple() == (2, -1, 3)
    assert reduce_form(bf(1, 1, 6))[0].triple() == (1, 1, 6)


def test_reduce_witness_is_unimodular_and_exact():
    rng = random.Random(30)
    checked = 0
    while checked < 150:
        d = random_disc(rng, 2000)
        f = rng.choice(enumerate_reduced(d))
        # unreduce by a random substitution of determinant 1
        g = mat_mul(((1, rng.randrange(-5, 6)), (0, 1)), ((1, 0), (rng.randrange(-5, 6), 1)))
        mf = MultiQuadraticForm.from_binary_triple(*f.triple(), d)
        messy_triple = form_action(g, mf).binary_triple()
        messy = BinaryForm(*messy_triple, d)
        r, w = reduce_form(messy)
        assert r == f  # unique reduced representative
        assert w[0][0] * w[1][1] - w[0][1] * w[1][0] == 1
        acted = form_action(w, MultiQuadraticForm.from_binary_triple(*messy.triple(), d))
        assert acted.binary_triple() == r.triple()
        # idempotent
        r2, w2 = reduce_form(r)
        assert r2 == r and w2 == ((1, 0), (0, 1))
        checked += 1


def test_enumerate_examples():
    assert [f.triple() for f in enumerate_reduced(Discriminant(-4))] == [(1, 0, 1)]
    assert [f.triple() for f in enumerate_reduced(D23)] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert [f.triple() for f in enumerate_reduced(Discriminant(-84))] == [
        (1, 0, 21),
        (2, 2, 11),
        (3, 0, 7),
        (5, 4, 5),
    ]


def test_class_number_against_bruteforce():
    for dv in discs(299):
        assert len(enumerate_reduced(Discriminant(dv))) == count_reduced(dv)


def _enumerate_reduced_scan(disc):
    # the a-major (a, b) scan enumerate_reduced used before its b-major
    # loop, kept as an oracle for the exact output order
    d = disc.d
    out = []
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2:
                continue
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            out.append((a, b, c))
    return out


def test_enumerate_matches_ab_scan(class_groups):
    # class_group's elements are enumerate_reduced's list, as it is
    assert [g.disc.d for g in class_groups] == discs(6000)
    for g in class_groups:
        assert [f.triple() for f in g.elements] == _enumerate_reduced_scan(g.disc), g.disc.d


def test_classical_class_numbers():
    known = {-3: 1, -4: 1, -23: 3, -47: 5, -71: 7, -84: 4, -163: 1, -20: 2}
    for dv, h in known.items():
        assert len(enumerate_reduced(Discriminant(dv))) == h


def test_enumeration_limit_at_its_edge(monkeypatch):
    # with the limit patched down to 100, d = -100 sits on it and -103 is
    # the next discriminant past it; class_group enumerates through it
    monkeypatch.setattr(forms_module, "ENUMERATION_LIMIT", 100)
    assert len(enumerate_reduced(Discriminant(-100))) == count_reduced(-100) == 2
    assert class_group(Discriminant(-100)).h == 2
    for run in (enumerate_reduced, class_group):
        with pytest.raises(DomainError) as info:
            run(Discriminant(-103))
        assert str(info.value) == "|d| = 103 is past the enumeration limit |d| <= 100"


def test_principal_inverse_equivalent():
    assert principal_form(Discriminant(-4)).triple() == (1, 0, 1)
    assert principal_form(D23).triple() == (1, 1, 6)
    assert form_inverse(bf(2, 1, 3)).triple() == (2, -1, 3)
    assert is_equivalent(bf(4, 5, 3), bf(2, -1, 3))
    assert not is_equivalent(bf(2, 1, 3), bf(2, -1, 3))
    with pytest.raises(DomainError):
        is_equivalent(bf(2, 1, 3), principal_form(Discriminant(-4)))


def test_compose_identity():
    for f in enumerate_reduced(D23):
        assert compose_crt(f, principal_form(D23)) == f
        assert compose_crt(principal_form(D23), f) == f


def test_compose_square_and_inverse_pair():
    f, g = bf(2, 1, 3), bf(2, -1, 3)
    assert compose_crt(f, f).triple() == (2, -1, 3)
    # the inverse pair is not concordant (gcd(2, 2, 0) = 2); the closed
    # form composes it all the same, with e = 2
    assert math.gcd(f.a, g.a, (f.b + g.b) // 2) == 2
    assert compose_crt(f, g).triple() == (1, 1, 6)


def test_coprime_equivalent():
    rng = random.Random(31)
    checked = 0
    while checked < 80:
        f = rng.choice(enumerate_reduced(random_disc(rng, 3000)))
        n = rng.randrange(2, 10**6)
        g = coprime_equivalent(f, n)
        assert math.gcd(g.a, n) == 1
        assert is_equivalent(f, g)
        checked += 1


def test_coprime_equivalent_skips_values_sharing_a_factor():
    # on the square of radius 1, (2, 1, 3) at d = -23 takes only the values
    # 2, 3, 4 and 6, each sharing a factor with 6; the scan moves on to 13
    f = bf(2, 1, 3)
    g = coprime_equivalent(f, 6)
    assert g.triple() == (13, -9, 2)
    assert math.gcd(g.a, 6) == 1
    assert is_equivalent(f, g)


def test_coprime_equivalent_rejects_zero_modulus():
    # only +-1 is coprime to 0, so a zero modulus is refused, even for the
    # principal form, whose leading 1 would pass the gcd test
    for f in (bf(2, 1, 3), bf(1, 1, 6)):
        with pytest.raises(DomainError, match="nonzero modulus"):
            coprime_equivalent(f, 0)


def test_group_laws_small_range():
    for dv in discs(299):
        d = Discriminant(dv)
        forms = enumerate_reduced(d)
        index = {f.triple() for f in forms}
        e = principal_form(d)
        for f in forms:
            assert compose_crt(f, form_inverse(f)) == e
            for g in forms:
                assert compose_crt(f, g).triple() in index  # closure
        # associativity, exhaustive at this size
        for f in forms:
            for g in forms:
                fg = compose_crt(f, g)
                for k in forms:
                    assert compose_crt(fg, k) == compose_crt(f, compose_crt(g, k))


def test_crt_matches_ideal_route_random():
    rng = random.Random(32)
    checked = 0
    while checked < 200:
        forms = enumerate_reduced(random_disc(rng, 5000))
        f, g = rng.choice(forms), rng.choice(forms)
        assert compose_crt(f, g) == ideal_route(f, g)
        checked += 1


def _composition_b_by_search(a1, b1, a2, b2, d):
    # reference: CRT for B = b1 (mod 2*a1/e) and B = b2 (mod 2*a2/e), then
    # scan the lifts modulo 2*a3 = 2*a1*a2/e^2 for those with
    # (s/e)*B = (b1*b2 + d)/(2e) (mod 2*a3); exactly one must be left
    s = (b1 + b2) // 2
    e = math.gcd(a1, a2, s)
    m1, m2 = 2 * a1 // e, 2 * a2 // e
    g, x, _ = _xgcd(m1, m2)
    assert (b2 - b1) % g == 0
    lcm = m1 // g * m2
    b0 = (b1 + (b2 - b1) // g * x % (m2 // g) * m1) % lcm
    mod = 2 * (a1 // e) * (a2 // e)
    rhs = (b1 * b2 + d) // (2 * e)
    candidates = [bb for bb in range(b0, mod, lcm) if (s // e * bb - rhs) % mod == 0]
    assert len(candidates) == 1, candidates
    assert (candidates[0] ** 2 - d) % (2 * mod) == 0
    return candidates[0]


def test_composition_b_matches_search():
    pairs = 0
    for f, g in every_pair(discs(2000)):
        dv = f.disc.d
        e = math.gcd(f.a, g.a, (f.b + g.b) // 2)
        expected = f.a * g.a // (e * e), _composition_b_by_search(f.a, f.b, g.a, g.b, dv)
        assert composition_b(f.a, f.b, g.a, g.b, dv) == expected, (dv, f, g)
        pairs += 1
    assert pairs == 240907


def test_a_coprime_pair_needs_one_xgcd(monkeypatch):
    # gcd(a1, a2) = 1 gives e = 1 with no second xgcd
    counted = recorder(forms_module._xgcd)
    monkeypatch.setattr(forms_module, "_xgcd", counted)
    seen = set()
    for f, g in every_pair(discs(300)):
        counted.calls.clear()
        composition_b(f.a, f.b, g.a, g.b, f.disc.d)
        coprime = math.gcd(f.a, g.a) == 1
        assert len(counted.calls) == (1 if coprime else 2), (f, g)
        seen.add(coprime)
    assert seen == {True, False}


def _cohen_composite(a1, b1, a2, b2, d):
    # Cohen Alg. 5.4.7 as written, with both extended gcds
    s = (b1 + b2) // 2
    g1, x, y = _xgcd(a1, a2)
    e, p, w = _xgcd(g1, s)
    a3 = a1 * a2 // (e * e)
    return a3, (p * x * a1 * b2 + p * y * a2 * b1 + w * ((b1 * b2 + d) // 2)) // e % (2 * a3)


def _coprime_pair(rng, digits, s):
    """(a1, b1, a2, b2, d), two primitive forms with gcd(a1, a2) = 1 and
    (b1 + b2)/2 = s at a d of the given number of digits, seldom reduced:
    d = b1^2 - 4*a1*c1 with a1*c1 = -s*(s - b1) (mod a2), so that a2
    divides (b2^2 - d)/4 = s*(s - b1) + a1*c1."""
    size = 10 ** (digits // 4)
    while True:
        a1, a2 = rng.randrange(size, 10 * size), rng.randrange(size, 10 * size)
        if math.gcd(a1, a2) != 1:
            continue
        b1 = rng.randrange(-a1 + 1, a1 + 1)
        b2 = 2 * s - b1
        c1 = -s * (s - b1) * pow(a1, -1, a2) % a2 + a2 * rng.randrange(10 ** (digits // 2))
        d = b1 * b1 - 4 * a1 * c1
        c2, r = divmod(b2 * b2 - d, 4 * a2)
        assert r == 0
        if len(str(-d)) == digits and math.gcd(a1, b1, c1) == math.gcd(a2, b2, c2) == 1:
            return a1, b1, a2, b2, d


def test_coprime_composite_matches_cohen_formula():
    # the one-xgcd shortcut against the formula with both, at 20 and 40
    # digits: at s = -2, -1 and 1, where _xgcd(1, s) is not (1, 1, 0), and
    # at s < -2, s = 0 and s >= 2, where it is
    rng = random.Random(29)
    for digits in (20, 40):
        for _ in range(30):
            for s in (-rng.randrange(3, 10**6), -2, -1, 0, 1, 2, rng.randrange(3, 10**6)):
                a1, b1, a2, b2, d = _coprime_pair(rng, digits, s)
                assert composition_b(a1, b1, a2, b2, d) == _cohen_composite(a1, b1, a2, b2, d)


def test_composition_b_non_concordant_examples():
    # (2,1,3) times its inverse at d = -23, e = 2: the composite is (1,1,6)
    assert composition_b(2, 1, 2, -1, -23) == (1, 1)
    # (4,-2,5) squared at d = -76, e = 2: B = 6 also meets B = b (mod 2a)
    # and B^2 = d (mod 4*a3), but (4,6,7) is the inverse class
    assert composition_b(4, -2, 4, -2, -76) == (4, 2)


def test_composition_b_checks_its_congruences(monkeypatch):
    # a cofactor that breaks Bezout's identity gives a B that fails them
    real = forms_module._xgcd

    def skewed(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    monkeypatch.setattr(forms_module, "_xgcd", skewed)
    with pytest.raises(AssertionError) as info:
        composition_b(2, 1, 2, 1, -23)
    assert str(info.value) == "no composite middle coefficient for (2,1) and (2,1) at d = -23"


@pytest.mark.parametrize(
    "a1,b1,a2,b2,d,composite",
    [(2, -1, 4, 1, -63, (2, 1)), (4, 1, 2, -1, -63, (2, 1)), (4, -2, 4, -2, -76, (4, 2))],
    ids=["a1-term", "a2-term", "s-term"],
)
def test_composition_b_checks_each_congruence(monkeypatch, a1, b1, a2, b2, d, composite):
    # e = 2 in each pair. Cofactors of -e from the second xgcd give B = 3, 3
    # and 6, which only the congruence named by the id rejects; that term,
    # multiplying by e where it divides, would accept it
    assert composition_b(a1, b1, a2, b2, d) == composite
    real = forms_module._xgcd
    calls = []

    def negated_second(a, b):
        g, x, y = real(a, b)
        calls.append(g)
        return (g, -x, -y) if len(calls) == 2 else (g, x, y)

    monkeypatch.setattr(forms_module, "_xgcd", negated_second)
    with pytest.raises(AssertionError) as info:
        composition_b(a1, b1, a2, b2, d)
    assert str(info.value) == (
        f"no composite middle coefficient for ({a1},{b1}) and ({a2},{b2}) at d = {d}"
    )


def test_crt_and_ideal_routes_agree_before_reduction():
    # every ordered pair, concordant or not: ideal_mul's content is e and its
    # ideal is the CRT composite (a*a'/e^2, B, (B^2 - d)/(4*a*a'/e^2))
    pairs = 0
    for f, g in every_pair(discs(1000)):
        dv = f.disc.d
        e = math.gcd(f.a, g.a, (f.b + g.b) // 2)
        a3, bb = composition_b(f.a, f.b, g.a, g.b, dv)
        content, prod = ideal_mul(form_to_ideal(f), form_to_ideal(g))
        assert content == e, (dv, f, g)
        assert ideal_to_form(prod).triple() == (a3, bb, (bb * bb - dv) // (4 * a3))
        pairs += 1
    assert pairs > 50000


@pytest.mark.parametrize("digits", [50, 200])
def test_large_discriminant_composition(digits):
    t0 = time.monotonic()
    rng = random.Random(digits)
    f = form_near_sqrt(rng, digits)
    d = f.disc
    f2 = compose_crt(f, f)
    f3 = compose_crt(f2, f)
    assert compose_crt(f3, form_inverse(f3)) == principal_form(d)
    assert compose_crt(form_inverse(f2), f3) == reduce_form(f)[0]
    for g, h in ((f, f), (f2, f), (f3, form_inverse(f))):
        crt = compose_crt(g, h)
        assert compose_via_matrices(g, h) == crt
        assert ideal_route(g, h) == crt
    # unreduce by a large determinant-1 substitution, then reduce back
    k1, k2 = rng.randrange(-10**20, 10**20), rng.randrange(-10**20, 10**20)
    g = ((1 + k1 * k2, k1), (k2, 1))
    mf = MultiQuadraticForm.from_binary_triple(*f.triple(), d)
    messy = BinaryForm(*form_action(g, mf).binary_triple(), d)
    r, w = reduce_form(messy)
    assert r == reduce_form(f)[0]
    assert w[0][0] * w[1][1] - w[0][1] * w[1][0] == 1
    acted = form_action(w, MultiQuadraticForm.from_binary_triple(*messy.triple(), d))
    assert acted.binary_triple() == r.triple()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"{digits}-digit composition took {elapsed:.1f}s"
