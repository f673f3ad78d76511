import random

import pytest
import sympy

from quadgenus.arith import (
    Discriminant,
    DomainError,
    QuadInt,
    _conductor_split,
    _is_probable_prime,
    factorize,
)

from oracles import random_quadint


def test_discriminant_validation():
    with pytest.raises(DomainError):
        Discriminant(5)
    with pytest.raises(DomainError):
        Discriminant(0)
    with pytest.raises(DomainError):
        Discriminant(-5)
    with pytest.raises(DomainError):
        Discriminant(-6)
    Discriminant(-3)
    Discriminant(-4)


def test_discriminant_rejects_non_int():
    with pytest.raises(DomainError, match="integer"):
        Discriminant(-3.0)


@pytest.mark.parametrize(
    "d,f,dk",
    [
        (-3, 1, -3),
        (-4, 1, -4),
        (-20, 1, -20),
        (-23, 1, -23),
        (-12, 2, -3),
        (-16, 2, -4),
        (-27, 3, -3),
        (-32, 2, -8),
        (-48, 4, -3),
        (-63, 3, -7),
        (-99, 3, -11),
        (-147, 7, -3),
    ],
)
def test_conductor_split(d, f, dk):
    disc = Discriminant(d)
    assert disc.conductor == f
    assert disc.fundamental == dk
    assert Discriminant(d).fundamental == dk  # read before the conductor
    assert f * f * dk == d
    assert disc.is_fundamental() == (f == 1)


def test_conductor_split_checks_the_square_part():
    # -6 is no discriminant: its square part 1 cannot be halved
    with pytest.raises(AssertionError) as info:
        _conductor_split(-6)
    assert str(info.value) == "square part 1 of d = -6 must be even"


def test_conductor_split_random():
    rng = random.Random(1)
    for _ in range(200):
        d = -rng.randrange(3, 10**6)
        if d % 4 not in (0, 1):
            continue
        disc = Discriminant(d)
        f, dk = disc.conductor, disc.fundamental
        assert f * f * dk == d
        fund = Discriminant(dk)
        assert fund.conductor == 1


def test_factorize_against_sympy():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randrange(2, 10**9)
        assert factorize(n) == dict(sympy.factorint(n))
    assert factorize(1) == {}
    assert factorize(-12) == {2: 2, 3: 1}
    # a couple of larger composites for the rho path
    assert factorize(10**16 + 61) == dict(sympy.factorint(10**16 + 61))
    assert factorize((10**9 + 7) * (10**9 + 9)) == {10**9 + 7: 1, 10**9 + 9: 1}
    # rho's batched gcd overshoots to n, so it backtracks one step at a time
    assert factorize(249172201) == {13669: 1, 18229: 1}
    # the backtrack reaches n as well, so rho starts again from a new seed
    assert factorize(985254539) == {28549: 1, 34511: 1}


# composites that pass the strong test to the 12 prime bases 2..37
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


def test_factorize_psi_composites():
    assert factorize(PSI12) == {399165290221: 1, 798330580441: 1}
    assert factorize(PSI13) == {1287836182261: 1, 2575672364521: 1}


def test_primality_against_sympy():
    assert [n for n in range(200_000) if _is_probable_prime(n) != sympy.isprime(n)] == []
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randrange(2, 10 ** rng.randrange(2, 61))
        assert _is_probable_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to base 2 (the third to every prime base up to 31)
    # and Carmichael numbers
    for n in (2047, 3215031751, 3825123056546413051, 561, 41041, 321197185, PSI12, PSI13):
        assert not _is_probable_prime(n), n
    for p in (2**61 - 1, 2**127 - 1, 10**16 + 61):
        assert _is_probable_prime(p) and not _is_probable_prime(p * p)


def test_wieferich_squares_are_not_prime():
    # 1093^2 and 3511^2 are strong probable primes to base 2; only the
    # perfect-square exit rejects them, as no Selfridge D exists for a square
    for p in (1093, 3511):
        assert pow(2, p * p - 1, p * p) == 1
        assert not _is_probable_prime(p * p)


def test_factorize_square_cofactor_above_trial_bound():
    assert factorize(3 * 10007**2) == {3: 1, 10007: 2}


def test_parity_invariant_enforced():
    d = Discriminant(-23)
    with pytest.raises(DomainError):
        QuadInt(1, 0, d)  # 1/2 of odd trace is not in the order
    with pytest.raises(DomainError):
        QuadInt(0, 1, d)
    QuadInt(1, 1, d)
    QuadInt(2, 0, d)


def test_discriminant_mismatch():
    a = QuadInt.from_int(1, Discriminant(-23))
    b = QuadInt.from_int(1, Discriminant(-4))
    with pytest.raises(DomainError):
        a * b
    with pytest.raises(DomainError):
        a + b


def test_mul_identity():
    d = Discriminant(-23)
    one = QuadInt(2, 0, d)
    assert one == QuadInt.from_int(1, d)
    assert one * one == one
    w = QuadInt.omega(d)
    assert one * w == w * one == w


def test_omega_square_frozen():
    # ((-23 - sqrt(-23))/2)^2 = (506 + 46 sqrt(-23))/4 = (253 + 23 sqrt(-23))/2
    d = Discriminant(-23)
    w = QuadInt.omega(d)
    assert (w.p, w.q) == (-23, -1)
    ww = w * w
    assert (ww.p, ww.q) == (253, 23)
    # omega satisfies x^2 = d*x - (d^2-d)/4
    assert ww == w * (-23) - QuadInt.from_int(138, d)


def test_sqrt_disc_squares_to_d():
    for dv in (-4, -23, -84):
        d = Discriminant(dv)
        s = QuadInt.sqrt_disc(d)
        assert s * s == QuadInt.from_int(dv, d)
        assert (s * s).p == 2 * dv


def test_norm_trace_conj_examples():
    d = Discriminant(-23)
    one = QuadInt.from_int(1, d)
    assert (one.norm(), one.trace(), one.conjugate()) == (1, 2, one)

    w = QuadInt.omega(d)
    assert w.norm() == 138  # (d^2 - d)/4
    assert w.trace() == -23

    x = QuadInt(1, -1, d)  # (1 - sqrt(-23))/2
    assert x.norm() == 6
    assert x.trace() == 1


def test_ring_properties_random():
    rng = random.Random(3)
    for _ in range(300):
        dv = -rng.randrange(3, 500)
        if dv % 4 not in (0, 1):
            continue
        d = Discriminant(dv)
        x = random_quadint(rng, d, 30)
        y = random_quadint(rng, d, 30)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x + y).trace() == x.trace() + y.trace()
        assert x.conjugate().conjugate() == x
        assert x * x.conjugate() == QuadInt(2 * x.norm(), 0, d)
        # parity invariant survives the ring operations
        for z in (x + y, x - y, x * y, -x, x.conjugate()):
            assert (z.p - z.q * dv) % 2 == 0
        assert x.norm() >= 0  # definite


def test_coords_roundtrip():
    rng = random.Random(4)
    for _ in range(100):
        dv = -rng.randrange(3, 500)
        if dv % 4 not in (0, 1):
            continue
        d = Discriminant(dv)
        x = random_quadint(rng, d, 30)
        u, v = x.coords()
        assert QuadInt.from_coords(u, v, d) == x
        # explicit meaning: x = u + v*omega
        assert QuadInt.from_int(u, d) + QuadInt.omega(d) * v == x


def test_int_interop():
    d = Discriminant(-23)
    w = QuadInt.omega(d)
    assert 2 * w == w * 2 == w + w
    assert w + 1 == QuadInt(-21, -1, d)
    assert 1 - w == QuadInt(25, 1, d)
    assert QuadInt.from_int(7, d) == 7


def test_arithmetic_with_a_non_integer_raises():
    # _coerce takes QuadInt and int only; the operators then return
    # NotImplemented, and Python raises TypeError
    q = QuadInt.omega(Discriminant(-23))
    for op in (lambda: q + 1.5, lambda: q - 1.5, lambda: 1.5 - q, lambda: q * 1.5):
        with pytest.raises(TypeError):
            op()


def test_int_valued_equality_is_transitive():
    a = QuadInt.from_int(3, Discriminant(-23))
    b = QuadInt.from_int(3, Discriminant(-4))
    assert a == 3 == b and a == b and hash(a) == hash(b) == hash(3)
    assert len({a, 3, b}) == len({3, a, b}) == 1
    # elements that are not rational integers still differ across orders
    assert QuadInt(0, 2, Discriminant(-23)) != QuadInt(0, 2, Discriminant(-4))
    with pytest.raises(DomainError):
        a + b
