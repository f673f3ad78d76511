"""Primitive positive-definite binary quadratic forms of negative discriminant.

Reduction (with a determinant-1 change-of-variables witness), enumeration
of the reduced representatives, and Dirichlet/CRT composition: every pair,
concordant or not, composes in one closed form (Cohen Alg. 5.4.7), with no
repair step. _compose_ab is that composition on (a, b) integers, shared by
the class-group loop and Cayley table and tested against compose_crt on
every pair. Reduction and composition take O(log|d|) steps.
"""

from __future__ import annotations

import math

from .arith import DomainError, Discriminant, _Value, _check_same_disc, _xgcd

__all__ = [
    "BinaryForm",
    "reduce_form",
    "enumerate_reduced",
    "principal_form",
    "form_inverse",
    "is_equivalent",
    "compose_crt",
    "is_concordant",
    "coprime_equivalent",
]


class BinaryForm(_Value):
    """a*x^2 + b*xy + c*y^2, primitive, a > 0, b^2 - 4ac = d < 0."""

    # _ideal: the form's OrderIdeal, written only by ideals.form_to_ideal
    __slots__ = ("a", "b", "c", "disc", "_ideal")

    def __init__(self, a: int, b: int, c: int, disc: Discriminant):
        if type(a) is not int or type(b) is not int or type(c) is not int:
            raise DomainError(f"form coefficients must be integers, got ({a!r},{b!r},{c!r})")
        if b * b - 4 * a * c != disc.d:
            raise DomainError(
                f"form ({a},{b},{c}) has discriminant {b * b - 4 * a * c}, expected {disc.d}"
            )
        if a <= 0:
            raise DomainError(f"form ({a},{b},{c}) is not positive definite")
        if math.gcd(a, b, c) != 1:
            raise DomainError(f"form ({a},{b},{c}) is not primitive")
        self.a = a
        self.b = b
        self.c = c
        self.disc = disc
        self._ideal = None

    def triple(self) -> tuple[int, int, int]:
        return self.a, self.b, self.c

    def inverse(self) -> BinaryForm:
        return form_inverse(self)

    def _key(self):
        return self.a, self.b, self.c  # the triple fixes d

    def __repr__(self):
        return f"BinaryForm{self.triple()}"

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def reduce_form(f: BinaryForm):
    """(reduced form, witness): the witness is a determinant-1 matrix whose
    substitution carries f onto the reduced form.

    Classical reduction: normalize b into (-a, a], then swap while a > c
    (or a == c with b < 0). The unique reduced representative satisfies
    |b| <= a <= c with b >= 0 on the boundary cases. The witness
    ((p, q), (r, s)) is kept as four ints and updated at each step.
    """
    a, b, c = f.a, f.b, f.c
    p, q, r, s = 1, 0, 0, 1
    while True:
        k = (a - b) // (2 * a)
        if k:
            # x -> x + k*y
            q, s = q + k * p, s + k * r
            b, c = b + 2 * k * a, a * k * k + b * k + c
        if not (a > c or (a == c and b < 0)):
            return BinaryForm(a, b, c, f.disc), ((p, q), (r, s))
        # x -> y, y -> -x swaps the outer coefficients and negates b
        p, q, r, s = -q, p, -s, r
        a, b, c = c, -b, a


def principal_form(disc: Discriminant) -> BinaryForm:
    """The identity class: (1, b0, (b0^2 - d)/4) with b0 = d mod 2."""
    b0 = disc.d % 2
    return BinaryForm(1, b0, (b0 * b0 - disc.d) // 4, disc)


def form_inverse(f: BinaryForm) -> BinaryForm:
    return reduce_form(BinaryForm(f.a, -f.b, f.c, f.disc))[0]


def is_equivalent(f: BinaryForm, g: BinaryForm) -> bool:
    _check_same_disc(f.disc, g.disc)
    return reduce_form(f)[0] == reduce_form(g)[0]


def enumerate_reduced(disc: Discriminant) -> list[BinaryForm]:
    """All reduced primitive forms of the discriminant, sorted by (a, b).

    The list length is the class number h(d). Walks b = d (mod 2) with
    0 <= b <= sqrt(|d|/3) and, for each, the divisors a of q = (b^2 - d)/4
    in [b, sqrt(q)] (Cohen Alg. 5.3.5); (a, b, c) and (a, -b, c) are both
    reduced unless b = 0, b = a or a = c. An odd q has no even divisor, so
    then only odd a are tried. Every q is odd when d = 5 (mod 8) and every
    q is even when d = 1 (mod 8), which keeps the full scan; for 4 | d it
    depends on b.
    """
    d = disc.d
    out = []
    for b in range(d % 2, math.isqrt(-d // 3) + 1, 2):
        q = (b * b - d) // 4
        odd = q % 2
        # for odd q: the first odd a >= max(b, 1), then steps of 2
        for a in range(max(b, 1) | odd, math.isqrt(q) + 1, 1 + odd):
            if q % a:
                continue
            c = q // a
            if math.gcd(a, b, c) != 1:
                continue
            out.append((a, b, c))
            if 0 < b < a < c:
                out.append((a, -b, c))
    return [BinaryForm(a, b, c, disc) for a, b, c in sorted(out)]


def is_concordant(f: BinaryForm, g: BinaryForm) -> bool:
    """gcd(a, a', (b + b')/2) == 1: the pairs whose ideal product is primitive."""
    return math.gcd(f.a, math.gcd(g.a, (f.b + g.b) // 2)) == 1


def coprime_equivalent(g: BinaryForm, n: int) -> BinaryForm:
    """An equivalent form whose leading coefficient is coprime to n.

    Scans primitively-represented values g(x, y) over squares of growing
    radius and moves the first hit to the leading position by a
    determinant-1 substitution. A primitive form represents values coprime
    to any fixed nonzero modulus, so the scan terminates; n = 0 raises
    DomainError.
    """
    if not n:
        raise DomainError("coprime_equivalent needs a nonzero modulus")
    n = abs(n)
    if math.gcd(g.a, n) == 1:
        return g
    for r in range(1, 4 * n + 2):
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if max(abs(x), abs(y)) != r or math.gcd(x, y) != 1:
                    continue
                val = g.a * x * x + g.b * x * y + g.c * y * y
                if math.gcd(val, n) != 1:
                    continue
                _, s, t = _xgcd(x, y)
                # substitute the matrix ((x, -t), (y, s)) of determinant
                # x*s + y*t = 1: its first column moves val to the front
                a, b, c = g.a, g.b, g.c
                b2 = 2 * (c * y * s - a * x * t) + b * (x * s - y * t)
                return BinaryForm(val, b2, a * t * t - b * t * s + c * s * s, g.disc)
    raise AssertionError("primitive form failed to represent a coprime value")


def composition_b(a1: int, b1: int, a2: int, b2: int, d: int) -> int:
    """The composite's middle coefficient B, least non-negative modulo 2*a3,
    where a3 = a1*a2/e^2 and e = gcd(a1, a2, s) with s = (b1 + b2)/2.

    Closed form (Dirichlet's united forms, Cohen Alg. 5.4.7): two xgcds give
    g1 = x*a1 + y*a2 and e = p*g1 + w*s, and then
    B = (p*x*a1*b2 + p*y*a2*b1 + w*(b1*b2 + d)/2)/e. It is checked against
    the three linear congruences that fix it modulo 2*a3: (a1/e)*B = (a1/e)*b2,
    (a2/e)*B = (a2/e)*b1 and (s/e)*B = (b1*b2 + d)/(2e).
    """
    s = (b1 + b2) // 2
    g1, x, y = _xgcd(a1, a2)
    e, p, w = _xgcd(g1, s)
    h = (b1 * b2 + d) // 2
    mod = 2 * (a1 // e) * (a2 // e)
    bb = (p * x * a1 * b2 + p * y * a2 * b1 + w * h) // e % mod
    if (a1 // e) * (bb - b2) % mod or (a2 // e) * (bb - b1) % mod or (s * bb - h) // e % mod:
        raise AssertionError(
            f"no composite middle coefficient for ({a1},{b1}) and ({a2},{b2}) at d = {d}"
        )
    return bb


def compose_crt(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Composition via the congruence route, returned reduced: the composite
    (a*a'/e^2, B, (B^2 - d)/(4*a*a'/e^2)) of any pair, B from composition_b."""
    _check_same_disc(f.disc, g.disc)
    d = f.disc.d
    bb = composition_b(f.a, f.b, g.a, g.b, d)
    e = math.gcd(f.a, g.a, (f.b + g.b) // 2)
    aa = (f.a // e) * (g.a // e)
    raw = BinaryForm(aa, bb, (bb * bb - d) // (4 * aa), f.disc)
    return reduce_form(raw)[0]


def _compose_ab(a1, b1, a2, b2, d):
    """The reduced (a, b, c) in the class of (a1, b1) times (a2, b2) at
    discriminant d: compose_crt on integers, with no form or witness built.

    B comes from composition_b and a3 = a1*a2/e^2; the composite's c is
    (B^2 - d)/(4*a3), checked exact. The loop is reduce_form's without the
    witness.
    """
    b = composition_b(a1, b1, a2, b2, d)
    e = math.gcd(a1, a2, (b1 + b2) // 2)
    a = (a1 // e) * (a2 // e)
    c, r = divmod(b * b - d, 4 * a)
    if r:
        raise AssertionError(
            f"composite of ({a1},{b1}) and ({a2},{b2}) has no integral c at d = {d}"
        )
    while True:
        k = (a - b) // (2 * a)
        if k:
            b, c = b + 2 * k * a, a * k * k + b * k + c
        if not (a > c or (a == c and b < 0)):
            return a, b, c
        a, b, c = c, -b, a
