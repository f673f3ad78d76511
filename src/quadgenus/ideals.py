"""Proper invertible ideals of a quadratic order in standard basis form.

An ideal is a*Z + ((-b + sqrt(d))/2)*Z with c = (b^2-d)/(4a) an integer
and gcd(a, b, c) = 1 (the ideal keeps c); its linear polynomial is
a*x1 + ((b - sqrt(d))/2)*x2 (same lattice, fixed sign convention).
b only matters modulo 2a, so equality compares (a, b mod 2a).

The form <-> ideal dictionary (a, b, c) <-> [a, b] is written down in both
directions (Cohen, GTM 138, 5.2), so the ideal route's own work is the
lattice product in ideal_mul and the basis rows it reads off. The module
also carries the explicit matrix composition pipeline: h moving the order
onto an ideal, the tau pair moving two ideals onto e times their product
(e = gcd(a, a', (b + b')/2)), and binary form composition of any pair by one
upper-triangular substitution, h @ tau1, into the order's norm form, with no
repair step.
"""

from __future__ import annotations

import math

from .arith import DomainError, Discriminant, QuadInt, _Value, _check_same_disc
from .forms import BinaryForm, composition_b, reduce_form
from .lattice import GenTuple, _basis_rows, module_mul
from .normforms import principal_norm_form

__all__ = [
    "OrderIdeal",
    "form_to_ideal",
    "ideal_to_form",
    "ideal_mul",
    "h_alpha",
    "tau_pair",
    "compose_via_matrices",
]


class OrderIdeal(_Value):
    """Standard-basis ideal [a, (-b + sqrt(d))/2] of the order of
    discriminant d; c = (b^2 - d)/4a is kept from the validity check."""

    # _gens: the generator tuple that gen_tuple builds once and keeps
    __slots__ = ("a", "b", "c", "disc", "_gens")

    def __init__(self, a: int, b: int, disc: Discriminant):
        if type(a) is not int or type(b) is not int:
            raise DomainError(f"ideal entries must be integers, got [{a!r}, {b!r}]")
        if a <= 0:
            raise DomainError(f"ideal needs a > 0, got {a}")
        c, rem = divmod(b * b - disc.d, 4 * a)
        if rem:
            raise DomainError(f"invalid ideal [{a}, {b}]: b^2 - d not divisible by 4a")
        if math.gcd(a, b, c) != 1:
            raise DomainError(f"invalid ideal [{a}, {b}]: not proper/invertible")
        self.a = a
        self.b = b
        self.c = c
        self.disc = disc
        self._gens = None

    def gen_tuple(self) -> GenTuple:
        """The linear polynomial a*x1 + ((b - sqrt(d))/2)*x2, built on first
        use and kept."""
        if self._gens is None:
            self._gens = GenTuple(
                (QuadInt.from_int(self.a, self.disc), QuadInt(self.b, -1, self.disc)),
                self.disc,
            )
        return self._gens

    def conjugate(self) -> OrderIdeal:
        return OrderIdeal(self.a, -self.b, self.disc)

    def norm(self) -> int:
        return self.a

    def _key(self):
        return self.a, self.b % (2 * self.a), self.disc.d

    def __repr__(self):
        return f"OrderIdeal(a={self.a}, b={self.b}, d={self.disc.d})"

    def __str__(self):
        return f"[{self.a}, ({-self.b}+sqrt({self.disc.d}))/2]"


def form_to_ideal(f: BinaryForm) -> OrderIdeal:
    """The form's class as a standard-basis ideal: (a, b, c) -> [a, b],
    built on first use and kept on the form."""
    if f._ideal is None:
        f._ideal = OrderIdeal(f.a, f.b, f.disc)
    return f._ideal


def ideal_to_form(alpha: OrderIdeal) -> BinaryForm:
    """[a, b] -> (a, b, c), the inverse of form_to_ideal; the norm form of
    the ideal's linear polynomial is a times this form (Cohen §5.2)."""
    return BinaryForm(alpha.a, alpha.b, alpha.c, alpha.disc)


def ideal_mul(alpha: OrderIdeal, beta: OrderIdeal) -> tuple[int, OrderIdeal]:
    """Product as (content, primitive standard-basis ideal).

    The product lattice is content * [a, (-b+sqrt(d))/2]; the content is 1
    exactly in the concordant cases (for example alpha * conj(alpha) is
    norm(alpha) times the order). Output b is the least non-negative
    residue modulo 2a; the basis rows are read straight off _basis_rows.
    """
    prod = module_mul(alpha.gen_tuple(), beta.gen_tuple())
    (n, _), (u, v) = _basis_rows(prod.coords())
    if not n or not v:
        raise AssertionError("ideal product degenerated")
    if n % v or u % v:
        raise AssertionError("ideal product is not an ideal")
    content = v
    a = n // v
    d = alpha.disc.d
    b = (2 * (u // v) + d) % (2 * a)
    return content, OrderIdeal(a, b, alpha.disc)


def h_alpha(alpha: OrderIdeal):
    """The matrix [[a, (b-d)/2], [0, 1]] carrying the order's generator
    tuple (1, omega) exactly onto the ideal's."""
    return ((alpha.a, (alpha.b - alpha.disc.d) // 2), (0, 1))


def tau_pair(alpha: OrderIdeal, beta: OrderIdeal):
    """(tau1, tau2, B, k1, k2) moving both ideals onto e times their product.

    With e = gcd(a, a', (b + b')/2) the product is e*[a*a'/e^2, B] (Cohen
    §5.4), B least non-negative modulo 2*a*a'/e^2. Then
    b + 2*k1*a/e = b' + 2*k2*a'/e = B, tau1 = [[a'/e, k1], [0, e]] and
    tau2 = [[a/e, k2], [0, e]]; e = 1 on concordant pairs.
    """
    _check_same_disc(alpha.disc, beta.disc)
    e = math.gcd(alpha.a, beta.a, (alpha.b + beta.b) // 2)
    bb = composition_b(alpha.a, alpha.b, beta.a, beta.b, alpha.disc.d)[1]
    k1, r1 = divmod(bb - alpha.b, 2 * alpha.a // e)
    k2, r2 = divmod(bb - beta.b, 2 * beta.a // e)
    if r1 or r2:
        raise AssertionError("composite B is not b (mod 2a/e) and b' (mod 2a'/e)")
    tau1 = ((beta.a // e, k1), (0, e))
    tau2 = ((alpha.a // e, k2), (0, e))
    return tau1, tau2, bb, k1, k2


def compose_via_matrices(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Composition via matrix substitution into the order's norm form.

    Multiplies h_alpha @ tau1 = e*[[a*a'/e^2, (B-d)/2], [0, 1]] into
    ((p, q), (0, s)), writes x -> p*x + q*y, y -> s*y out on the order's
    norm form (A, B, C), divides by a*a' (exactly), and reduces.
    """
    disc = f.disc
    alpha = form_to_ideal(f)
    beta = form_to_ideal(g)
    (hp, hq), (_, hs) = h_alpha(alpha)
    (tp, tq), (_, ts) = tau_pair(alpha, beta)[0]
    p, q, s = hp * tp, hp * tq + hq * ts, hs * ts
    A, B, C = principal_norm_form(disc).binary_triple()
    x0 = A * p * p
    x1 = (2 * A * q + B * s) * p
    x2 = A * q * q + B * q * s + C * s * s
    aa = f.a * g.a
    if x0 % aa or x1 % aa or x2 % aa:
        raise AssertionError("matrix composition not divisible by aa'")
    return reduce_form(BinaryForm(x0 // aa, x1 // aa, x2 // aa, disc))[0]
