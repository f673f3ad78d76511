"""Exact arithmetic in imaginary quadratic orders.

An element is stored as (p + q*sqrt(d))/2 with p = q*d (mod 2); the set of
such elements is exactly the order of discriminant d, so addition,
multiplication and conjugation are closed and every norm and trace is a
plain integer. All integers are arbitrary precision and nothing rounds.

The module is also the home of the integer helpers every other module
uses: the extended gcd, the Baillie-PSW primality test and factorization.
"""

from __future__ import annotations

import math

__all__ = ["DomainError", "Discriminant", "QuadInt", "RHO_ITERATION_LIMIT", "factorize"]


class DomainError(ValueError):
    """An input violates a domain precondition (bad discriminant, mixed
    discriminants, imprimitive form, and so on)."""


# Integer helpers. Trial division handles everything desk scale, Brent's
# variant of Pollard rho the occasional large cofactor, and Baillie-PSW
# decides primality.

# The most Brent-rho iterations one factorize call takes, over all its
# cofactors; past it factorize raises DomainError. Rho finds a prime p in
# about sqrt(p) iterations: a product of two 13-digit primes took 1048574.
# On CPython 3.11, 2-CPU x86 Linux, an iteration took 0.3 us at 30 digits,
# 0.5 at 60, 0.8 at 100 and 1.7 at 200, so an accepted factorization ends
# in under about 10 s up to 200 digits (two factorizations of
# |d| = 10^60 + 3 had taken 574 s together).
RHO_ITERATION_LIMIT = 5_000_000


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong probable-prime test to base 2, then a strong
    Lucas test with Selfridge's parameters P = 1, Q = (1 - D)/4, D the
    first of 5, -7, 9, -11, ... with (D/n) = -1 (Baillie-Wagstaff, "Lucas
    pseudoprimes", Math. Comp. 35, 1980). No composite passing both is
    known, and there is none below 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n:  # no D exists for a square
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # U_k, V_k, Q^k by the binary ladder over n + 1 = d * 2^s, d odd
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_{k+1}, V_{k+1} = (U_k + V_k)/2, (D*U_k + V_k)/2, halved mod odd n
            u, v = u + v, D * u + v
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _brent_rho(n: int, spent: int) -> tuple[int, int]:
    """(g, spent + the iterations taken): g a proper factor of n, for n odd
    composite, not a square, with no factor below the trial-division bound.
    An iteration is one step y -> y*y + c (mod n); a round of r is charged
    its 2r steps (r moving x ahead, at most r more in batches) before it
    starts, and a round that would pass RHO_ITERATION_LIMIT raises."""
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        while g == 1:
            spent += 2 * r
            if spent > RHO_ITERATION_LIMIT:
                raise DomainError(
                    f"factoring a {n.bit_length()}-bit cofactor needs more than "
                    f"RHO_ITERATION_LIMIT = {RHO_ITERATION_LIMIT} Brent-rho iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, spent
        seed += 2


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as a dict {prime: exponent}; DomainError
    if it needs more than RHO_ITERATION_LIMIT Brent-rho iterations."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    stack = [n] if n > 1 else []
    spent = 0  # Brent-rho iterations, over every cofactor
    while stack:
        n = stack.pop()
        if _is_probable_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        root = math.isqrt(n)
        if root * root == n:
            stack += [root, root]
            continue
        g, spent = _brent_rho(n, spent)
        stack += [g, n // g]
    return dict(sorted(out.items()))


def _conductor_split(d: int) -> int:
    """The conductor f of d < 0: d = f**2 * dK with dK a fundamental
    discriminant, -k or -4k for k the squarefree part of |d|."""
    k = 1
    for p, e in factorize(d).items():
        if e % 2:
            k *= p
    dk = -k if -k % 4 == 1 else -4 * k
    f = math.isqrt(d // dk)
    if f * f * dk != d:
        raise AssertionError(f"d = {d} is not a square times {dk}")
    return f


class _Value:
    """Base of the value types: two values are equal when they have the same
    type and the same _key(), and the key is also what they hash by."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


class Discriminant(_Value):
    """A negative discriminant d = 0 or 1 (mod 4).

    Uniquely d = conductor**2 * fundamental; the conductor is computed
    lazily since most arithmetic only needs d itself. conductor == 1 means
    the maximal order.
    """

    # _norm_form: the order's binary norm form, written only by
    # normforms.principal_norm_form
    __slots__ = ("d", "_conductor", "_norm_form")

    def __init__(self, d: int):
        if type(d) is not int:
            raise DomainError(f"discriminant must be an integer, got {d!r}")
        if d >= 0:
            raise DomainError(f"discriminant must be negative, got {d}")
        if d % 4 not in (0, 1):
            raise DomainError(f"discriminant must be 0 or 1 mod 4, got {d}")
        self.d = d
        self._conductor = None
        self._norm_form = None

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            self._conductor = _conductor_split(self.d)
        return self._conductor

    @property
    def fundamental(self) -> int:
        return self.d // self.conductor**2

    def is_fundamental(self) -> bool:
        return self.conductor == 1

    def _key(self):
        return self.d

    def __repr__(self):
        return f"Discriminant({self.d})"


def _check_same_disc(a: Discriminant, b: Discriminant) -> None:
    if a.d != b.d:
        raise DomainError(f"discriminant mismatch: {a.d} vs {b.d}")


class QuadInt(_Value):
    """(p + q*sqrt(d))/2 with p = q*d (mod 2).

    The parity constraint makes trace p and norm (p^2 - q^2 d)/4 integers
    and the representation closed under ring operations. Values are
    immutable. An integer-valued element (q = 0) is the rational integer
    p/2: it equals that int and every integer-valued element of any order
    that equals it, so equality stays transitive; arithmetic across orders
    still raises DomainError.
    """

    __slots__ = ("p", "q", "disc")

    def __init__(self, p: int, q: int, disc: Discriminant):
        if type(p) is not int or type(q) is not int:
            raise DomainError(f"QuadInt needs integers p and q, got p={p!r}, q={q!r}")
        if (p - q * disc.d) % 2 != 0:
            raise DomainError(
                f"parity violation: p={p}, q={q} need p = q*d (mod 2) for d={disc.d}"
            )
        self.p = p
        self.q = q
        self.disc = disc

    @classmethod
    def from_int(cls, n: int, disc: Discriminant) -> QuadInt:
        return cls(2 * n, 0, disc)

    @classmethod
    def omega(cls, disc: Discriminant) -> QuadInt:
        """The module generator (d - sqrt(d))/2; (1, omega) spans the order."""
        return cls(disc.d, -1, disc)

    @classmethod
    def sqrt_disc(cls, disc: Discriminant) -> QuadInt:
        return cls(0, 2, disc)

    @classmethod
    def from_coords(cls, u: int, v: int, disc: Discriminant) -> QuadInt:
        """The element u*1 + v*omega."""
        return cls(2 * u + v * disc.d, -v, disc)

    def coords(self) -> tuple[int, int]:
        """Coordinates (u, v) over the integral basis (1, omega)."""
        return (self.p + self.q * self.disc.d) // 2, -self.q

    def _coerce(self, other):
        if isinstance(other, QuadInt):
            _check_same_disc(self.disc, other.disc)
            return other
        if isinstance(other, int):
            return QuadInt(2 * other, 0, self.disc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.p + o.p, self.q + o.q, self.disc)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.p - o.p, self.q - o.q, self.disc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadInt(-self.p, -self.q, self.disc)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.disc.d
        # (p1 + q1 s)(p2 + q2 s)/4 with s^2 = d; both halves are exact
        return QuadInt(
            (self.p * o.p + self.q * o.q * d) // 2,
            (self.p * o.q + self.q * o.p) // 2,
            self.disc,
        )

    __rmul__ = __mul__

    def norm(self) -> int:
        return (self.p * self.p - self.q * self.q * self.disc.d) // 4

    def trace(self) -> int:
        return self.p

    def conjugate(self) -> QuadInt:
        return QuadInt(self.p, -self.q, self.disc)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self):
        return not self.is_zero()

    def _key(self):
        return self.p // 2 if self.q == 0 else (self.p, self.q, self.disc.d)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._key() == other
        return _Value.__eq__(self, other)

    # defining __eq__ alone would set __hash__ to None
    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"QuadInt(p={self.p}, q={self.q}, d={self.disc.d})"

    def __str__(self):
        if self.q == 0:
            return str(self.p // 2)
        if abs(self.q) == 1:
            mid = "+" if self.q > 0 else "-"
            return f"({self.p}{mid}sqrt({self.disc.d}))/2"
        return f"({self.p}{self.q:+d}*sqrt({self.disc.d}))/2"
