"""Z-lattices inside a quadratic order, presented by generator tuples.

A tuple (a_1, ..., a_m) of order elements stands for the linear polynomial
a_1*z_1 + ... + a_m*z_m and spans a sublattice of the order. All lattice
work happens in exact integer coordinates over the basis (1, omega),
omega = (d - sqrt(d))/2: the canonical basis is the 2-column Hermite
normal form of the generators' coordinate rows (Cohen, GTM 138, 2.4.2),
which hnf_basis and contains take in closed form from one Bezout pass and
one gcd. Only solve_transform, which needs the generator combination behind
each basis row, reduces rows [u, v, c_1, ..., c_m] by row operations.
contains and solve_transform share one back-substitution against the basis.

Integer matrices act on the variables: row j of a matrix h is the image of
z_j, so a transform sends the coefficient tuple (a_1, ..., a_m) to the
tuple with b_i = sum_j a_j * h[j][i]. Composing "first g, then h" is the
matrix product g @ h (see mat_mul).
"""

from __future__ import annotations

import math

from .arith import DomainError, Discriminant, QuadInt, _Value, _check_same_disc, _xgcd

__all__ = [
    "GenTuple",
    "ZModuleBasis",
    "hnf_basis",
    "contains",
    "solve_transform",
    "apply_transform",
    "modules_equal",
    "module_mul",
    "identity_matrix",
    "mat_mul",
]


class GenTuple(_Value):
    """Ordered tuple of quadratic integers sharing one discriminant.

    Zero coefficients are allowed and meaningful (they pad shorter tuples
    up to a common variable count).
    """

    __slots__ = ("coeffs", "disc")

    def __init__(self, coeffs, disc: Discriminant | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("generator tuple needs at least one coefficient")
        for c in coeffs:
            if not isinstance(c, QuadInt):
                raise DomainError(f"generator tuple entry {c!r} is not a QuadInt")
            if disc is None:
                disc = c.disc
            _check_same_disc(disc, c.disc)
        self.coeffs = coeffs
        self.disc = disc

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple([c.coords() for c in self.coeffs])

    def padded(self, m: int) -> GenTuple:
        """Extend with zero coefficients up to m variables."""
        if type(m) is not int:
            raise DomainError(f"variable count must be an integer >= 1, got {m!r}")
        if m < self.m:
            raise DomainError(f"cannot pad {self.m} generators down to {m}")
        if m == self.m:
            return self
        zero = QuadInt(0, 0, self.disc)
        return GenTuple(self.coeffs + (zero,) * (m - self.m), self.disc)

    def _key(self):
        return self.disc.d, self.coeffs

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"GenTuple[{inner}; d={self.disc.d}]"


class ZModuleBasis(_Value):
    """Canonical triangular basis of the lattice a generator tuple spans.

    Stored as integer coordinate rows (u, v), each the element u + v*omega:
    rank 2: rows (n, 0) and (u, v) with n > 0, v > 0, 0 <= u < n.
    rank 1: the single row is sign-normalized (v > 0, or u > 0 when v = 0).
    rank 0: no rows. Equal lattices yield identical bases.
    """

    __slots__ = ("disc", "_coords")

    def __init__(self, disc: Discriminant, coords: tuple[tuple[int, int], ...]):
        self.disc = disc
        self._coords = coords

    @property
    def rank(self) -> int:
        return len(self._coords)

    @property
    def rows(self) -> tuple[QuadInt, ...]:
        return tuple(QuadInt.from_coords(u, v, self.disc) for u, v in self._coords)

    def coord_rows(self) -> tuple[tuple[int, int], ...]:
        return self._coords

    def _key(self):
        return self.disc.d, self._coords

    def __repr__(self):
        inner = ", ".join(str(r) for r in self.rows)
        return f"ZModuleBasis[{inner}; d={self.disc.d}]"


def _comb(x, r, y, s):
    """The row combination x*r + y*s."""
    return [x * a + y * b for a, b in zip(r, s)]


def _hnf_core(rows):
    """Triangular basis (int_row, omega_row) of rows [u, v, ...].

    Row [u, v, ...] is the element u + v*omega; columns after u and v are
    combined along with it (solve_transform keeps provenance there).
    int_row = [n, 0, ...] spans L intersect Z (n > 0); omega_row has the
    least positive v, and 0 <= u < n when n > 0. A missing row is all zeros.
    """
    int_row = omega_row = [0] * len(rows[0])
    for row in rows:
        v = row[1]
        if v:
            v0 = omega_row[1]
            if not v0:
                omega_row = row
                continue
            g, x, y = _xgcd(v0, v)
            # the gcd row replaces omega_row; (v/g)*omega_row - (v0/g)*row
            # has zero omega-part and joins the integer part
            merged = _comb(x, omega_row, y, row)
            row = _comb(v // g, omega_row, -(v0 // g), row)
            omega_row = merged
        if row[0]:
            # Z*n + Z*u = Z*g (g = |u| while n = 0): the gcd row spans L intersect Z
            g, x, y = _xgcd(int_row[0], row[0])
            int_row = _comb(x, int_row, y, row)
    # v > 0, then u reduced modulo n
    sign = -1 if omega_row[1] < 0 else 1
    k = sign * omega_row[0] // int_row[0] if int_row[0] else 0
    return int_row, _comb(sign, omega_row, -k, int_row)


def _basis_rows(coords):
    """Triangular basis rows (n, 0) and (u, g) of the coordinate rows
    (u_i, v_i), in closed form; a missing row is (0, 0).

    g = gcd(v_i) and (u, g) is the rows' Bezout combination; every row
    minus (v_i/g)*(u, g) lies on the integer axis, so those differences
    span L intersect Z = nZ, and u is reduced modulo n when n > 0.
    """
    u = g = 0
    for ui, vi in coords:
        if vi:
            g, x, y = _xgcd(g, vi)
            u = x * u + y * ui
    if not g:
        return (math.gcd(*[ui for ui, _ in coords]), 0), (0, 0)
    n = 0
    for ui, vi in coords:
        n = math.gcd(n, ui - vi // g * u)
    return (n, 0), (u % n if n else u, g)


def hnf_basis(x: GenTuple) -> ZModuleBasis:
    """Canonical triangular basis of the lattice x spans."""
    # the integer row first, like the usual [a, xi] ideal notation
    rows = _basis_rows(x.coords())
    return ZModuleBasis(x.disc, tuple(r for r in rows if r[0] or r[1]))


def _back_substitute(int_row, omega_row, target):
    """(k1, k2) with k1*int_row + k2*omega_row = target in (u, v), or None."""
    s, t = target
    k2 = 0
    if omega_row[1]:
        k2, t = divmod(t, omega_row[1])
        s -= k2 * omega_row[0]
    k1 = 0
    if int_row[0]:
        k1, s = divmod(s, int_row[0])
    return None if s or t else (k1, k2)


def contains(x: GenTuple, y: GenTuple) -> bool:
    """True iff the lattice of y lies inside the lattice of x."""
    _check_same_disc(x.disc, y.disc)
    int_row, omega_row = _basis_rows(x.coords())
    return all(_back_substitute(int_row, omega_row, c) is not None for c in y.coords())


def solve_transform(x: GenTuple, y: GenTuple) -> tuple[tuple[int, ...], ...]:
    """Integer matrix h with apply_transform(h, x) == y, coefficient-exact.

    Tuples of unequal length are padded with zero coefficients up to the
    larger variable count. The solution is canonical: each target is
    back-substituted against the triangular basis and every coordinate the
    basis does not touch stays zero. Raises DomainError("not a submodule")
    when y is not contained in x.
    """
    _check_same_disc(x.disc, y.disc)
    m = max(x.m, y.m)
    rows = [[u, v] + [0] * m for u, v in x.coords()]
    for j, row in enumerate(rows):
        row[2 + j] = 1
    int_row, omega_row = _hnf_core(rows)
    cols = []
    for c in y.padded(m).coords():
        k = _back_substitute(int_row, omega_row, c)
        if k is None:
            raise DomainError("not a submodule")
        cols.append(_comb(k[0], int_row, k[1], omega_row)[2:])
    return tuple(zip(*cols))


def check_matrix(h, m: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Validate a square integer matrix, optionally of fixed size m."""
    try:
        rows = tuple(tuple(row) for row in h)
    except TypeError:  # not a list of rows
        raise DomainError("transform matrix must be square") from None
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise DomainError("transform matrix must be square")
    if m is not None and size != m:
        raise DomainError(f"dimension mismatch: {size}x{size} matrix on {m} variables")
    if any(type(e) is not int for r in rows for e in r):
        raise DomainError("transform matrix entries must be integers")
    return rows


def apply_transform(h, x: GenTuple) -> GenTuple:
    """Substitute z_j -> sum_i h[j][i] z_i in the linear polynomial of x."""
    rows = check_matrix(h, x.m)
    coords = x.coords()
    out = []
    for col in zip(*rows):
        u = sum(e * cu for e, (cu, _) in zip(col, coords))
        v = sum(e * cv for e, (_, cv) in zip(col, coords))
        out.append(QuadInt.from_coords(u, v, x.disc))
    return GenTuple(out, x.disc)


def modules_equal(x: GenTuple, y: GenTuple) -> bool:
    """True iff x and y span the same lattice (identical canonical bases)."""
    _check_same_disc(x.disc, y.disc)
    return hnf_basis(x) == hnf_basis(y)


def module_mul(x: GenTuple, y: GenTuple) -> GenTuple:
    """Generator tuple of all pairwise products a_i * b_j (row-major)."""
    _check_same_disc(x.disc, y.disc)
    return GenTuple([a * b for a in x.coeffs for b in y.coeffs], x.disc)


def identity_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """Matrix product a @ b; composes substitutions "first a, then b"."""
    a = check_matrix(a)
    b = check_matrix(b, len(a))
    m = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
        for i in range(m)
    )
