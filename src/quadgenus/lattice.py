"""Z-lattices inside a quadratic order, presented by generator tuples.

A tuple (a_1, ..., a_m) of order elements stands for the linear polynomial
a_1*z_1 + ... + a_m*z_m and spans a sublattice of the order. All lattice
work happens in exact integer coordinates over the basis (1, omega),
omega = (d - sqrt(d))/2.

Integer matrices act on the variables: row j of a matrix h is the image of
z_j, so a transform sends the coefficient tuple (a_1, ..., a_m) to the
tuple with b_i = sum_j a_j * h[j][i]. Composing "first g, then h" is the
matrix product g @ h (see mat_mul).
"""

from __future__ import annotations

from .arith import DomainError, Discriminant, QuadInt, _check_same_disc

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
    "check_matrix",
]


class GenTuple:
    """Ordered tuple of quadratic integers sharing one discriminant.

    Zero coefficients are allowed and meaningful (they pad shorter tuples
    up to a common variable count).
    """

    __slots__ = ("coeffs", "disc")

    def __init__(self, coeffs, disc: Discriminant | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("generator tuple needs at least one coefficient")
        if disc is None:
            disc = coeffs[0].disc
        for c in coeffs:
            _check_same_disc(disc, c.disc)
        self.coeffs = coeffs
        self.disc = disc

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple(c.coords() for c in self.coeffs)

    def padded(self, m: int) -> GenTuple:
        """Extend with zero coefficients up to m variables."""
        if m < self.m:
            raise DomainError(f"cannot pad {self.m} generators down to {m}")
        if m == self.m:
            return self
        zero = QuadInt(0, 0, self.disc)
        return GenTuple(self.coeffs + (zero,) * (m - self.m), self.disc)

    def __eq__(self, other):
        if isinstance(other, GenTuple):
            return self.disc.d == other.disc.d and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.disc.d, self.coeffs))

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"GenTuple[{inner}; d={self.disc.d}]"


class ZModuleBasis:
    """Canonical triangular basis of the lattice a generator tuple spans.

    rank 2: rows are (n*1, u + v*omega) with n > 0, v > 0, 0 <= u < n.
    rank 1: the single row is sign-normalized (v > 0, or u > 0 when v = 0).
    rank 0: no rows. Equal lattices yield identical bases.
    """

    __slots__ = ("disc", "rank", "rows")

    def __init__(self, disc: Discriminant, rows: tuple[QuadInt, ...]):
        self.disc = disc
        self.rows = rows
        self.rank = len(rows)

    def coord_rows(self) -> tuple[tuple[int, int], ...]:
        return tuple(r.coords() for r in self.rows)

    def __eq__(self, other):
        if isinstance(other, ZModuleBasis):
            return self.disc.d == other.disc.d and self.coord_rows() == other.coord_rows()
        return NotImplemented

    def __hash__(self):
        return hash((self.disc.d, self.coord_rows()))

    def __repr__(self):
        inner = ", ".join(str(r) for r in self.rows)
        return f"ZModuleBasis[{inner}; d={self.disc.d}]"


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


def _hnf_core(coords, m):
    """Triangular basis with provenance.

    Returns (int_part, omega_part) where int_part is (n, comb) spanning
    L intersect Z (n > 0) or None, and omega_part is (u, v, comb) with the
    least positive omega-coordinate v (0 <= u < n when int_part exists) or
    None. Each comb is the integer combination of the input generators
    producing that basis row.
    """
    n = 0
    comb_n = None
    ovec = None  # (u, v, comb)

    def fold_int(u, comb):
        nonlocal n, comb_n
        if u == 0:
            return
        if n == 0:
            if u < 0:
                u, comb = -u, [-c for c in comb]
            n, comb_n = u, comb
            return
        g, x, y = _xgcd(n, u)
        # Z*n + Z*u = Z*g, so the gcd row alone spans the integer part
        n, comb_n = g, [x * a + y * b for a, b in zip(comb_n, comb)]

    for j, (u, v) in enumerate(coords):
        comb = [0] * m
        comb[j] = 1
        if v == 0:
            fold_int(u, comb)
            continue
        if ovec is None:
            ovec = (u, v, comb)
            continue
        u0, v0, c0 = ovec
        g, x, y = _xgcd(v0, v)
        merged = (x * u0 + y * u, g, [x * a + y * b for a, b in zip(c0, comb)])
        # eliminate: (v//g)*ovec - (v0//g)*new has zero omega-part
        s, t = v // g, v0 // g
        elim_u = s * u0 - t * u
        elim_c = [s * a - t * b for a, b in zip(c0, comb)]
        ovec = merged
        fold_int(elim_u, elim_c)

    if ovec is not None:
        u, v, c = ovec
        if v < 0:
            u, v, c = -u, -v, [-a for a in c]
        if n:
            k = u // n
            if k:
                u -= k * n
                c = [a - k * b for a, b in zip(c, comb_n)]
        ovec = (u, v, c)
    int_part = (n, comb_n) if n else None
    return int_part, ovec


def hnf_basis(x: GenTuple) -> ZModuleBasis:
    """Canonical triangular basis of the lattice x spans."""
    int_part, ovec = _hnf_core(x.coords(), x.m)
    rows = []
    if ovec is not None:
        rows.append(QuadInt.from_coords(ovec[0], ovec[1], x.disc))
    if int_part is not None:
        rows.append(QuadInt.from_coords(int_part[0], 0, x.disc))
    # present the integer row first, like the usual [a, xi] ideal notation
    rows.reverse()
    return ZModuleBasis(x.disc, tuple(rows))


def _solve_coords(int_part, ovec, target):
    """Express target = k1 * int_row + k2 * omega_row, or None."""
    s, t = target
    if ovec is not None:
        u, v, _ = ovec
        if t % v:
            return None
        k2 = t // v
        s = s - k2 * u
    else:
        if t != 0:
            return None
        k2 = 0
    if int_part is not None:
        n, _ = int_part
        if s % n:
            return None
        k1 = s // n
    else:
        if s != 0:
            return None
        k1 = 0
    return k1, k2


def contains(x: GenTuple, y: GenTuple) -> bool:
    """True iff the lattice of y lies inside the lattice of x."""
    _check_same_disc(x.disc, y.disc)
    int_part, ovec = _hnf_core(x.coords(), x.m)
    return all(_solve_coords(int_part, ovec, c) is not None for c in y.coords())


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
    x, y = x.padded(m), y.padded(m)
    int_part, ovec = _hnf_core(x.coords(), x.m)
    cols = []
    for c in y.coords():
        ks = _solve_coords(int_part, ovec, c)
        if ks is None:
            raise DomainError("not a submodule")
        k1, k2 = ks
        col = [0] * m
        if int_part is not None and k1:
            for j, a in enumerate(int_part[1]):
                col[j] += k1 * a
        if ovec is not None and k2:
            for j, a in enumerate(ovec[2]):
                col[j] += k2 * a
        cols.append(col)
    return tuple(tuple(cols[i][j] for i in range(m)) for j in range(m))


def check_matrix(h, m: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Validate a square integer matrix, optionally of fixed size m."""
    rows = tuple(tuple(row) for row in h)
    size = len(rows)
    if size == 0 or any(len(r) != size for r in rows):
        raise DomainError("transform matrix must be square")
    if m is not None and size != m:
        raise DomainError(f"dimension mismatch: {size}x{size} matrix on {m} variables")
    for r in rows:
        for e in r:
            if not isinstance(e, int) or isinstance(e, bool):
                raise DomainError("transform matrix entries must be integers")
    return rows


def apply_transform(h, x: GenTuple) -> GenTuple:
    """Substitute z_j -> sum_i h[j][i] z_i in the linear polynomial of x."""
    rows = check_matrix(h, x.m)
    m = x.m
    out = []
    for i in range(m):
        u = v = 0
        for j, a in enumerate(x.coeffs):
            e = rows[j][i]
            if e:
                cu, cv = a.coords()
                u += e * cu
                v += e * cv
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
