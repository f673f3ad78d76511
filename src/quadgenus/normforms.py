"""Multi-variable norm forms of generator tuples and matrix actions on them.

The norm form of (a_1, ..., a_m) is N(sum a_i z_i), an integral quadratic
form in m variables: the z_i^2 coefficient is norm(a_i) and the z_i z_j
coefficient is trace(a_i * conj(a_j)). A matrix h acts by substituting
z_j -> sum_i h[j][i] z_i, and that action commutes with taking norm forms
of transformed tuples. form_action, the one substitution here, checks h;
compose_via_matrices writes its own 2x2 substitution out.
"""

from __future__ import annotations

from .arith import DomainError, Discriminant, QuadInt, _Value
from .lattice import GenTuple, check_matrix, solve_transform

__all__ = [
    "MultiQuadraticForm",
    "norm_form",
    "form_action",
    "factor_witness",
    "represent_from_fo",
    "integral_tuple",
    "principal_norm_form",
]


def _keys(m: int) -> tuple:
    """The (i, j) with i <= j < m, in order."""
    return tuple((i, j) for i in range(m) for j in range(i, m))


def _outside(key, m: int) -> DomainError:
    return DomainError(f"coefficient key {key} is outside 0 <= i <= j < {m}")


class MultiQuadraticForm(_Value):
    """sum_{i<=j} c[i,j] * z_i * z_j with integer coefficients; coeffs holds
    every (i, j) with i <= j, in that order."""

    __slots__ = ("m", "disc", "coeffs")

    def __init__(self, m: int, coeffs: dict, disc: Discriminant):
        if type(m) is not int or m < 1:
            raise DomainError(f"variable count must be an integer >= 1, got {m!r}")
        self.m = m
        self.disc = disc
        full = dict.fromkeys(_keys(m), 0)
        for key, c in coeffs.items():
            if key not in full:
                raise _outside(key, m)
            if type(c) is not int:
                raise DomainError(f"coefficient {key} must be an integer, got {c!r}")
            full[key] = c
        self.coeffs = full

    def coeff(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in self.coeffs:
            raise _outside(key, self.m)
        return self.coeffs[key]

    def evaluate(self, point) -> int:
        z = tuple(point)
        if len(z) != self.m or any(type(v) is not int for v in z):
            raise DomainError(f"point {z!r} is not {self.m} integers")
        return sum(c * z[i] * z[j] for (i, j), c in self.coeffs.items())

    def binary_triple(self) -> tuple[int, int, int]:
        """(a, b, c) for a two-variable form."""
        if self.m != 2:
            raise DomainError(f"need a binary form, this one has {self.m} variables")
        return self.coeffs[(0, 0)], self.coeffs[(0, 1)], self.coeffs[(1, 1)]

    @classmethod
    def from_binary_triple(cls, a, b, c, disc: Discriminant) -> MultiQuadraticForm:
        if b * b - 4 * a * c != disc.d:
            raise DomainError(
                f"form ({a},{b},{c}) has discriminant {b * b - 4 * a * c}, expected {disc.d}"
            )
        return cls(2, {(0, 0): a, (0, 1): b, (1, 1): c}, disc)

    def _key(self):
        return self.m, self.disc.d, tuple(self.coeffs.values())

    def __str__(self):
        parts = []
        for (i, j), c in self.coeffs.items():
            if c == 0:
                continue
            var = f"z{i + 1}^2" if i == j else f"z{i + 1}*z{j + 1}"
            parts.append(f"{c:+d}*{var}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"MultiQuadraticForm({self.m}, {self!s}, d={self.disc.d})"


def norm_form(x: GenTuple) -> MultiQuadraticForm:
    """The norm of the linear polynomial of x, as a quadratic form."""
    cs = x.coeffs
    coeffs = {
        (i, j): (cs[i] * cs[j].conjugate()).trace() if i < j else cs[i].norm()
        for i, j in _keys(x.m)
    }
    return MultiQuadraticForm(x.m, coeffs, x.disc)


def form_action(h, f: MultiQuadraticForm) -> MultiQuadraticForm:
    """Check h, then substitute z_j -> sum_i h[j][i] z_i into f (h^T A h)."""
    rows = check_matrix(h, f.m)
    out = dict.fromkeys(_keys(f.m), 0)
    for (i, j), c in f.coeffs.items():
        if c:
            ri, rj = rows[i], rows[j]
            for k, l in out:
                out[k, l] += c * (ri[k] * rj[l] + ri[l] * rj[k] if k < l else ri[k] * rj[k])
    return MultiQuadraticForm(f.m, out, f.disc)


def factor_witness(x: GenTuple, y: GenTuple):
    """Matrix h carrying the norm form of x onto the norm form of y.

    Requires the lattice of y to lie inside the lattice of x; verified by
    expanding the substituted form.
    """
    h = solve_transform(x, y)
    m = len(h)
    fx = norm_form(x.padded(m))
    fy = norm_form(y.padded(m))
    if form_action(h, fx) != fy:
        raise AssertionError("transform does not carry the norm form")
    return h


def integral_tuple(disc: Discriminant, m: int = 2) -> GenTuple:
    """(1, omega, 0, ..., 0): the order itself as an m-variable tuple."""
    if type(m) is not int:
        raise DomainError(f"variable count must be an integer >= 1, got {m!r}")
    if m < 2:
        raise DomainError("the order needs at least two generators")
    one = QuadInt.from_int(1, disc)
    zero = QuadInt(0, 0, disc)
    return GenTuple((one, QuadInt.omega(disc)) + (zero,) * (m - 2), disc)


def principal_norm_form(disc: Discriminant) -> MultiQuadraticForm:
    """Norm form of the order, x^2 + d*xy + ((d^2-d)/4)*y^2, written down from
    d (the matrix route expands no norm form) and kept on the Discriminant.
    In m variables it is norm_form(integral_tuple(disc, m))."""
    f = disc._norm_form
    if f is None:
        d = disc.d
        f = disc._norm_form = MultiQuadraticForm.from_binary_triple(1, d, (d * d - d) // 4, disc)
    return f


def represent_from_fo(f_source: GenTuple):
    """Matrix h expressing the norm form of f_source as an action on the
    order's own norm form."""
    m = max(2, f_source.m)
    return factor_witness(integral_tuple(f_source.disc, m), f_source.padded(m))
