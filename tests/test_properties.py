"""Property tests over reduced forms and generator tuples drawn at |d| up
to 10^40, and over class groups drawn at |d| up to 2*10^6.

Derandomized with no example database, so every run draws the same
examples and the suite stays deterministic.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from quadgenus.arith import Discriminant, QuadInt
from quadgenus.classgroup import (
    cl_mod_squares,
    class_group,
    genus_count_from_factorization,
    two_torsion,
)
from quadgenus.forms import (
    BinaryForm,
    compose_crt,
    enumerate_reduced,
    form_inverse,
    principal_form,
    reduce_form,
)
from quadgenus.ideals import (
    compose_via_matrices,
    form_to_ideal,
    h_alpha,
    ideal_mul,
    ideal_to_form,
    tau_pair,
)
from quadgenus.lattice import GenTuple, apply_transform, mat_mul, solve_transform
from quadgenus.normforms import MultiQuadraticForm, form_action, norm_form, principal_norm_form

MAX_DIGITS = 40

properties = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def reduced_forms(draw):
    """A reduced primitive form whose |d| = 4ac - b^2 has about n digits,
    for n drawn up to MAX_DIGITS."""
    top = 10 ** draw(st.integers(1, MAX_DIGITS))
    a = draw(st.integers(1, math.isqrt(top // 4)))
    c = draw(st.integers(max(a, top // (40 * a)), top // (4 * a)))
    b = draw(st.integers(-a + 1, a))
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    return reduce_form(BinaryForm(a, b, c, Discriminant(b * b - 4 * a * c)))[0]


@st.composite
def tuples_and_matrices(draw):
    """A tuple of m = 1..4 order elements at a d of about n digits, for n
    drawn up to MAX_DIGITS, with an m x m integer matrix."""
    n = draw(st.integers(1, MAX_DIGITS))
    k = draw(st.integers(10 ** (n - 1), 10**n))
    disc = Discriminant(-4 * k - draw(st.sampled_from((0, 3))))
    m = draw(st.integers(1, 4))
    coord = st.integers(-(10**20), 10**20)
    x = GenTuple([QuadInt.from_coords(draw(coord), draw(coord), disc) for _ in range(m)], disc)
    entry = st.integers(-(10**6), 10**6)
    return x, tuple(tuple(draw(entry) for _ in range(m)) for _ in range(m))


exponents = st.integers(2, 6)

# d = -4k or -4k - 3 with |d| < 2*10^6: d = 0, 4 (mod 8) by the parity of k
# in the first case and d = 5, 1 (mod 8) in the second
class_group_discriminants = st.builds(
    lambda k, r: Discriminant(-4 * k - r), st.integers(1, 499_999), st.sampled_from((0, 3))
)


def _power(f, k):
    out = f
    for _ in range(k - 1):
        out = compose_crt(out, f)
    return out


def _pairs(f, k):
    """(f, f^k), (f^k, f), (f, f^-1) and (f^k, 1): squares, inverses and
    the identity, where the matrix and ideal routes meet e > 1."""
    fk = _power(f, k)
    return ((f, fk), (fk, f), (f, form_inverse(f)), (fk, principal_form(f.disc)))


def _ideal_route(f, g):
    _, prod = ideal_mul(form_to_ideal(f), form_to_ideal(g))
    return reduce_form(ideal_to_form(prod))[0]


def _public_expansion(f, g):
    """The matrix route through the public, checked mat_mul and form_action."""
    alpha, beta = form_to_ideal(f), form_to_ideal(g)
    h = mat_mul(h_alpha(alpha), tau_pair(alpha, beta)[0])
    triple = form_action(h, principal_norm_form(f.disc)).binary_triple()
    aa = f.a * g.a
    assert all(x % aa == 0 for x in triple)
    return reduce_form(BinaryForm(*(x // aa for x in triple), f.disc))[0]


@properties
@given(reduced_forms(), exponents)
def test_three_routes_agree(f, k):
    for g, h in _pairs(f, k):
        crt = compose_crt(g, h)
        assert compose_via_matrices(g, h) == crt, (g, h)
        assert _ideal_route(g, h) == crt, (g, h)


@properties
@given(reduced_forms(), exponents)
def test_matrix_route_equals_its_public_expansion(f, k):
    for g, h in _pairs(f, k):
        assert compose_via_matrices(g, h) == _public_expansion(g, h), (g, h)


@properties
@given(reduced_forms(), exponents, exponents, exponents)
def test_compose_crt_is_associative_with_inverses(f, i, j, k):
    x, y, z = _power(f, i), _power(f, j), _power(form_inverse(f), k)
    assert compose_crt(compose_crt(x, y), z) == compose_crt(x, compose_crt(y, z))
    assert compose_crt(f, form_inverse(f)) == principal_form(f.disc)


@properties
@given(reduced_forms(), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4))
def test_reduce_witness_carries_the_form_onto_its_reduction(f, steps):
    # unreduce f by a product of T^n @ S, which has determinant 1
    m = ((1, 0), (0, 1))
    for n in steps:
        m = mat_mul(m, ((n, -1), (1, 0)))
    messy = form_action(m, MultiQuadraticForm.from_binary_triple(*f.triple(), f.disc))
    g = BinaryForm(*messy.binary_triple(), f.disc)
    r, w = reduce_form(g)
    assert r == f  # the unique reduced representative of the class
    assert w[0][0] * w[1][1] - w[0][1] * w[1][0] == 1
    assert form_action(w, messy).binary_triple() == r.triple()


@properties
@given(reduced_forms())
def test_form_ideal_dictionary_round_trips(f):
    f = BinaryForm(*f.triple(), f.disc)  # a fresh form keeps nothing yet
    a, b, c = f.triple()
    for _ in range(2):  # first built, then kept: a miss, then a hit
        alpha = form_to_ideal(f)
        assert ideal_to_form(alpha) == f
        assert reduce_form(ideal_to_form(alpha.conjugate()))[0] == form_inverse(f)
        assert norm_form(alpha.gen_tuple()).binary_triple() == (a * a, a * b, a * c)
    assert form_to_ideal(f) is alpha


@properties
@given(tuples_and_matrices())
def test_solve_transform_round_trips(xh):
    # h's image lies in x's lattice, so solve_transform finds some matrix
    # (not always h) that moves x onto it
    x, h = xh
    y = apply_transform(h, x)
    assert apply_transform(solve_transform(x, y), x) == y


@properties
@given(class_group_discriminants)
def test_genus_count_three_ways(disc):
    # the squares quotient, the ambiguous classes and Gauss's 2**(mu-1)
    g = class_group(disc)
    assert cl_mod_squares(g)[0] == len(two_torsion(g)) == genus_count_from_factorization(disc)
    assert g.h == len(enumerate_reduced(disc))
