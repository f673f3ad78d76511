import random
import re
import time

import pytest

import quadgenus.normforms as normforms
from quadgenus.arith import Discriminant, DomainError, QuadInt
from quadgenus.lattice import (
    GenTuple,
    apply_transform,
    check_matrix,
    contains,
    identity_matrix,
    mat_mul,
)
from quadgenus.normforms import (
    MultiQuadraticForm,
    factor_witness,
    form_action,
    integral_tuple,
    norm_form,
    principal_norm_form,
    represent_from_fo,
)

from oracles import discs, random_disc, random_tuple

D23 = Discriminant(-23)


def test_principal_norm_form():
    for dv in (-23, -4, -84):
        d = Discriminant(dv)
        f = principal_norm_form(d)
        assert f.binary_triple() == (1, dv, (dv * dv - dv) // 4)
    assert principal_norm_form(Discriminant(-4)).binary_triple() == (1, -4, 5)


def test_principal_norm_form_is_the_norm_form_of_the_order():
    for dv in discs(2000):
        d = Discriminant(dv)
        assert principal_norm_form(d) == norm_form(integral_tuple(d)), dv


def test_discriminant_keeps_its_binary_norm_form():
    d, fresh = Discriminant(-84), Discriminant(-84)
    f = principal_norm_form(d)
    assert principal_norm_form(d) is f
    assert f == MultiQuadraticForm(2, {(0, 0): 1, (0, 1): -84, (1, 1): 1785}, fresh)
    # the kept form is no part of the value
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)


def test_norm_form_of_ideal_tuple():
    # (2, (1 - sqrt(-23))/2) -> 4x^2 + 2xy + 6y^2 = (a^2, ab, ac) at (2,1,3)
    x = GenTuple([QuadInt.from_int(2, D23), QuadInt(1, -1, D23)], D23)
    assert norm_form(x).binary_triple() == (4, 2, 6)


def test_evaluation_identity_random():
    rng = random.Random(20)
    for _ in range(200):
        d = random_disc(rng, 500)
        m = rng.randrange(1, 5)
        x = random_tuple(rng, d, m, 15)
        f = norm_form(x)
        z = [rng.randrange(-6, 7) for _ in range(m)]
        s = QuadInt(0, 0, d)
        for zi, ai in zip(z, x.coeffs):
            s = s + ai * zi
        assert f.evaluate(z) == s.norm()


def test_form_action_identity_and_scaling():
    f = principal_norm_form(D23)
    assert form_action(identity_matrix(2), f) == f
    doubled = form_action(((2, 0), (0, 2)), f)
    assert doubled.binary_triple() == tuple(4 * c for c in f.binary_triple())


def test_form_action_composite_example():
    # [[4,14],[0,1]] on x^2 - 23xy + 138y^2 gives 16x^2 + 20xy + 12y^2,
    # which is (4,5,3) after dividing by a*a' = 4
    f = principal_norm_form(D23)
    g = form_action(((4, 14), (0, 1)), f)
    assert g.binary_triple() == (16, 20, 12)


def test_form_action_dimension_mismatch():
    with pytest.raises(DomainError):
        form_action(identity_matrix(3), principal_norm_form(D23))


def _expanded_form_action(h, f):
    """form_action as an m x m expansion: h^T A h in a full table, A the
    upper-triangular coefficient table, then re-folded to the triangle."""
    rows = check_matrix(h, f.m)
    m = f.m
    b = [[0] * m for _ in range(m)]
    for (i, j), c in f.coeffs.items():
        if c == 0:
            continue
        ri, rj = rows[i], rows[j]
        for k in range(m):
            cik = c * ri[k]
            if cik:
                row = b[k]
                for l in range(m):
                    row[l] += cik * rj[l]
    coeffs = {}
    for i in range(m):
        coeffs[(i, i)] = b[i][i]
        for j in range(i + 1, m):
            coeffs[(i, j)] = b[i][j] + b[j][i]
    return MultiQuadraticForm(m, coeffs, f.disc)


def test_fold_matches_the_expansion_random():
    rng = random.Random(25)

    def pick(bound):
        # one entry in five is zero, so zero coefficients and sparse rows occur
        return rng.randint(-bound, bound) if rng.random() < 0.8 else 0

    for m in range(1, 6):
        for _ in range(120):
            bound = rng.choice((1, 10, 10**30))
            keys = [(i, j) for i in range(m) for j in range(i, m)]
            f = MultiQuadraticForm(m, {key: pick(bound) for key in keys}, random_disc(rng, 500))
            h = [[pick(bound) for _ in range(m)] for _ in range(m)]
            if rng.random() < 0.3:
                h[rng.randrange(m)] = [0] * m
            g = form_action(h, f)
            assert g == _expanded_form_action(h, f)
            # substituting z_j -> sum_i h[j][i] z_i and evaluating commute
            z = [rng.randint(-bound, bound) for _ in range(m)]
            image = [sum(h[j][i] * z[i] for i in range(m)) for j in range(m)]
            assert g.evaluate(z) == f.evaluate(image)


@pytest.mark.parametrize(
    "h",
    [((1, 0),), ((1, 0), (0,)), ((1.0, 0), (0, 1)), ((True, 0), (0, 1)), 5, identity_matrix(3)],
    ids=["not-square", "ragged", "float", "bool", "not-rows", "wrong-size"],
)
def test_public_entry_points_check_the_matrix(h):
    with pytest.raises(DomainError):
        form_action(h, principal_norm_form(D23))
    with pytest.raises(DomainError):
        apply_transform(h, integral_tuple(D23))
    with pytest.raises(DomainError):
        mat_mul(h, identity_matrix(2))


def test_naturality_random():
    rng = random.Random(21)
    for _ in range(200):
        d = random_disc(rng, 500)
        m = rng.randrange(1, 5)
        x = random_tuple(rng, d, m, 15)
        h = tuple(tuple(rng.randrange(-7, 8) for _ in range(m)) for _ in range(m))
        assert form_action(h, norm_form(x)) == norm_form(apply_transform(h, x))


def test_naturality_at_the_cli_variable_limit():
    # 64 variables, the CLI's limit: the O(m^3) substitution takes about 40 ms
    # on a 2-CPU x86 box with CPython 3.11, where a fold of every coefficient
    # into every output key, Theta(m^4), took about 1 s
    rng = random.Random(26)
    x = random_tuple(rng, D23, 64, 15)
    h = tuple(tuple(rng.randrange(-7, 8) for _ in range(64)) for _ in range(64))
    f = norm_form(x)
    t0 = time.monotonic()
    g = form_action(h, f)
    elapsed = time.monotonic() - t0
    assert g == norm_form(apply_transform(h, x))
    assert elapsed < 0.25, f"form_action at m = 64 took {elapsed:.2f}s"


def test_factor_witness_identity_and_scaling():
    x = integral_tuple(D23)
    assert factor_witness(x, x) == identity_matrix(2)
    tripled = GenTuple([c * 3 for c in x.coeffs], D23)
    h = factor_witness(x, tripled)
    assert h == ((3, 0), (0, 3))
    g = form_action(h, norm_form(x))
    assert g.binary_triple() == tuple(9 * c for c in norm_form(x).binary_triple())


def test_factor_witness_ideal_example():
    x = integral_tuple(D23)
    y = GenTuple([QuadInt.from_int(2, D23), QuadInt(1, -1, D23)], D23)
    h = factor_witness(x, y)
    assert h == ((2, 12), (0, 1))
    assert form_action(h, norm_form(x)).binary_triple() == (4, 2, 6)


def test_factor_witness_requires_containment():
    x = GenTuple([QuadInt.from_int(2, D23), QuadInt.omega(D23) * 2], D23)
    with pytest.raises(DomainError):
        factor_witness(x, integral_tuple(D23))


def test_factor_witness_checks_the_transform(monkeypatch):
    # the identity does not carry the order's norm form onto (4, 2, 6)
    monkeypatch.setattr(normforms, "solve_transform", lambda x, y: identity_matrix(2))
    x = integral_tuple(D23)
    y = GenTuple([QuadInt.from_int(2, D23), QuadInt(1, -1, D23)], D23)
    with pytest.raises(AssertionError) as info:
        factor_witness(x, y)
    assert str(info.value) == "transform does not carry the norm form"


def test_value_containment_on_grid():
    # when y spans a sublattice of x, every value of norm_form(y) on a grid
    # is a value of norm_form(x)
    rng = random.Random(22)
    for _ in range(40):
        d = random_disc(rng, 500)
        x = random_tuple(rng, d, 2, 6)
        h = tuple(tuple(rng.randrange(-4, 5) for _ in range(2)) for _ in range(2))
        y = apply_transform(h, x)
        assert contains(x, y)
        fx, fy = norm_form(x), norm_form(y)
        for z1 in range(-3, 4):
            for z2 in range(-3, 4):
                w = (h[0][0] * z1 + h[0][1] * z2, h[1][0] * z1 + h[1][1] * z2)
                assert fy.evaluate((z1, z2)) == fx.evaluate(w)


def test_represent_from_fo_examples():
    assert represent_from_fo(integral_tuple(D23)) == identity_matrix(2)
    y = GenTuple([QuadInt.from_int(2, D23), QuadInt(1, -1, D23)], D23)
    assert represent_from_fo(y) == ((2, 12), (0, 1))


def test_represent_from_fo_standard_basis_matrix():
    # (a, (b - sqrt d)/2) always yields exactly [[a, (b-d)/2], [0, 1]]
    rng = random.Random(23)
    done = 0
    while done < 60:
        d = random_disc(rng, 500)
        a = rng.randrange(1, 40)
        b = rng.randrange(-40, 40)
        if (b * b - d.d) % (4 * a):
            continue
        x = GenTuple([QuadInt.from_int(a, d), QuadInt(b, -1, d)], d)
        assert represent_from_fo(x) == ((a, (b - d.d) // 2), (0, 1))
        done += 1


def test_represent_from_fo_general_tuples():
    rng = random.Random(24)
    for _ in range(80):
        d = random_disc(rng, 500)
        m = rng.randrange(1, 5)
        x = random_tuple(rng, d, m, 15)
        h = represent_from_fo(x)
        mm = max(2, m)
        fo = norm_form(integral_tuple(d, mm))
        assert form_action(h, fo) == norm_form(x.padded(mm))


def test_multiform_equality_and_str():
    f = MultiQuadraticForm(2, {(0, 0): 4, (0, 1): 2, (1, 1): 6}, D23)
    g = MultiQuadraticForm(2, {(0, 0): 4, (0, 1): 2, (1, 1): 6}, D23)
    assert f == g
    assert str(f) == "+4*z1^2 +2*z1*z2 +6*z2^2"
    assert f.coeff(1, 0) == 2


def test_multiform_rejects_keys_outside_the_triangle():
    with pytest.raises(DomainError, match="outside"):
        MultiQuadraticForm(2, {(1, 0): 5, (0, 2): 7}, D23)


def test_multiform_rejects_non_int_coefficients():
    with pytest.raises(DomainError, match="integer"):
        MultiQuadraticForm(2, {(0, 0): 2.5}, D23)
    with pytest.raises(DomainError, match="integer"):
        MultiQuadraticForm(2, {(0, 1): True}, D23)


def test_coeff_outside_the_triangle_is_a_domain_error():
    f = principal_norm_form(D23)
    for i, j, key in ((2, 0, "(0, 2)"), (0, 2, "(0, 2)"), (-1, 1, "(-1, 1)"), (2, 2, "(2, 2)")):
        with pytest.raises(DomainError, match=re.escape(f"key {key} is outside 0 <= i <= j < 2")):
            f.coeff(i, j)


def test_evaluate_takes_integer_points_only():
    f = MultiQuadraticForm.from_binary_triple(2, 1, 3, D23)
    assert f.evaluate((1, 2)) == 2 + 2 + 12
    for z in ((1.5, 2), ("a", "b"), (True, 1), (1, 2, 3), (1,)):
        with pytest.raises(DomainError, match="is not 2 integers"):
            f.evaluate(z)
