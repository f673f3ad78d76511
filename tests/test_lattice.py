import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form

from quadgenus import lattice
from quadgenus.arith import Discriminant, DomainError, QuadInt
from quadgenus.forms import enumerate_reduced
from quadgenus.ideals import OrderIdeal, form_to_ideal, ideal_mul
from quadgenus.lattice import (
    GenTuple,
    apply_transform,
    contains,
    hnf_basis,
    identity_matrix,
    mat_mul,
    module_mul,
    modules_equal,
    solve_transform,
)
from quadgenus.normforms import form_action, principal_norm_form

from oracles import discs, random_disc, random_tuple, rebind, recorder

D23 = Discriminant(-23)


def qi(p, q, d=D23):
    return QuadInt(p, q, d)


def one(d=D23):
    return QuadInt.from_int(1, d)


def omega(d=D23):
    return QuadInt.omega(d)


def integral(d=D23):
    return GenTuple([one(d), omega(d)], d)


def test_hnf_integral_basis():
    b = hnf_basis(integral())
    assert b.rank == 2
    assert b.coord_rows() == ((1, 0), (0, 1))


def test_hnf_scaled_and_redundant():
    d = D23
    x = GenTuple([QuadInt.from_int(2, d), omega() * 2, QuadInt.from_int(2, d) + omega() * 2])
    b = hnf_basis(x)
    assert b.rank == 2
    assert b.coord_rows() == ((2, 0), (0, 2))


def test_hnf_ideal_tuple():
    # (2, (1-sqrt(-23))/2): same lattice as the ideal [2, (-1+sqrt(-23))/2];
    # the canonical reduced basis is {2, omega} since 12 = 0 (mod 2)
    xi = qi(1, -1)
    x = GenTuple([QuadInt.from_int(2, D23), xi])
    assert xi.coords() == (12, 1)
    b = hnf_basis(x)
    assert b.coord_rows() == ((2, 0), (0, 1))
    assert modules_equal(x, GenTuple([QuadInt.from_int(2, D23), omega()]))


def test_hnf_rank_deficient():
    d = D23
    zero = QuadInt(0, 0, d)
    assert hnf_basis(GenTuple([zero, zero], d)).rank == 0
    b = hnf_basis(GenTuple([QuadInt.from_int(6, d), QuadInt.from_int(-4, d)], d))
    assert b.rank == 1
    assert b.coord_rows() == ((2, 0),)
    # (2 - 2 sqrt d)/2 = 24 + 2*omega and its multiple -2*(...) span one line
    b = hnf_basis(GenTuple([qi(2, -2), qi(-4, 4)], d))
    assert b.rank == 1
    assert b.coord_rows() == ((24, 2),)


def test_hnf_against_sympy():
    rng = random.Random(5)
    for _ in range(150):
        d = random_disc(rng, 500)
        x = random_tuple(rng, d, rng.randrange(1, 5), 20)
        b = hnf_basis(x)
        cols = sympy.Matrix([list(c) for c in x.coords()]).T
        if b.rank < 2:
            # sympy's HNF wants full row rank; check these by hand instead
            continue
        h = hermite_normal_form(cols)
        (n, z), (u, v) = b.coord_rows()
        assert z == 0
        assert h == sympy.Matrix([[n, u], [0, v]])


def test_only_solve_transform_carries_provenance(monkeypatch):
    # hnf_basis, contains and the ideal product take the closed form on
    # bare [u, v] rows and combine no rows; only solve_transform runs the
    # row-operation core, on rows that carry the generator combination along
    calls = {}
    for name in ("_hnf_core", "_basis_rows", "_comb", "hnf_basis"):
        original = getattr(lattice, name)
        wrapper = recorder(original)
        # every module binding: ideals imports _basis_rows by name
        rebind(monkeypatch, original, wrapper)
        calls[name] = wrapper.calls

    def row_widths(name):
        return [tuple(len(r) for r in args[0]) for args in calls[name]]

    def clear():
        for recorded in calls.values():
            recorded.clear()

    rng = random.Random(11)
    for m in (1, 2, 3, 5):
        x, y = random_tuple(rng, D23, m, 20), random_tuple(rng, D23, m, 20)
        lattice.hnf_basis(x)
        contains(x, y)
        contains(x, module_mul(x, y))
    assert [args[0].m for args in calls["hnf_basis"]] == [1, 2, 3, 5]
    widths = row_widths("_basis_rows")
    assert widths and {w for ws in widths for w in ws} == {2}
    assert calls["_hnf_core"] == calls["_comb"] == []
    clear()
    ideal_mul(OrderIdeal(2, 1, D23), OrderIdeal(3, 1, D23))
    assert row_widths("_basis_rows") == [(2, 2, 2, 2)]
    assert calls["hnf_basis"] == calls["_hnf_core"] == calls["_comb"] == []
    clear()
    solve_transform(integral(), random_tuple(rng, D23, 3, 20))
    assert calls["_basis_rows"] == []
    assert row_widths("_hnf_core") == [(5, 5)]
    assert calls["_comb"] and {(len(r), len(s)) for _, r, _, s in calls["_comb"]} == {(5, 5)}


def _random_rows(rng, m, digits):
    """m coordinate rows with entries below 10^digits in size, some of them
    zero or parallel to another row, and of every rank."""
    bound = 10**digits
    rows = []
    for _ in range(m):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append((0, 0))
        elif kind == 1 and rows:
            k = rng.randrange(-5, 6)
            u, v = rng.choice(rows)
            rows.append((k * u, k * v))
        elif kind == 2:
            rows.append((rng.randrange(-bound, bound + 1), 0))
        elif kind == 3:
            rows.append((0, rng.randrange(-bound, bound + 1)))
        else:
            rows.append((rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1)))
    return rows


def _core_rows(rows):
    return tuple(tuple(r) for r in lattice._hnf_core(rows))


def test_closed_form_matches_row_operations():
    rng = random.Random(14)
    ranks = set()
    for m in range(1, 9):
        for digits in (1, 3, 20, 60):
            for _ in range(60):
                rows = _random_rows(rng, m, digits)
                (n, _), (_, g) = closed = lattice._basis_rows(rows)
                assert closed == _core_rows(rows), rows
                ranks.add(bool(n) + bool(g))
    assert ranks == {0, 1, 2}


def test_closed_form_matches_row_operations_on_ideal_products():
    pairs = 0
    for dv in discs(400):
        d = Discriminant(dv)
        tuples = [form_to_ideal(f).gen_tuple() for f in enumerate_reduced(d)]
        for x in tuples:
            for y in tuples:
                coords = module_mul(x, y).coords()
                assert lattice._basis_rows(coords) == _core_rows(coords), (dv, x, y)
                pairs += 1
    assert pairs == 8828


def test_hnf_idempotent_and_order_independent():
    rng = random.Random(6)
    for _ in range(100):
        d = random_disc(rng, 500)
        x = random_tuple(rng, d, rng.randrange(1, 5), 20)
        b = hnf_basis(x)
        again = hnf_basis(GenTuple(b.rows, d)) if b.rank else b
        if b.rank:
            assert again == b
        perm = list(x.coeffs)
        rng.shuffle(perm)
        assert hnf_basis(GenTuple(perm, d)) == b


def test_contains_examples():
    d = D23
    x = integral()
    y = GenTuple([QuadInt.from_int(2, d), qi(1, -1)])
    assert contains(x, y)  # ideal inside the order
    assert not contains(GenTuple([QuadInt.from_int(2, d), omega() * 2]), x)
    assert contains(x, random_tuple(random.Random(7), d, 3, 20))  # order holds everything


def test_contains_mismatch():
    with pytest.raises(DomainError):
        contains(integral(), integral(Discriminant(-4)))


def test_solve_identity_and_scaling():
    x = integral()
    assert solve_transform(x, x) == identity_matrix(2)
    y = GenTuple([QuadInt.from_int(2, D23), omega() * 2])
    assert solve_transform(x, y) == ((2, 0), (0, 2))


def test_solve_standard_ideal_matrix():
    # (1, omega) -> (2, 12 + omega) is [[2, 12], [0, 1]]
    x = integral()
    y = GenTuple([QuadInt.from_int(2, D23), qi(1, -1)])
    h = solve_transform(x, y)
    assert h == ((2, 12), (0, 1))
    assert apply_transform(h, x) == y


def test_solve_not_submodule():
    x = GenTuple([QuadInt.from_int(2, D23), omega() * 2])
    with pytest.raises(DomainError, match="not a submodule"):
        solve_transform(x, integral())


def test_apply_identity():
    rng = random.Random(8)
    x = random_tuple(rng, D23, 3, 20)
    assert apply_transform(identity_matrix(3), x) == x


def test_apply_composite_matrix():
    # applying h_alpha then tau1 equals applying their product h_alpha @ tau1
    x = integral()
    h_a = ((2, 12), (0, 1))
    tau = ((2, 1), (0, 1))
    composite = mat_mul(h_a, tau)
    assert composite == ((4, 14), (0, 1))
    y = apply_transform(composite, x)
    assert y == apply_transform(tau, apply_transform(h_a, x))
    # (4, 14 + omega), and 14 + omega = (5 - sqrt(-23))/2
    assert y.coeffs[0] == QuadInt.from_int(4, D23)
    assert y.coeffs[1] == qi(5, -1)


def test_apply_dimension_mismatch():
    with pytest.raises(DomainError):
        apply_transform(identity_matrix(3), integral())
    with pytest.raises(DomainError):
        apply_transform(((1, 0), (0,)), integral())


def test_bool_entries_rejected():
    # bool is a subclass of int, but True is not a matrix entry
    with pytest.raises(DomainError, match="integers"):
        apply_transform(((True, 0), (0, 1)), integral())
    with pytest.raises(DomainError, match="integers"):
        mat_mul(identity_matrix(2), ((1, False), (0, 1)))


def test_matrix_that_is_not_a_list_of_rows_rejected():
    for h in (5, None, (1, 2), ((1, 2), 3)):
        with pytest.raises(DomainError, match="must be square"):
            apply_transform(h, integral())
        with pytest.raises(DomainError, match="must be square"):
            form_action(h, principal_norm_form(D23))
        with pytest.raises(DomainError, match="must be square"):
            mat_mul(identity_matrix(2), h)


def test_roundtrip_random():
    rng = random.Random(9)
    for _ in range(250):
        d = random_disc(rng, 500)
        m = rng.randrange(1, 5)
        x = random_tuple(rng, d, m, 20)
        g = tuple(
            tuple(rng.randrange(-9, 10) for _ in range(m)) for _ in range(m)
        )
        y = apply_transform(g, x)
        assert contains(x, y)
        h = solve_transform(x, y)
        assert apply_transform(h, x) == y


def test_solve_pads_unequal_lengths():
    x = integral()
    y = GenTuple([QuadInt.from_int(2, D23), qi(1, -1), QuadInt.from_int(4, D23)])
    h = solve_transform(x, y)
    assert len(h) == 3
    assert apply_transform(h, x.padded(3)) == y


def test_modules_equal_cases():
    d = D23
    x = integral()
    assert modules_equal(x, GenTuple([omega(), one()], d))  # permutation
    y = GenTuple([QuadInt.from_int(2, d), qi(1, -1)])
    assert not modules_equal(x, y)
    y2 = GenTuple([QuadInt.from_int(2, d), qi(1, -1), qi(1, -1) * 2])
    assert modules_equal(y, y2)  # redundant generator


def test_modules_equal_iff_two_way_solve():
    rng = random.Random(10)
    for _ in range(120):
        d = random_disc(rng, 500)
        x = random_tuple(rng, d, 2, 20)
        if hnf_basis(x).rank == 0:
            continue
        if rng.random() < 0.5:
            # an equal module: image of x under a product of shears (det 1)
            g = mat_mul(((1, rng.randrange(-4, 5)), (0, 1)), ((1, 0), (rng.randrange(-4, 5), 1)))
            y = apply_transform(g, x)
        else:
            y = apply_transform(((2, 0), (0, 2)), x)  # proper submodule
        equal = modules_equal(x, y)
        fwd = contains(x, y)
        bwd = contains(y, x)
        assert equal == (fwd and bwd)
        if equal:
            h1 = solve_transform(x, y)
            h2 = solve_transform(y, x)
            assert apply_transform(h1, x) == y
            assert apply_transform(h2, y) == x


def test_module_mul_unit_and_square():
    d = D23
    unit = GenTuple([one()], d)
    alpha = GenTuple([QuadInt.from_int(2, d), qi(-1, 1)])  # [2, (-1+sqrt d)/2]
    assert modules_equal(module_mul(alpha, unit), alpha)
    # alpha^2 = [4, (-5+sqrt d)/2]
    sq = module_mul(alpha, alpha)
    target = GenTuple([QuadInt.from_int(4, d), qi(-5, 1)])
    assert modules_equal(sq, target)
    assert hnf_basis(sq).coord_rows() == ((4, 0), (2, 1))
    # alpha * conj(alpha) = 2 * order (the norm ideal)
    conj = GenTuple([QuadInt.from_int(2, d), qi(-1, -1)])
    prod = module_mul(alpha, conj)
    assert modules_equal(prod, GenTuple([QuadInt.from_int(2, d), omega() * 2]))


def test_order_index_equals_conductor():
    # the order of discriminant d = f^2*dK has index f in the maximal
    # order: omega_d = u + f*omega_K with integral u = dK*f*(f-1)/2, so
    # the basis {(1, 0), (u, f)} over (1, omega_K) has determinant f
    rng = random.Random(12)
    for _ in range(60):
        d = random_disc(rng, 3000)
        f, dk = d.conductor, d.fundamental
        u2 = dk * f * (f - 1)
        assert u2 % 2 == 0
        # rational and sqrt parts of omega_d = (d - f*sqrt(dK))/2 match
        assert u2 + f * dk == d.d


def test_module_mul_commutes_associates():
    rng = random.Random(11)
    for _ in range(60):
        d = random_disc(rng, 500)
        x = random_tuple(rng, d, 2, 8)
        y = random_tuple(rng, d, 2, 8)
        z = random_tuple(rng, d, 2, 8)
        assert modules_equal(module_mul(x, y), module_mul(y, x))
        assert modules_equal(
            module_mul(module_mul(x, y), z), module_mul(x, module_mul(y, z))
        )


def _from_coords(*pairs, d=D23):
    return GenTuple([QuadInt.from_coords(u, v, d) for u, v in pairs], d)


# exact solver outputs, one case per shape of the source's triangular basis:
# (source coords, target coords, basis coord rows, matrix or None when the
# target is not a submodule)
SOLVE_CASES = [
    # rank 0
    (((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 0), (0, 0)), (),
     ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
    (((0, 0), (0, 0)), ((0, 0), (1, 0)), (), None),
    # rank 1, integer-only, including a negative first generator
    (((6, 0), (-4, 0)), ((2, 0), (-8, 0)), ((2, 0),), ((-1, 4), (-2, 8))),
    (((-6, 0), (0, 0), (10, 0)), ((4, 0), (0, 0), (-2, 0)), ((2, 0),),
     ((-4, 0, 2), (0, 0, 0), (-2, 0, 1))),
    (((6, 0), (-4, 0)), ((1, 0), (0, 0)), ((2, 0),), None),
    # rank 1, omega-only and a line through omega, sign-normalized to v > 0
    (((0, -3), (0, 6)), ((0, 3), (0, -9)), ((0, 3),), ((1, -3), (1, -3))),
    (((-24, -2), (48, 4)), ((24, 2), (-72, -6)), ((24, 2),), ((1, -3), (1, -3))),
    (((-24, -2), (48, 4)), ((24, 1), (0, 0)), ((24, 2),), None),
    # rank 2
    (((4, 0), (12, 2), (7, 3)), ((1, 1), (0, 0), (6, -2)), ((2, 0), (1, 1)),
     ((-15, 0, 10), (8, 0, -4), (-5, 0, 2))),
    (((4, 0), (12, 2), (7, 3)), ((1, 1), (0, 0), (5, -2)), ((2, 0), (1, 1)), None),
    (((3, 5), (-2, 7)), ((13, 1), (-1, -12)), ((31, 0), (13, 1)), ((3, -1), (-2, -1))),
    # source and target of unequal length
    (((2, 0), (1, 1), (0, 3)), ((3, 1),), ((1, 0), (0, 1)),
     ((-2, 0, 0), (7, 0, 0), (-2, 0, 0))),
    (((1, 0), (0, 1)), ((2, 0), (12, 1), (4, 0), (-5, -7)), ((1, 0), (0, 1)),
     ((2, 12, 4, -5), (0, 1, 0, -7), (0, 0, 0, 0), (0, 0, 0, 0))),
    (((0, 0),), ((0, 0), (0, 0), (0, 0)), (), ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
]


@pytest.mark.parametrize("src,dst,basis,expected", SOLVE_CASES)
def test_solve_exact_outputs(src, dst, basis, expected):
    x, y = _from_coords(*src), _from_coords(*dst)
    assert hnf_basis(x).coord_rows() == basis
    assert contains(x, y) == (expected is not None)
    if expected is None:
        with pytest.raises(DomainError, match="not a submodule"):
            solve_transform(x, y)
        return
    h = solve_transform(x, y)
    assert h == expected
    m = max(x.m, y.m)
    assert apply_transform(h, x.padded(m)) == y.padded(m)
