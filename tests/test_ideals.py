import inspect
import math
import random

import pytest

import quadgenus.ideals as ideals
import quadgenus.lattice as lattice
import quadgenus.normforms as normforms
from quadgenus.arith import Discriminant, DomainError, QuadInt
from quadgenus.forms import (
    BinaryForm,
    compose_crt,
    enumerate_reduced,
    is_equivalent,
    principal_form,
    reduce_form,
)
from quadgenus.ideals import (
    OrderIdeal,
    compose_via_matrices,
    form_to_ideal,
    h_alpha,
    ideal_mul,
    ideal_to_form,
    tau_pair,
)
from quadgenus.lattice import GenTuple, apply_transform, hnf_basis, mat_mul, module_mul
from quadgenus.normforms import form_action, integral_tuple, principal_norm_form

from oracles import (
    big_pairs,
    discs,
    every_pair,
    ideal_route,
    random_disc,
    rebind,
    recorder,
    run_child,
)

D23 = Discriminant(-23)


def test_ideal_validation():
    OrderIdeal(2, 1, D23)
    OrderIdeal(4, 5, D23)
    with pytest.raises(DomainError):
        OrderIdeal(5, 1, D23)  # b^2 - d = 24 not divisible by 4a = 20
    with pytest.raises(DomainError):
        OrderIdeal(-2, 1, D23)
    with pytest.raises(DomainError):
        OrderIdeal(4, 2, Discriminant(-28))  # gcd(4, 2, 2) = 2


def test_ideal_equality_is_lattice_equality():
    assert OrderIdeal(4, 5, D23) == OrderIdeal(4, -19, D23)
    assert OrderIdeal(4, 5, D23) != OrderIdeal(4, 3, D23)
    assert OrderIdeal(2, 1, D23) != OrderIdeal(4, 5, D23)


def test_form_to_ideal_examples():
    assert form_to_ideal(BinaryForm(1, 1, 6, D23)) == OrderIdeal(1, 1, D23)
    assert form_to_ideal(BinaryForm(2, 1, 3, D23)) == OrderIdeal(2, 1, D23)
    assert form_to_ideal(BinaryForm(4, 5, 3, D23)) == OrderIdeal(4, 5, D23)


def test_ideal_to_form_examples():
    assert ideal_to_form(OrderIdeal(2, 1, D23)).triple() == (2, 1, 3)
    assert ideal_to_form(OrderIdeal(4, 5, D23)).triple() == (4, 5, 3)
    assert ideal_to_form(OrderIdeal(1, 1, D23)) == principal_form(D23)


def _counted_init(monkeypatch, cls):
    """The argument tuples, self first, of every cls.__init__ call from now on."""
    counted = recorder(cls.__init__)
    monkeypatch.setattr(cls, "__init__", counted)
    return counted.calls


def test_form_keeps_its_ideal(monkeypatch):
    f = BinaryForm(4, 5, 3, D23)
    calls = _counted_init(monkeypatch, OrderIdeal)
    ideals_seen = [form_to_ideal(f) for _ in range(3)]
    assert [args[1:] for args in calls] == [(4, 5, D23)]
    assert ideals_seen[0] is ideals_seen[1] is ideals_seen[2]


def test_ideal_keeps_its_generator_tuple(monkeypatch):
    alpha = OrderIdeal(4, 5, D23)
    calls = _counted_init(monkeypatch, GenTuple)
    first = alpha.gen_tuple()
    assert alpha.gen_tuple() is first
    assert len(calls) == 1
    assert first.coeffs == (QuadInt.from_int(4, D23), QuadInt(5, -1, D23))


def test_kept_ideal_and_tuple_are_not_part_of_the_value():
    f, fresh = BinaryForm(4, 5, 3, D23), BinaryForm(4, 5, 3, D23)
    alpha = form_to_ideal(f)
    assert form_to_ideal(f) is alpha and alpha.gen_tuple() is alpha.gen_tuple()
    assert f == fresh and hash(f) == hash(fresh) and len({f, fresh}) == 1
    assert (str(f), repr(f)) == (str(fresh), repr(fresh))
    plain = OrderIdeal(4, 5, D23)
    assert alpha == plain and hash(alpha) == hash(plain)
    assert (str(alpha), repr(alpha)) == (str(plain), repr(plain))


def _random_ideal(rng):
    d = random_disc(rng, 5000)
    f = rng.choice(enumerate_reduced(d))
    # shift b by a multiple of 2a: same ideal, different presentation
    k = rng.randrange(-4, 5)
    return OrderIdeal(f.a, f.b + 2 * k * f.a, d)


def test_dictionary_roundtrips_random():
    rng = random.Random(40)
    for _ in range(300):
        alpha = _random_ideal(rng)
        f = ideal_to_form(alpha)
        assert form_to_ideal(f) == alpha
        assert (f.a, f.b) == (alpha.a, alpha.b)  # exact fields, not just classes
        g = reduce_form(f)[0]
        assert ideal_to_form(form_to_ideal(g)) == g


def test_ideal_mul_unit():
    rng = random.Random(41)
    for _ in range(50):
        alpha = _random_ideal(rng)
        order = OrderIdeal(1, alpha.disc.d % 2, alpha.disc)
        content, prod = ideal_mul(alpha, order)
        assert content == 1
        assert prod == alpha


def test_ideal_mul_examples():
    alpha = OrderIdeal(2, 1, D23)
    content, sq = ideal_mul(alpha, alpha)
    assert content == 1
    assert (sq.a, sq.b) == (4, 5)
    content, nrm = ideal_mul(alpha, alpha.conjugate())
    assert content == 2  # alpha * conj(alpha) = norm(alpha) * order
    assert (nrm.a, nrm.b % 2) == (1, 1)


def test_norm_multiplicativity_concordant():
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        a1 = _random_ideal(rng)
        forms = enumerate_reduced(a1.disc)
        f2 = rng.choice(forms)
        a2 = OrderIdeal(f2.a, f2.b + 2 * rng.randrange(-4, 5) * f2.a, a1.disc)
        if math.gcd(a1.a, a2.a, (a1.b + a2.b) // 2) != 1:
            continue
        content, prod = ideal_mul(a1, a2)
        assert content == 1
        assert prod.a == a1.a * a2.a
        checked += 1


def test_h_alpha_examples_and_coherence():
    assert h_alpha(OrderIdeal(2, 1, D23)) == ((2, 12), (0, 1))
    assert h_alpha(OrderIdeal(4, 5, D23)) == ((4, 14), (0, 1))
    assert h_alpha(OrderIdeal(1, 1, D23)) == ((1, 12), (0, 1))
    rng = random.Random(43)
    for _ in range(100):
        alpha = _random_ideal(rng)
        moved = apply_transform(h_alpha(alpha), integral_tuple(alpha.disc))
        assert moved == alpha.gen_tuple()


def test_tau_pair_square_example():
    alpha = OrderIdeal(2, 1, D23)
    tau1, tau2, bb, k1, k2 = tau_pair(alpha, alpha)
    assert (bb, k1, k2) == (5, 1, 1)
    assert tau1 == ((2, 1), (0, 1))
    assert tau2 == ((2, 1), (0, 1))
    assert mat_mul(h_alpha(alpha), tau1) == ((4, 14), (0, 1))


def test_tau_pair_principal():
    rng = random.Random(44)
    for _ in range(50):
        beta = _random_ideal(rng)
        d = beta.disc
        alpha = OrderIdeal(1, d.d % 2, d)
        tau1, tau2, bb, k1, k2 = tau_pair(alpha, beta)
        assert tau1 == ((beta.a, k1), (0, 1))
        assert (bb - beta.b) % (2 * beta.a) == 0
        assert alpha.b + 2 * k1 * alpha.a == bb


def test_tau_pair_moves_both_ideals_onto_product():
    # every pair, concordant or not: both taus carry their ideal onto e times
    # gamma = [aa'/e^2, B], and h_alpha @ tau1 is e*[[aa'/e^2, (B-d)/2], [0, 1]]
    rng = random.Random(45)
    wide = 0
    for _ in range(300):
        a1 = _random_ideal(rng)
        forms = enumerate_reduced(a1.disc)
        f2 = rng.choice(forms)
        a2 = OrderIdeal(f2.a, f2.b + 2 * rng.randrange(-4, 5) * f2.a, a1.disc)
        e = math.gcd(a1.a, a2.a, (a1.b + a2.b) // 2)
        tau1, tau2, bb, k1, k2 = tau_pair(a1, a2)
        a3 = a1.a * a2.a // (e * e)
        gamma = OrderIdeal(a3, bb, a1.disc)
        scaled = tuple((e * u, e * v) for u, v in gamma.gen_tuple().coords())
        assert apply_transform(tau1, a1.gen_tuple()).coords() == scaled
        assert apply_transform(tau2, a2.gen_tuple()).coords() == scaled
        d = a1.disc.d
        assert mat_mul(h_alpha(a1), tau1) == ((e * a3, e * (bb - d) // 2), (0, e))
        # and the product module really is e * gamma
        assert ideal_mul(a1, a2) == (e, gamma)
        wide += e > 1
    assert wide > 0


def test_tau_pair_non_concordant_example():
    # e = gcd(2, 2, 0) = 2 and aa'/e^2 = 1, so B = 1 and the product is 2*[1, 1]
    alpha = OrderIdeal(2, 1, D23)
    tau1, tau2, bb, k1, k2 = tau_pair(alpha, alpha.conjugate())
    assert (bb, k1, k2) == (1, 0, 1)
    assert tau1 == ((1, 0), (0, 2))
    assert tau2 == ((1, 1), (0, 2))
    assert mat_mul(h_alpha(alpha), tau1) == ((2, 24), (0, 2))


def test_tau_pair_checks_the_composite_b(monkeypatch):
    real = ideals.composition_b
    monkeypatch.setattr(ideals, "composition_b", lambda *args: (real(*args)[0], real(*args)[1] + 1))
    alpha = OrderIdeal(2, 1, D23)
    with pytest.raises(AssertionError) as info:
        tau_pair(alpha, alpha)
    assert str(info.value) == "composite B is not b (mod 2a/e) and b' (mod 2a'/e)"


@pytest.mark.parametrize(
    "rows, message",
    [
        (((0, 0), (0, 0)), "ideal product degenerated"),
        (((3, 0), (0, 2)), "ideal product is not an ideal"),  # 2 does not divide 3
    ],
)
def test_ideal_mul_checks_the_product_basis(monkeypatch, rows, message):
    monkeypatch.setattr(ideals, "_basis_rows", lambda coords: rows)
    alpha = OrderIdeal(2, 1, D23)
    with pytest.raises(AssertionError) as info:
        ideal_mul(alpha, alpha)
    assert str(info.value) == message


def _forbid_norm_form(monkeypatch):
    """Make norm_form raise through every module binding of it."""

    def broken(x):
        raise RuntimeError("norm_form called")

    rebind(monkeypatch, normforms.norm_form, broken)


def test_compose_via_matrices_needs_no_norm_form_expansion(monkeypatch):
    # the matrix route writes the order's norm form down; it expands none
    _forbid_norm_form(monkeypatch)
    for f, g in every_pair((-84, -23)):
        assert compose_via_matrices(f, g) == compose_crt(f, g)


def test_ideal_route_needs_no_norm_form_expansion(monkeypatch):
    # ideal_to_form writes the form down, so the ideal route is ideal_mul's HNF
    _forbid_norm_form(monkeypatch)
    for f, g in every_pair((-84, -23)):
        assert ideal_route(f, g) == compose_crt(f, g)


def test_matrix_route_checks_only_caller_matrices(monkeypatch):
    # h_alpha and tau1 are built from validated ints and substituted
    # unchecked; the public form_action checks its caller's matrix once
    counted = recorder(lattice.check_matrix)
    rebind(monkeypatch, lattice.check_matrix, counted)
    for f, g in every_pair((-84, -23)):
        assert compose_via_matrices(f, g) == compose_crt(f, g)
    assert counted.calls == []
    form_action(h_alpha(OrderIdeal(2, 1, D23)), principal_norm_form(D23))
    assert len(counted.calls) == 1


# pairs whose matrix-route coefficients the skewed h_alpha leaves not
# divisible by aa': two with e = 1, and two with e = 2 and 3 where
# aa'/e^2 = 4 (at aa'/e^2 = 1 the skewed corner still gives the right class)
_SKEWED_PAIRS = (
    (-23, (2, 1, 3), (2, 1, 3)),
    (-76, (4, -2, 5), (4, -2, 5)),
    (-84, (2, 2, 11), (3, 0, 7)),
    (-159, (6, -3, 7), (6, -3, 7)),
)


def _skewed_h_alpha(alpha):
    """h_alpha one off in its corner entry: a wrong matrix of the right shape."""
    return ((alpha.a, (alpha.b - alpha.disc.d) // 2 + 1), (0, 1))


def test_wrong_internal_matrix_fails_the_divisibility_check(monkeypatch):
    monkeypatch.setattr(ideals, "h_alpha", _skewed_h_alpha)
    for dv, f, g in _SKEWED_PAIRS:
        d = Discriminant(dv)
        with pytest.raises(AssertionError, match="not divisible by aa'"):
            compose_via_matrices(BinaryForm(*f, d), BinaryForm(*g, d))


def test_wrong_internal_matrix_fails_the_divisibility_check_under_O():
    # the same check in a child run with assert statements compiled out
    code = inspect.getsource(_skewed_h_alpha) + "\n".join([
        "import quadgenus.ideals as ideals",
        "from quadgenus.arith import Discriminant",
        "from quadgenus.forms import BinaryForm",
        "ideals.h_alpha = _skewed_h_alpha",
        f"for dv, f, g in {_SKEWED_PAIRS!r}:",
        "    d = Discriminant(dv)",
        "    try:",
        "        ideals.compose_via_matrices(BinaryForm(*f, d), BinaryForm(*g, d))",
        "    except AssertionError as exc:",
        "        print(exc)",
    ])
    proc = run_child("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "matrix composition not divisible by aa'\n" * len(_SKEWED_PAIRS)


def test_compose_via_matrices_square():
    f = BinaryForm(2, 1, 3, D23)
    assert compose_via_matrices(f, f).triple() == (2, -1, 3)


def test_compose_via_matrices_identity():
    for f in enumerate_reduced(D23):
        assert compose_via_matrices(f, principal_form(D23)) == f


def test_compose_routes_agree_random():
    rng = random.Random(46)
    checked = 0
    while checked < 250:
        forms = enumerate_reduced(random_disc(rng, 5000))
        f, g = rng.choice(forms), rng.choice(forms)
        assert compose_via_matrices(f, g) == compose_crt(f, g)
        checked += 1


def test_commuting_square_random():
    # composing forms and multiplying ideals tell the same class story
    rng = random.Random(47)
    checked = 0
    while checked < 200:
        forms = enumerate_reduced(random_disc(rng, 3000))
        f, g = rng.choice(forms), rng.choice(forms)
        _, prod = ideal_mul(form_to_ideal(f), form_to_ideal(g))
        assert is_equivalent(ideal_to_form(prod), compose_crt(f, g))
        checked += 1


def _two_step_triple(f, g):
    """The matrix route's unreduced triple, substituting h_alpha and then
    tau1 one after the other into the principal norm form through the
    public form_action, which shares no code with the route's expansion."""
    disc = f.disc
    alpha, beta = form_to_ideal(f), form_to_ideal(g)
    tau1 = tau_pair(alpha, beta)[0]
    step = form_action(h_alpha(alpha), principal_norm_form(disc))
    triple = form_action(tau1, step).binary_triple()
    aa = f.a * g.a
    assert all(x % aa == 0 for x in triple)
    return tuple(x // aa for x in triple)


def _basis_ideal_mul(alpha, beta):
    """ideal_mul through the canonical ZModuleBasis of the product lattice."""
    (n, zero), (u, v) = hnf_basis(module_mul(alpha.gen_tuple(), beta.gen_tuple())).coord_rows()
    assert zero == 0 and n % v == 0 and u % v == 0
    a = n // v
    return v, a, (2 * (u // v) + alpha.disc.d) % (2 * a)


def _route_triples(monkeypatch, pairs):
    """(f, g, the route's unreduced triple, the two-step triple) per pair."""
    reduced = recorder(reduce_form)
    monkeypatch.setattr(ideals, "reduce_form", reduced)
    for f, g in pairs:
        compose_via_matrices(f, g)
        yield f, g, reduced.calls.pop()[0].triple(), _two_step_triple(f, g)


def test_one_substitution_matches_two_steps(monkeypatch):
    # h_alpha @ tau1 substituted once gives the unreduced triple of h_alpha
    # and tau1 substituted in turn, on every ordered pair, e > 1 ones too
    wide = checked = 0
    for f, g, one, two in _route_triples(monkeypatch, every_pair(discs(1200))):
        assert one == two, (f, g)
        wide += math.gcd(f.a, g.a, (f.b + g.b) // 2) > 1
        checked += 1
    assert checked == 85408 and wide > 0


def test_one_substitution_matches_two_steps_at_large_d(monkeypatch):
    pairs = list(big_pairs())
    assert any(math.gcd(f.a, g.a, (f.b + g.b) // 2) > 1 for f, g in pairs)
    counted = recorder(form_action)
    monkeypatch.setitem(globals(), "form_action", counted)
    for f, g, one, two in _route_triples(monkeypatch, pairs):
        assert one == two, (f, g)
    # the oracle runs on the public, checked form_action: two calls a pair
    assert len(counted.calls) == 2 * len(pairs)


def test_ideal_mul_matches_basis_oracle():
    checked = 0
    for f, g in every_pair(discs(1000)):
        alpha, beta = form_to_ideal(f), form_to_ideal(g)
        content, prod = ideal_mul(alpha, beta)
        assert (content, prod.a, prod.b) == _basis_ideal_mul(alpha, beta), (f, g)
        checked += 1
    assert checked > 50000


def test_ideal_mul_matches_basis_oracle_at_large_d():
    for f, g in big_pairs():
        alpha, beta = form_to_ideal(f), form_to_ideal(g)
        content, prod = ideal_mul(alpha, beta)
        assert (content, prod.a, prod.b) == _basis_ideal_mul(alpha, beta)


def test_str_shapes():
    assert str(OrderIdeal(4, 5, D23)) == "[4, (-5+sqrt(-23))/2]"
    assert str(OrderIdeal(2, -1, D23)) == "[2, (1+sqrt(-23))/2]"
