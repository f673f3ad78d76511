import itertools
import math
import random
import time

import pytest

import quadgenus.classgroup as classgroup
import quadgenus.forms as forms
from quadgenus.arith import Discriminant
from quadgenus.classgroup import (
    _smith_invariants,
    cl_mod_squares,
    class_group,
    genus_count_from_factorization,
    two_torsion,
)
from quadgenus.forms import BinaryForm, _compose_ab, compose_crt, enumerate_reduced, form_inverse

from oracles import big_pairs, discs, distinct_primes, is_fundamental, recorder, run_child


def _crt_table(g):
    """The Cayley table of g by full pairwise compose_crt, the reference
    that ClassGroup.table's integer kernel is checked against."""
    position = {f: i for i, f in enumerate(g.elements)}
    return [[position[compose_crt(f, k)] for k in g.elements] for f in g.elements]


def test_trivial_group():
    g = class_group(Discriminant(-4))
    assert g.h == 1
    assert g.structure == []
    assert [f.triple() for f in two_torsion(g)] == [(1, 0, 1)]
    assert cl_mod_squares(g)[0] == 1


def test_cyclic_three():
    g = class_group(Discriminant(-23))
    assert g.h == 3
    assert g.structure == [3]
    assert [f.triple() for f in two_torsion(g)] == [(1, 1, 6)]
    order, reps = cl_mod_squares(g)
    assert order == 1
    assert [f.triple() for f in reps] == [(1, 1, 6)]
    assert g.index_of(BinaryForm(4, 5, 3, g.disc)) == 1  # reduces to (2,-1,3)
    with pytest.raises(KeyError):
        g.index_of(BinaryForm(1, 1, 1, Discriminant(-3)))  # same (a, b) as (1,1,6)


def test_klein_four():
    g = class_group(Discriminant(-84))
    assert g.h == 4
    assert g.structure == [2, 2]
    assert len(two_torsion(g)) == 4
    assert cl_mod_squares(g)[0] == 4
    assert repr(g) == "ClassGroup(d=-84, h=4, structure=[2, 2])"


def test_order_two():
    g = class_group(Discriminant(-20))
    assert g.h == 2
    assert [f.triple() for f in two_torsion(g)] == [(1, 0, 5), (2, 2, 3)]
    assert cl_mod_squares(g)[0] == 2


def test_known_structures():
    # composite shapes from the classical tables
    assert class_group(Discriminant(-47)).structure == [5]
    assert class_group(Discriminant(-71)).structure == [7]
    assert class_group(Discriminant(-480)).structure == [2, 2, 2]
    assert class_group(Discriminant(-195)).structure == [2, 2]
    assert class_group(Discriminant(-231)).structure == [2, 6]
    assert class_group(Discriminant(-455)).structure == [2, 10]
    # the largest discriminant with one class per genus
    assert class_group(Discriminant(-5460)).structure == [2, 2, 2, 2]


def test_structure_matches_order_statistics():
    # independent oracle: the multiset of element orders of the group
    # determined by the invariant factors must match the table
    rng = random.Random(50)
    for dv in rng.sample(discs(599), 60):
        g = class_group(Discriminant(dv))
        table = _crt_table(g)
        # table orders
        orders = []
        for i in range(g.h):
            k = table[0][i]
            n = 1
            while k != 0:
                k = table[k][i]
                n += 1
            orders.append(n)
        # predicted: number of elements of order dividing m is prod gcd(n_i, m)
        for m in range(1, max(orders) + 1):
            predicted = math.prod(math.gcd(n, m) for n in g.structure)
            assert predicted == sum(1 for o in orders if m % o == 0)


def test_genus_count_small_range():
    for dv in discs(499):
        if not is_fundamental(dv):
            continue
        g = class_group(Discriminant(dv))
        order, _ = cl_mod_squares(g)
        assert order == 2 ** (distinct_primes(dv) - 1)
        assert order == genus_count_from_factorization(g.disc)


def test_genus_count_every_discriminant():
    # 2**(mu-1) for non-fundamental d too: d = -12 has one genus, d = -32 two
    assert genus_count_from_factorization(Discriminant(-12)) == 1
    assert genus_count_from_factorization(Discriminant(-32)) == 2
    for dv in discs(4000):
        g = class_group(Discriminant(dv))
        assert genus_count_from_factorization(g.disc) == cl_mod_squares(g)[0], dv


def test_genus_count_of_a_strong_pseudoprime_discriminant():
    # d = -4 * 399165290221 * 798330580441 has three prime divisors
    assert genus_count_from_factorization(Discriminant(-4 * 318665857834031151167461)) == 4


def test_two_torsion_equals_genus_order():
    for dv in discs(399):
        g = class_group(Discriminant(dv))
        assert len(two_torsion(g)) == cl_mod_squares(g)[0]


def _kronecker_symbols(d, spf):
    """[(d/a) for a < len(spf)], spf[a] the least prime factor of a > 1: the
    Kronecker symbol is completely multiplicative in a > 0, (d/2) comes from
    d mod 8 and (d/p) from Euler's criterion at odd primes p."""
    chi = [0, 1]
    for a in range(2, len(spf)):
        p = spf[a]
        if a != p:
            chi.append(chi[p] * chi[a // p])
        elif p == 2:
            chi.append(0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1)
        else:
            r = pow(d, (p - 1) // 2, p)
            chi.append(r if r <= 1 else -1)
    return chi


def test_dirichlet_class_number_formula():
    # h(d) = -(w/(2|d|)) * sum_{a=1}^{|d|} (d/a)*a for fundamental d < 0,
    # w the number of units: an analytic oracle independent of the forms
    limit = 2000
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        for k in range(p * p, limit + 1, p):
            if spf[k] == k:
                spf[k] = p
    t0 = time.monotonic()
    checked = 0
    for d in discs(limit):
        if not is_fundamental(d):
            continue
        w = {-3: 6, -4: 4}.get(d, 2)
        total = sum(c * a for a, c in enumerate(_kronecker_symbols(d, spf[: 1 - d])))
        h, r = divmod(-w * total, -2 * d)
        assert r == 0 and h == class_group(Discriminant(d)).h, d
        checked += 1
    assert checked == 611
    assert time.monotonic() - t0 < 2.0


def test_inverse_lands_in_same_coset():
    # conjugation acts trivially on the quotient by squares
    for dv in (-23, -84, -120, -231, -479, -455):
        g = class_group(Discriminant(dv))
        order, reps = cl_mod_squares(g)
        t = _crt_table(g)
        squares = {t[i][i] for i in range(g.h)}
        rep_of = {}
        for i in range(g.h):
            cos = frozenset(t[i][s] for s in squares)
            rep_of[i] = min(cos)
        for i, f in enumerate(g.elements):
            j = g.index_of(form_inverse(f))
            assert rep_of[i] == rep_of[j]


# --- Cayley-table oracles -----------------------------------------------------
# They read only _crt_table(g), which is filled by full pairwise compose_crt:
# invariant factors by peeling off cyclic subgroups of maximal order,
# two-torsion from the diagonal, and the squares quotient by a coset sweep.


def _orders(table, e):
    out = []
    for i in range(len(table)):
        k = table[e][i]
        n = 1
        while k != e:
            k = table[k][i]
            n += 1
        out.append(n)
    return out


def _quotient_table(table, e, gen):
    # cosets of the cyclic subgroup generated by gen
    n = len(table)
    sub = [e]
    k = table[e][gen]
    while k != e:
        sub.append(k)
        k = table[k][gen]
    coset_of = [-1] * n
    reps = []
    for i in range(n):
        if coset_of[i] >= 0:
            continue
        cid = len(reps)
        reps.append(i)
        for s in sub:
            coset_of[table[i][s]] = cid
    q = [[coset_of[table[reps[i]][reps[j]]] for j in range(len(reps))] for i in range(len(reps))]
    return q, coset_of[e]


def _invariant_factors(table, e):
    # peel off a cyclic subgroup of maximal order and recurse on the quotient
    if len(table) == 1:
        return []
    orders = _orders(table, e)
    top = max(orders)
    gen = orders.index(top)
    q, qe = _quotient_table(table, e, gen)
    return _invariant_factors(q, qe) + [top]


def _table_two_torsion(g, t):
    return [f for i, f in enumerate(g.elements) if t[i][i] == 0]


def _table_cl_mod_squares(g, t):
    squares = sorted({t[i][i] for i in range(g.h)})
    seen = [False] * g.h
    reps = []
    for i in range(g.h):
        if seen[i]:
            continue
        reps.append(g.elements[i])
        for s in squares:
            seen[t[i][s]] = True
    return len(reps), reps


@pytest.fixture(scope="module")
def crt_tables():
    """(class_group(d), _crt_table of it) for every d in [-2000, -3], built
    once for the sweeps that only read them."""
    groups = [class_group(Discriminant(dv)) for dv in discs(2000)]
    return [(g, _crt_table(g)) for g in groups]


def test_generator_extension_matches_cayley_table(crt_tables):
    # -4980 is the first d with five generators, -5460 has Cl = (Z/2)^4
    wide = [class_group(Discriminant(dv)) for dv in (-4980, -5460)]
    for g, t in crt_tables + [(g, _crt_table(g)) for g in wide]:
        dv = g.disc.d
        assert g.structure == _invariant_factors(t, 0), dv
        assert two_torsion(g) == _table_two_torsion(g, t), dv
        assert cl_mod_squares(g) == _table_cl_mod_squares(g, t), dv


def test_table_matches_compose_crt(crt_tables):
    for g, t in crt_tables:
        assert g.table == t, g.disc.d


def test_squares_quotient_reduces_each_generator_once(monkeypatch):
    # reduction mod the GF(2) basis is linear: one call per relation row and
    # one per generator's unit vector, however many classes there are
    counted = recorder(classgroup._mod2)
    monkeypatch.setattr(classgroup, "_mod2", counted)
    for dv in (-5460, -4000003):
        g = class_group(Discriminant(dv))
        counted.calls.clear()
        cl_mod_squares(g)
        assert len(counted.calls) <= 2 * len(g.relations), dv


def test_exponent_vectors_compose_like_the_table():
    # coords is a homomorphism onto Z^k / relations: adding the vectors of
    # two classes lands on their product, modulo the relation rows
    for dv in (-84, -231, -455, -480, -5460, -1155, -3299):
        g = class_group(Discriminant(dv))
        k = len(g.relations)
        diag = [r[t] for t, r in enumerate(g.relations)]

        def normal(v):
            # the relation matrix is lower triangular: clear from the last
            # coordinate down
            v = list(v)
            for t in reversed(range(k)):
                q = v[t] // diag[t]
                v = [x - q * y for x, y in zip(v, g.relations[t])]
            return tuple(v)

        assert len({normal(c) for c in g.coords}) == g.h
        t = _crt_table(g)
        for i in range(g.h):
            for j in range(g.h):
                s = [x + y for x, y in zip(g.coords[i], g.coords[j])]
                assert normal(s) == normal(g.coords[t[i][j]])


def test_smith_invariants():
    assert _smith_invariants([]) == []
    assert _smith_invariants([[6]]) == [6]
    assert _smith_invariants([[2, 0], [0, 3]]) == [6]
    assert _smith_invariants([[4, 0], [-2, 2]]) == [2, 4]
    assert _smith_invariants([[2, 0, 0], [0, 4, 0], [0, 0, 6]]) == [2, 2, 12]
    assert _smith_invariants([[12, 0], [-6, 2]]) == [2, 12]
    assert _smith_invariants([[0, 3], [5, 0]]) == [15]
    assert _smith_invariants([[2, 4], [-2, 4]]) == [2, 8]

    # against the determinantal divisors: n1*...*nj = gcd of the j x j minors
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    rng = random.Random(4)
    for _ in range(300):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        if det(m) == 0:
            continue
        factors = [1] * (3 - len(_smith_invariants(m))) + _smith_invariants(m)
        for j in range(1, 4):
            minors = [det([[m[r][c] for c in cols] for r in rows])
                      for rows in itertools.combinations(range(3), j)
                      for cols in itertools.combinations(range(3), j)]
            assert math.prod(factors[:j]) == math.gcd(*minors), m


def test_class_group_composes_about_h_times(monkeypatch):
    # the generator loop and the table both compose with the integer
    # kernel, counted through its classgroup binding
    counted = recorder(classgroup._compose_ab)
    calls = counted.calls
    monkeypatch.setattr(classgroup, "_compose_ab", counted)
    for dv in (-4000003, -4, -23, -84, -455, -30011, -5460):
        calls.clear()
        g = class_group(Discriminant(dv))
        two_torsion(g)
        cl_mod_squares(g)
        assert len(calls) <= g.h, dv
        assert g._table is None
    calls.clear()
    assert len(g.table) == g.h and len(calls) == g.h * (g.h + 1) // 2
    calls.clear()
    # about half the classes are composed, the rest are inverses
    total_h = sum(class_group(Discriminant(dv)).h for dv in discs(6000))
    assert 0 < len(calls) <= 0.55 * total_h


def test_kernel_matches_compose_crt_on_every_pair(crt_tables):
    # the table entry is the index of compose_crt(f, k) among the elements
    pairs = 0
    for g, t in crt_tables:
        elements, dv = g.elements, g.disc.d
        for f, row in zip(elements, t):
            for k, j in zip(elements, row):
                assert _compose_ab(f.a, f.b, k.a, k.b, dv) == elements[j].triple(), (f, k)
                pairs += 1
    assert pairs == 240907


def test_kernel_matches_compose_crt_at_large_discriminants():
    # squares, cubes and inverse pairs at 20, 50 and 200 digits
    wide = 0
    for f, g in big_pairs():
        assert _compose_ab(f.a, f.b, g.a, g.b, f.disc.d) == compose_crt(f, g).triple(), (f, g)
        wide += math.gcd(f.a, g.a, (f.b + g.b) // 2) > 1
    assert wide > 0


# d = -84: the first composition of the generator loop is (2,2,11)*(3,0,7);
# with B off by 2, (B^2 - d)/(4*a3) is no integer there
_INEXACT = "composite of (2,2) and (3,0) has no integral c at d = -84"


def test_kernel_checks_that_the_composite_is_exact(monkeypatch):
    real = forms.composition_b
    monkeypatch.setattr(forms, "composition_b", lambda *args: (real(*args)[0], real(*args)[1] + 2))
    with pytest.raises(AssertionError) as info:
        class_group(Discriminant(-84))
    assert str(info.value) == _INEXACT


def test_kernel_checks_that_the_composite_is_exact_under_O():
    code = "\n".join([
        "import quadgenus.classgroup as classgroup",
        "import quadgenus.forms as forms",
        "from quadgenus.arith import Discriminant",
        "real = forms.composition_b",
        "forms.composition_b = lambda *args: (real(*args)[0], real(*args)[1] + 2)",
        "try:",
        "    classgroup.class_group(Discriminant(-84))",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    proc = run_child("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _INEXACT + "\n"


@pytest.mark.parametrize("dv", [-84, -5460, -30011])
def test_generator_loop_builds_no_forms(monkeypatch, dv):
    # the enumeration builds h forms and the principal-form check one more
    disc = Discriminant(dv)
    counted = recorder(BinaryForm.__init__)
    monkeypatch.setattr(BinaryForm, "__init__", counted)
    g = class_group(disc)
    assert g.h > 1 and len(counted.calls) == g.h + 1


# --- the coset-by-composition loop --------------------------------------------
# class_group before cosets were read off by inversion: every coset g**j * S
# for 0 < j < m is composed, and g**m is composed to find its vector in S.


def _class_group_by_composition(disc):
    elements = enumerate_reduced(disc)
    h = len(elements)
    index = {(f.a, f.b): i for i, f in enumerate(elements)}
    coords = [None] * h
    coords[0] = ()
    sub = [0]
    found = []
    nxt = 1
    while len(sub) < h:
        while coords[nxt] is not None:
            nxt += 1
        gen = elements[nxt]

        def times_gen(x):
            p = compose_crt(elements[x], gen)
            return index[(p.a, p.b)]

        t = len(found)
        coset = sub
        m = 1
        while coords[k := times_gen(coset[0])] is None:
            new = [k] + [times_gen(x) for x in coset[1:]]
            for x, y in zip(coset, new):
                assert coords[y] is None
                c = coords[x][:t]
                coords[y] = c + (0,) * (t - len(c)) + (m,)
            sub += new
            coset = new
            m += 1
        found.append((m, coords[k]))
    n = len(found)
    coords = [c + (0,) * (n - len(c)) for c in coords]
    relations = []
    for t, (m, img) in enumerate(found):
        row = [-e for e in img] + [0] * (n - len(img))
        row[t] += m
        relations.append(tuple(row))
    return elements, coords, relations, _smith_invariants(relations)


def test_inversion_matches_composition_loop():
    for dv in discs(6000) + [-4000003]:
        g = class_group(Discriminant(dv))
        assert (g.elements, g.coords, g.relations, g.structure) == \
            _class_group_by_composition(g.disc), dv


def test_inverted_class_that_already_has_a_vector_raises(monkeypatch):
    # d = -104: g1 = (2,0,13) has order 2 and g2 = (3,-2,9) order 3, so the
    # coset g2**2 * <g1> is read off by inverting g2 * <g1>; claim that the
    # inverse of g1 * g2 is the principal class
    g = class_group(Discriminant(-104))
    assert g.relations == [(2, 0), (0, 3)]
    target = g.coords.index((1, 1))
    real = classgroup._inverse
    monkeypatch.setattr(classgroup, "_inverse",
                        lambda index, f, x: 0 if x == target else real(index, f, x))
    with pytest.raises(AssertionError, match="already has an exponent vector"):
        class_group(Discriminant(-104))


def test_power_whose_inverse_lies_in_the_old_subgroup_raises(monkeypatch):
    # claim that every class inverts to the principal class
    monkeypatch.setattr(classgroup, "_inverse", lambda index, f, x: 0)
    with pytest.raises(AssertionError, match="lies in the old subgroup"):
        class_group(Discriminant(-23))


def test_large_class_group_within_time_bound():
    t0 = time.monotonic()
    g = class_group(Discriminant(-4000003))
    order, reps = cl_mod_squares(g)
    elapsed = time.monotonic() - t0
    assert g.h == 248
    assert g.structure == [2, 124]
    assert order == len(two_torsion(g)) == 4
    assert elapsed < 5.0, f"class_group(-4000003) took {elapsed:.1f}s"


# --- the invariant checks on a tampered group ---------------------------------
# Cl(-84) = (Z/2)^2: elements (1,0,21), (2,2,11), (3,0,7), (5,4,5) with
# exponent vectors (0,0), (1,0), (0,1), (1,1). Each case spoils one field of
# a correct group and names the check that must catch it.


def _give_two_classes_one_vector(g):
    g.coords = g.coords[:3] + [g.coords[2]]  # cosets of sizes 1, 1 and 2


def _claim_a_cyclic_structure(g):
    g.structure = [4]  # one even invariant factor: 2 cosets, not 4


def _put_a_class_before_the_principal_one(g):
    g.elements = [g.elements[1], g.elements[0]] + g.elements[2:]


def _drop_the_last_class(g):
    g.elements = g.elements[:-1]  # (2,2,11) * (3,0,7) = (5,4,5) is missing


_TAMPERED = [
    (_give_two_classes_one_vector, cl_mod_squares, "cosets of the squares differ in size"),
    (
        _claim_a_cyclic_structure,
        cl_mod_squares,
        "squares quotient disagrees with the invariant factors",
    ),
    (
        _put_a_class_before_the_principal_one,
        lambda g: g.table,
        "principal class must act as identity",
    ),
    (_drop_the_last_class, lambda g: g.table, "composition row is not a permutation"),
]


@pytest.mark.parametrize(
    "tamper,run,message",
    _TAMPERED,
    ids=["coords", "structure", "elements-order", "elements-missing"],
)
def test_tampered_group_fails_its_invariant_check(tamper, run, message):
    g = class_group(Discriminant(-84))
    run(g)  # the untouched group passes
    g._table = None
    tamper(g)
    with pytest.raises(AssertionError) as info:
        run(g)
    assert str(info.value) == message


def _rotate_the_enumeration(monkeypatch):
    real = classgroup.enumerate_reduced
    monkeypatch.setattr(classgroup, "enumerate_reduced", lambda disc: real(disc)[1:] + real(disc)[:1])


def _compose_to_the_principal_class(monkeypatch):
    # the second generator's coset then lands on the principal class
    monkeypatch.setattr(classgroup, "_compose_ab", lambda a1, b1, a2, b2, d: (1, d % 2, 0))


def _claim_order_five(monkeypatch):
    monkeypatch.setattr(classgroup, "_smith_invariants", lambda rows: [5])


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_rotate_the_enumeration, "principal form must sort first"),
        (_compose_to_the_principal_class, "coset of the subgroup meets the subgroup"),
        (_claim_order_five, "invariant factors must multiply to the class number"),
    ],
    ids=["enumeration", "kernel", "smith"],
)
def test_tampered_generator_loop_fails_its_invariant_check(monkeypatch, tamper, message):
    tamper(monkeypatch)
    with pytest.raises(AssertionError) as info:
        class_group(Discriminant(-84))
    assert str(info.value) == message


def test_tampered_group_fails_its_invariant_check_under_O():
    # the squares check in a child run with assert statements compiled out
    code = "\n".join([
        "from quadgenus.arith import Discriminant",
        "from quadgenus.classgroup import class_group, cl_mod_squares",
        "g = class_group(Discriminant(-84))",
        "g.structure = [4]",
        "try:",
        "    cl_mod_squares(g)",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    proc = run_child("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "squares quotient disagrees with the invariant factors\n"
