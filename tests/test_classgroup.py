import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

import quadgenus.classgroup as classgroup
import quadgenus.forms as forms
from quadgenus.arith import Discriminant, DomainError
from quadgenus.classgroup import (
    _smith_invariants,
    cl_mod_squares,
    class_group,
    genus_count_from_factorization,
    two_torsion,
)
from quadgenus.forms import BinaryForm, _compose_ab, compose_crt, enumerate_reduced, form_inverse

from oracles import (
    big_pairs,
    discs,
    distinct_primes,
    four_rank,
    is_fundamental,
    recorder,
    run_child,
)

POOL = Path(__file__).resolve().parent.parent / "bench" / "data" / "classgroup_pool.json"


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


def test_genus_count_small_range(class_groups):
    for g in class_groups[:len(discs(499))]:
        dv = g.disc.d
        if not is_fundamental(dv):
            continue
        order, _ = cl_mod_squares(g)
        assert order == 2 ** (distinct_primes(dv) - 1)
        assert order == genus_count_from_factorization(g.disc)


def test_genus_count_every_discriminant(class_groups):
    # 2**(mu-1) for non-fundamental d too: d = -12 has one genus, d = -32 two
    assert genus_count_from_factorization(Discriminant(-12)) == 1
    assert genus_count_from_factorization(Discriminant(-32)) == 2
    for g in class_groups[:len(discs(4000))]:
        assert genus_count_from_factorization(g.disc) == cl_mod_squares(g)[0], g.disc.d


def test_benchmark_pool_entries():
    # the benchmark's stored answers: h, structure, genus order and the
    # number of ambiguous classes of each of its 150 discriminants
    entries = [e for stratum in json.loads(POOL.read_text())["strata"].values() for e in stratum]
    assert len(entries) == 150
    for e in entries:
        g = class_group(Discriminant(e["d"]))
        assert (g.h, g.structure, cl_mod_squares(g)[0], len(two_torsion(g))) == \
            (e["h"], e["structure"], e["genus_order"], e["two_torsion"]), e["d"]
        assert is_fundamental(e["d"]) == e["fundamental"], e["d"]


def test_four_rank_matches_redei(class_groups):
    # the invariant factors divisible by 4 against Redei's count from the
    # factorization of d alone, on every fundamental d in [-6000, -3] and
    # in the benchmark pool
    fundamental = [g for g in class_groups if is_fundamental(g.disc.d)]
    assert len(fundamental) == 1825
    entries = [e for stratum in json.loads(POOL.read_text())["strata"].values() for e in stratum]
    pool = [class_group(Discriminant(e["d"])) for e in entries if e["fundamental"]]
    for g in fundamental + pool:
        assert four_rank(g.disc.d) == len([n for n in g.structure if n % 4 == 0]), g.disc.d


def test_genus_count_of_a_strong_pseudoprime_discriminant():
    # d = -4 * 399165290221 * 798330580441 has three prime divisors
    assert genus_count_from_factorization(Discriminant(-4 * 318665857834031151167461)) == 4


def test_two_torsion_equals_genus_order(class_groups):
    for g in class_groups[:len(discs(399))]:
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
def crt_tables(class_groups):
    """(class_group(d), _crt_table of it) for every d in [-2000, -3], built
    once for the sweeps that only read them."""
    return [(g, _crt_table(g)) for g in class_groups[:len(discs(2000))]]


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


def test_genera_are_the_cosets_of_the_squares(crt_tables):
    # test_generator_extension_matches_cayley_table checks cl_mod_squares'
    # count and representatives against the table; here the genus key of
    # every class, the XOR of the images of its odd exponents, must name
    # its coset of the squares, the diagonal of the table, one to one
    for g, t in crt_tables:
        squares = {t[i][i] for i in range(g.h)}
        cosets = [frozenset(t[i][s] for s in squares) for i in range(g.h)]
        keys = []
        for c in g.coords:
            key = 0
            for e, image in zip(c, g._genus):
                key ^= image * (e % 2)
            keys.append(key)
        assert len(set(keys)) == len(set(cosets)) == len(set(zip(keys, cosets))), g.disc.d


def test_one_smith_elimination_per_group(monkeypatch):
    # class_group eliminates the relation matrix once, and the genera are
    # read off its column transform with no elimination of their own
    counted = recorder(classgroup._smith_invariants)
    monkeypatch.setattr(classgroup, "_smith_invariants", counted)
    for dv in (-5460, -4000003):
        counted.calls.clear()
        g = class_group(Discriminant(dv))
        assert counted.calls == [(g.relations,)], dv
        cl_mod_squares(g)
        assert len(counted.calls) == 1, dv


def _normal(v, relations):
    """The normal form of v modulo the relation rows: the relation matrix
    is lower triangular, so clear from the last coordinate down."""
    v = list(v)
    for t in reversed(range(len(relations))):
        q = v[t] // relations[t][t]
        v = [x - q * y for x, y in zip(v, relations[t])]
    return tuple(v)


def test_exponent_vectors_compose_like_the_table():
    # coords is a homomorphism onto Z^k / relations: adding the vectors of
    # two classes lands on their product, modulo the relation rows
    for dv in (-84, -231, -455, -480, -5460, -1155, -3299):
        g = class_group(Discriminant(dv))
        rows = g.relations
        assert len({_normal(c, rows) for c in g.coords}) == g.h
        t = _crt_table(g)
        for i in range(g.h):
            for j in range(g.h):
                s = [x + y for x, y in zip(g.coords[i], g.coords[j])]
                assert _normal(s, rows) == _normal(g.coords[t[i][j]], rows)


def test_carry_reduces_by_the_relation_rows(class_groups):
    # _carry works on the rows class_group returns: each row carries to
    # zero, and a carried vector lies in 0 <= e_u < m_u with its normal form
    rng = random.Random(5)
    for g in class_groups:
        k = len(g.relations)
        diag = [r[t] for t, r in enumerate(g.relations)]
        for row in g.relations:
            assert classgroup._carry(row, g.relations) == (0,) * k, g.disc.d
        for _ in range(3):
            v = [rng.randint(-60, 60) for _ in range(k)]
            c = classgroup._carry(v, g.relations)
            assert all(0 <= e < m for e, m in zip(c, diag)), (g.disc.d, v)
            assert _normal(c, g.relations) == _normal(v, g.relations), (g.disc.d, v)


def test_smith_invariants():
    def invariants(m):
        return _smith_invariants(m)[0]

    assert _smith_invariants([]) == ([], [])
    assert invariants([[6]]) == [6]
    assert invariants([[2, 0], [0, 3]]) == [6]
    assert invariants([[4, 0], [-2, 2]]) == [2, 4]
    assert invariants([[2, 0, 0], [0, 4, 0], [0, 0, 6]]) == [2, 2, 12]
    assert invariants([[12, 0], [-6, 2]]) == [2, 12]
    assert invariants([[0, 3], [5, 0]]) == [15]
    assert invariants([[2, 4], [-2, 4]]) == [2, 8]
    # the relation matrices of d = -2176 and -2280: eliminating by xgcd
    # steps alone, with no plain subtraction where the pivot divides the
    # entry, comes back to a state it has left on these and never ends
    assert invariants([[2, 0, 0], [0, 4, 0], [-1, -2, 2]]) == [4, 4]
    assert invariants([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [-1, -1, -1, 2]]) == [2, 2, 4]

    # against the determinantal divisors: n1*...*nj = gcd of the j x j minors
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    def check(m):
        n = len(m)
        invariant, images = _smith_invariants(m)
        factors = [1] * (n - len(invariant)) + invariant
        for j in range(1, n + 1):
            minors = [det([[m[r][c] for c in cols] for r in rows])
                      for rows in itertools.combinations(range(n), j)
                      for cols in itertools.combinations(range(n), j)]
            assert math.prod(factors[:j]) == math.gcd(*minors), m
        # the images map Z^n onto (Z/2)^e, e the number of even factors, and
        # kill every row: so they are the quotient of Z^n / rows by squares
        assert len(images) == n
        for row in m:
            key = 0
            for e, image in zip(row, images):
                key ^= image * (e % 2)
            assert key == 0, m
        span = {0}
        for image in images:
            span |= {v ^ image for v in span}
        assert len(span) == 2 ** len([f for f in factors if f % 2 == 0]), m

    rng = random.Random(4)
    for _ in range(300):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        if det(m) != 0:
            check(m)
    # the shape of class_group's relations: lower triangular, with the
    # order of each generator modulo the earlier ones on the diagonal
    for n, count in ((4, 100), (5, 40)):
        for _ in range(count):
            check([[rng.randint(-6, 6) for _ in range(t)] + [rng.randint(1, 9)] + [0] * (n - t - 1)
                   for t in range(n)])


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
    return elements, coords, relations, _smith_invariants(relations)[0]


def test_inversion_matches_composition_loop(class_groups):
    for g in class_groups + [class_group(Discriminant(-4000003))]:
        dv = g.disc.d
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


def test_table_limit_at_its_edge(monkeypatch):
    # with the limit patched down to 4, h(-84) = 4 sits on it and h(-47) = 5
    # is past it, which fails before composing any pair
    monkeypatch.setattr(classgroup, "TABLE_LIMIT", 4)
    assert len(class_group(Discriminant(-84)).table) == 4
    g = class_group(Discriminant(-47))
    counted = recorder(classgroup._compose_ab)
    monkeypatch.setattr(classgroup, "_compose_ab", counted)
    with pytest.raises(DomainError) as info:
        g.table
    assert str(info.value) == "h = 5 is past the Cayley table limit h <= 4"
    assert counted.calls == [] and g._table is None


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


def _put_every_class_in_one_genus(g):
    g._genus = [0] * len(g._genus)  # one coset of size 4, not four of size 1


_TAMPERED = [
    (_give_two_classes_one_vector, cl_mod_squares, "cosets of the squares differ in size"),
    (
        _put_every_class_in_one_genus,
        cl_mod_squares,
        "squares quotient disagrees with two-torsion",
    ),
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
    ids=["coords", "genus", "structure", "elements-order", "elements-missing"],
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
    monkeypatch.setattr(classgroup, "_smith_invariants", lambda rows: ([5], [0] * len(rows)))


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
    # the squares checks in a child run with assert statements compiled out
    code = "\n".join([
        "from quadgenus.arith import Discriminant",
        "from quadgenus.classgroup import class_group, cl_mod_squares",
        "for field, value in (('_genus', [0, 0]), ('structure', [4])):",
        "    g = class_group(Discriminant(-84))",
        "    setattr(g, field, value)",
        "    try:",
        "        cl_mod_squares(g)",
        "    except AssertionError as exc:",
        "        print(exc)",
    ])
    proc = run_child("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("squares quotient disagrees with two-torsion\n"
                           "squares quotient disagrees with the invariant factors\n")
