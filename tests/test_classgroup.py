import math
import random

import pytest

from quadgenus.arith import Discriminant
from quadgenus.classgroup import (
    cl_mod_squares,
    class_group,
    genus_count_from_factorization,
    two_torsion,
)
from quadgenus.forms import BinaryForm, form_inverse


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


def _is_fundamental(d):
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        k = d // 4
        return k % 4 in (2, 3) and _squarefree(-k)
    return False


def _squarefree(n):
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


def _distinct_primes(n):
    n = abs(n)
    out = set()
    i = 2
    while i * i <= n:
        while n % i == 0:
            out.add(i)
            n //= i
        i += 1
    if n > 1:
        out.add(n)
    return len(out)


def test_structure_matches_order_statistics():
    # independent oracle: the multiset of element orders of the group
    # determined by the invariant factors must match the table
    rng = random.Random(50)
    discs = [dv for dv in range(-3, -600, -1) if dv % 4 in (0, 1)]
    for dv in rng.sample(discs, 60):
        g = class_group(Discriminant(dv))
        table = g.table
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
    for dv in range(-3, -500, -1):
        if dv % 4 not in (0, 1) or not _is_fundamental(dv):
            continue
        g = class_group(Discriminant(dv))
        order, _ = cl_mod_squares(g)
        assert order == 2 ** (_distinct_primes(dv) - 1)
        assert order == genus_count_from_factorization(g.disc)


def test_two_torsion_equals_genus_order():
    for dv in range(-3, -400, -1):
        if dv % 4 not in (0, 1):
            continue
        g = class_group(Discriminant(dv))
        assert len(two_torsion(g)) == cl_mod_squares(g)[0]


def test_inverse_lands_in_same_coset():
    # conjugation acts trivially on the quotient by squares
    for dv in (-23, -84, -120, -231, -479, -455):
        g = class_group(Discriminant(dv))
        order, reps = cl_mod_squares(g)
        t = g.table
        squares = {t[i][i] for i in range(g.h)}
        rep_of = {}
        for i in range(g.h):
            cos = frozenset(t[i][s] for s in squares)
            rep_of[i] = min(cos)
        for i, f in enumerate(g.elements):
            j = g.index_of(form_inverse(f))
            assert rep_of[i] == rep_of[j]
