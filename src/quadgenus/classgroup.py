"""Form class groups from composition tables, with two-torsion and the
quotient by squares.

The group lives on the reduced forms of one discriminant; the Cayley table
is filled by CRT composition. The invariant factor decomposition peels off
a cyclic subgroup of maximal order and recurses on the quotient, which is
plenty at desk scale and easy to cross-check against element orders.
"""

from __future__ import annotations

from .arith import Discriminant, factorize
from .forms import BinaryForm, compose_crt, enumerate_reduced, principal_form, reduce_form

__all__ = [
    "ClassGroup",
    "class_group",
    "two_torsion",
    "cl_mod_squares",
    "genus_count_from_factorization",
]


class ClassGroup:
    """elements[i] are the reduced forms sorted by (a, b); table[i][j] is
    the index of elements[i] composed with elements[j]; structure is the
    invariant factor list n1 | n2 | ... with product h; index maps (a, b)
    of each element to its position."""

    __slots__ = ("disc", "elements", "table", "structure", "index")

    def __init__(self, disc, elements, table, structure, index):
        self.disc = disc
        self.elements = elements
        self.table = table
        self.structure = structure
        self.index = index

    @property
    def h(self) -> int:
        return len(self.elements)

    def index_of(self, f: BinaryForm) -> int:
        r = reduce_form(f)[0]
        if r.disc.d == self.disc.d and (r.a, r.b) in self.index:
            return self.index[(r.a, r.b)]
        raise KeyError(f"{f} is not a class of discriminant {self.disc.d}")

    def __repr__(self):
        return f"ClassGroup(d={self.disc.d}, h={self.h}, structure={self.structure})"


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
    if len(table) == 1:
        return []
    orders = _orders(table, e)
    top = max(orders)
    gen = orders.index(top)
    q, qe = _quotient_table(table, e, gen)
    return _invariant_factors(q, qe) + [top]


def class_group(disc: Discriminant) -> ClassGroup:
    """Elements, verified Cayley table, and invariant factors for one
    discriminant."""
    elements = enumerate_reduced(disc)
    h = len(elements)
    index = {(f.a, f.b): i for i, f in enumerate(elements)}
    assert elements[0] == principal_form(disc), "principal form must sort first"
    table = [[0] * h for _ in range(h)]
    for i in range(h):
        fi = elements[i]
        for j in range(i, h):
            p = compose_crt(fi, elements[j])
            k = index[(p.a, p.b)]
            table[i][j] = k
            table[j][i] = k
    # cheap structural sanity: identity row/column and cancellation
    assert table[0] == list(range(h)), "principal class must act as identity"
    for row in table:
        assert sorted(row) == list(range(h)), "composition row is not a permutation"
    structure = _invariant_factors(table, 0)
    prod = 1
    for k, n in enumerate(structure):
        prod *= n
        assert k == 0 or n % structure[k - 1] == 0, "invariant factors must divide"
    assert prod == h, "invariant factors must multiply to the class number"
    return ClassGroup(disc, elements, table, structure, index)


def two_torsion(group: ClassGroup) -> list[BinaryForm]:
    """The ambiguous classes: every x with x*x = identity, identity included."""
    t = group.table
    return [f for i, f in enumerate(group.elements) if t[i][i] == 0]


def cl_mod_squares(group: ClassGroup):
    """(order, coset representatives) of the quotient by the squares.

    The representative of each coset is its lexicographically least reduced
    form; the order equals 2**(number of even invariant factors) and, for a
    fundamental discriminant with t distinct prime divisors, 2**(t-1).
    """
    t = group.table
    h = group.h
    squares = sorted({t[i][i] for i in range(h)})
    seen = [False] * h
    reps = []
    for i in range(h):  # elements are (a, b)-sorted, so first hit is least
        if seen[i]:
            continue
        reps.append(group.elements[i])
        for s in squares:
            seen[t[i][s]] = True
    order = len(reps)
    assert order * len(squares) == h
    assert order == 2 ** sum(1 for n in group.structure if n % 2 == 0)
    return order, reps


def genus_count_from_factorization(disc: Discriminant) -> int:
    """2**(t-1) with t the number of distinct primes dividing d; the
    classical genus count for fundamental discriminants."""
    t = len(factorize(disc.d))
    return 2 ** (t - 1)
