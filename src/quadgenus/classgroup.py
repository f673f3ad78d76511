"""Form class groups by generator extension, with two-torsion and the
quotient by squares.

The group lives on the reduced forms of one discriminant. Its structure
comes from growing a subgroup one generator at a time (Buchmann-Schmidt,
"Computing the structure of a finite abelian group", Math. Comp. 74,
2005): each generator is the least reduced form outside the subgroup,
whose cosets are kept end to end in one flat list of element indices.
Half of the cosets cost one CRT composition an element and the rest are
their inverses, so about h/2 compositions give every class an exponent
vector over the generators, and the Smith normal form of the small
relation matrix, diagonalized in place, gives the invariant factors. The
generator loop and the Cayley table compose (a, b) pairs with
forms._compose_ab, which builds no form; the tests check it against
compose_crt on every pair. Two-torsion
is read off the ambiguous reduced forms and the quotient by squares off
the exponent vectors mod 2, so neither composes. The Cayley table is
built on demand only, by full pairwise composition.
"""

from __future__ import annotations

import math

from .arith import Discriminant, _xgcd, factorize
from .forms import BinaryForm, _compose_ab, enumerate_reduced, principal_form, reduce_form

__all__ = [
    "ClassGroup",
    "class_group",
    "two_torsion",
    "cl_mod_squares",
    "genus_count_from_factorization",
]


class ClassGroup:
    """elements[i] are the reduced forms sorted by (a, b); structure is the
    invariant factor list n1 | n2 | ... with product h; index maps (a, b)
    of each element to its position; coords[i] is the exponent vector of
    elements[i] over the generators g_t, and relations has one row
    m_t*e_t - coords(g_t**m_t) per generator of order m_t modulo the
    earlier ones; table[i][j] is the index of elements[i] composed with
    elements[j]."""

    __slots__ = ("disc", "elements", "structure", "index", "coords", "relations", "_table")

    def __init__(self, disc, elements, structure, index, coords, relations):
        self.disc = disc
        self.elements = elements
        self.structure = structure
        self.index = index
        self.coords = coords
        self.relations = relations
        self._table = None

    @property
    def h(self) -> int:
        return len(self.elements)

    @property
    def table(self) -> list[list[int]]:
        """Built on first use from h(h+1)/2 compositions and checked: the
        principal row is the identity, every row a permutation."""
        if self._table is None:
            h, elements, index, d = self.h, self.elements, self.index, self.disc.d
            table = [[0] * h for _ in range(h)]
            for i in range(h):
                f = elements[i]
                for j in range(i, h):
                    g = elements[j]
                    a, b, _ = _compose_ab(f.a, f.b, g.a, g.b, d)
                    table[i][j] = table[j][i] = index[(a, b)]
            ids = list(range(h))
            if table[0] != ids:
                raise AssertionError("principal class must act as identity")
            for row in table:
                if sorted(row) != ids:
                    raise AssertionError("composition row is not a permutation")
            self._table = table
        return self._table

    def index_of(self, f: BinaryForm) -> int:
        r = reduce_form(f)[0]
        if r.disc.d == self.disc.d and (r.a, r.b) in self.index:
            return self.index[(r.a, r.b)]
        raise KeyError(f"{f} is not a class of discriminant {self.disc.d}")

    def __repr__(self):
        return f"ClassGroup(d={self.disc.d}, h={self.h}, structure={self.structure})"


def _smith_invariants(rows) -> list[int]:
    """Invariant factors n1 | n2 | ... (those > 1) of Z^k modulo the rows
    of a nonsingular k x k integer matrix: diagonalize in place, clearing
    column t by unimodular row steps and row t by column steps until both
    are zero off the diagonal, then replace each pair of diagonal entries
    by their gcd and lcm."""
    m = [list(r) for r in rows]
    k = len(m)
    for t in range(k):
        while True:
            for i in range(t + 1, k):
                p, c = m[t][t], m[i][t]
                if c and p and c % p == 0:
                    m[i] = [y - c // p * x for x, y in zip(m[t], m[i])]
                elif c:
                    g, x, y = _xgcd(p, c)
                    m[t], m[i] = ([x * u + y * v for u, v in zip(m[t], m[i])],
                                  [c // g * u - p // g * v for u, v in zip(m[t], m[i])])
            if not any(m[t][t + 1:]):
                break  # column t is clear, and now row t too
            for i in range(t + 1, k):
                p, c = m[t][t], m[t][i]
                if c and p and c % p == 0:
                    for r in m:
                        r[i] -= c // p * r[t]
                elif c:
                    g, x, y = _xgcd(p, c)
                    for r in m:
                        r[t], r[i] = x * r[t] + y * r[i], c // g * r[t] - p // g * r[i]
    n = [abs(m[t][t]) for t in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(n[i], n[j])
            n[i], n[j] = g, n[i] * n[j] // g
    return [v for v in n if v > 1]


def _inverse(index, f, x):
    """Index of 1/f for f = elements[x]: (a, -b, c), or f if ambiguous."""
    return index.get((f.a, -f.b), x)


def _carry(v, found):
    """An exponent vector brought into 0 <= e_u < m_u by the relations
    g_u**m_u = prod g_w**img_u[w], from the last generator down."""
    v = list(v)
    for u in reversed(range(len(v))):
        m, img = found[u]
        q, v[u] = divmod(v[u], m)
        for w, e in enumerate(img):
            v[w] += q * e
    return tuple(v)


def class_group(disc: Discriminant) -> ClassGroup:
    """Elements, exponent vectors over generators, and invariant factors
    for one discriminant, in about h/2 compositions.

    The cosets g**j * S of the subgroup S, k = |S| classes each, sit end to
    end in one list: position j*k + i holds g**j * S[i], whose vector is
    that of S[i] with j appended. Coset j is composed from coset j - 1, k
    places back, or read off by inverting coset m - j; a class read off by
    inversion has one carried vector per position i, whatever j is.
    """
    d = disc.d
    elements = enumerate_reduced(disc)
    h = len(elements)
    index = {(f.a, f.b): i for i, f in enumerate(elements)}
    if elements[0] != principal_form(disc):
        raise AssertionError("principal form must sort first")
    ab = list(index)  # (a, b) of each element, in order
    coords = [None] * h
    coords[0] = ()
    sub = [0]  # the subgroup found so far, as element indices, coset by coset
    found = []  # (m_t, exponent vector of g_t**m_t) per generator g_t
    nxt = 1
    while len(sub) < h:
        while coords[nxt] is not None:
            nxt += 1
        ga, gb = ab[nxt]
        t, k = len(found), len(sub)
        # base[i]: the vector of sub[i] over the t earlier generators
        base = [coords[x] + (0,) * (t - len(coords[x])) for x in sub]
        j, lead = 1, nxt  # composed cosets are led by g**j
        while coords[inv := _inverse(index, elements[lead], lead)] is None:
            y = lead
            for i, v in enumerate(base):
                if i:  # g times position i of coset j - 1
                    a, b, _ = _compose_ab(*ab[sub[-k]], ga, gb, d)
                    y = index[(a, b)]
                if coords[y] is not None:
                    raise AssertionError("coset of the subgroup meets the subgroup")
                coords[y] = v + (j,)
                sub.append(y)
            if coords[inv] is not None:  # g**-j is in coset j itself
                break
            a, b, _ = _compose_ab(*ab[lead], ga, gb, d)
            j, lead = j + 1, index[(a, b)]
        # g**-j = g**i * s with s in the subgroup, so g**m = 1/s for m = i + j
        if len(coords[inv]) <= t:
            raise AssertionError("inverse of a generator power lies in the old subgroup")
        m = coords[inv][t] + j
        s = coords[inv][:t]
        if len(sub) < m * k:
            # position i of coset j inverts position i of coset m - j, so
            # its vector is carry(s - base[i]) with j appended
            rest = [_carry([a - b for a, b in zip(s, v)], found) for v in base]
            for j in range(len(sub) // k, m):
                for x, v in zip(sub[(m - j) * k:(m - j + 1) * k], rest):
                    y = _inverse(index, elements[x], x)
                    if coords[y] is not None:
                        raise AssertionError("inverted class already has an exponent vector")
                    coords[y] = v + (j,)
                    sub.append(y)
        found.append((m, _carry([-a for a in s], found)))
    n = len(found)
    coords = [c + (0,) * (n - len(c)) for c in coords]
    relations = []
    for t, (m, img) in enumerate(found):
        row = [-e for e in img] + [0] * (n - len(img))
        row[t] += m
        relations.append(tuple(row))
    structure = _smith_invariants(relations)
    if math.prod(structure) != h:
        raise AssertionError("invariant factors must multiply to the class number")
    return ClassGroup(disc, elements, structure, index, coords, relations)


def two_torsion(group: ClassGroup) -> list[BinaryForm]:
    """The ambiguous classes: every x with x*x = identity, identity included.

    A reduced form is its own inverse exactly when b = 0, b = a or a = c,
    so no composition is needed.
    """
    return [f for f in group.elements if f.b == 0 or f.b == f.a or f.a == f.c]


def cl_mod_squares(group: ClassGroup):
    """(order, coset representatives) of the quotient by the squares.

    The representative of each coset is its lexicographically least reduced
    form; the order equals 2**(number of even invariant factors), the
    genus count of genus_count_from_factorization.
    Cosets are keyed by the exponent vector mod 2, reduced against the
    relation rows mod 2 (echelon form over GF(2) on bitmasks). That
    reduction is linear, so each generator's unit vector is reduced once
    and a class's key is the XOR of the images of its odd exponents.
    """
    basis = []  # GF(2) echelon rows, descending, with distinct leading bits
    for row in group.relations:
        v = _mod2(row, basis)
        if v:
            basis = sorted(basis + [v], reverse=True)
    images = [_mod2((0,) * t + (1,), basis) for t in range(len(group.relations))]
    sizes = {}
    reps = []
    for f, c in zip(group.elements, group.coords):  # (a, b)-sorted
        v = 0
        for e, image in zip(c, images):
            if e % 2:
                v ^= image
        if v not in sizes:
            sizes[v] = 0
            reps.append(f)
        sizes[v] += 1
    order = len(reps)
    for s in sizes.values():
        if s * order != group.h:
            raise AssertionError("cosets of the squares differ in size")
    if order != 2 ** len([n for n in group.structure if n % 2 == 0]):
        raise AssertionError("squares quotient disagrees with the invariant factors")
    return order, reps


def _mod2(vector, basis) -> int:
    """The vector mod 2 as a bitmask, reduced against an echelon basis."""
    v = 0
    for t, e in enumerate(vector):
        if e % 2:
            v |= 1 << t
    for b in basis:
        v = min(v, v ^ b)
    return v


def genus_count_from_factorization(disc: Discriminant) -> int:
    """2**(mu-1) genera (Cox, Prop. 3.11, Thm. 3.15): mu counts the odd
    primes dividing d, plus 0, 1 or 2 from n = -d/4 mod 8 when 4 | d."""
    d = disc.d
    primes = factorize(d)
    mu = len(primes) - (2 in primes)
    if d % 4 == 0:
        mu += (2, 1, 1, 0, 1, 1, 1, 0)[-d // 4 % 8]
    return 2 ** (mu - 1)
