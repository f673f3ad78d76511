"""Form class groups by generator extension, with two-torsion and the
quotient by squares.

The group lives on the reduced forms of one discriminant. Its structure
comes from growing a subgroup one generator at a time (Buchmann-Schmidt,
"Computing the structure of a finite abelian group", Math. Comp. 74,
2005): each generator is the least reduced form outside the subgroup,
whose cosets are kept end to end in one flat list of element indices.
Half of the cosets cost one CRT composition an element and the rest are
their inverses, so about h/2 compositions give every class an exponent
vector over the generators. One Smith elimination of the small relation
matrix R, U*R*V = D in place, gives the invariant factors and, from its
column transform V, each generator's genus: the quotient by squares is
the sum of Z/2 over the even entries of D, and a class with exponent
vector x lies in the genus x*V mod 2 there (Cohen, GTM 138, Sec. 2.4;
Cox, Primes of the Form x^2 + ny^2, Sec. 3). The generator loop and the
Cayley table compose (a, b) pairs with forms._compose_ab, which builds
no form; the tests check it against compose_crt on every pair.
Two-torsion is read off the ambiguous reduced forms and checks the count
of genera, so neither composes. The Cayley table is built on demand
only, by full pairwise composition, and only for h <= TABLE_LIMIT.
"""

from __future__ import annotations

import math

from .arith import Discriminant, DomainError, factorize
from .forms import BinaryForm, _compose_ab, enumerate_reduced, principal_form, reduce_form

__all__ = [
    "ClassGroup",
    "TABLE_LIMIT",
    "class_group",
    "two_torsion",
    "cl_mod_squares",
    "genus_count_from_factorization",
]

# The largest class number h whose Cayley table ClassGroup.table builds.
# The table takes h(h+1)/2 compositions and holds h^2 entries: on CPython
# 3.11, 2-CPU x86 Linux, it took 1.05 s at h = 779, 3.5-4.9 s at h = 1440
# and 11.7 s at h = 2592, and classgroup --table at h = 1440 ran 4.3 s at
# a 202 MB peak, so the limit keeps an accepted table under 10 s with room
# for a slower machine.
TABLE_LIMIT = 1500


class ClassGroup:
    """elements[i] are the reduced forms sorted by (a, b); structure is the
    invariant factor list n1 | n2 | ... with product h; index maps (a, b)
    of each element to its position; coords[i] is the exponent vector of
    elements[i] over the generators g_t, and relations has one row
    m_t*e_t - coords(g_t**m_t) per generator of order m_t modulo the
    earlier ones; table[i][j] is the index of elements[i] composed with
    elements[j]. _genus[t], the constructor's genus argument, is the
    coset of the squares that holds generator t, as a bitmask."""

    __slots__ = ("disc", "elements", "structure", "index", "coords", "relations",
                 "_genus", "_table")

    def __init__(self, disc, elements, structure, index, coords, relations, genus):
        self.disc = disc
        self.elements = elements
        self.structure = structure
        self.index = index
        self.coords = coords
        self.relations = relations
        self._genus = genus
        self._table = None

    @property
    def h(self) -> int:
        return len(self.elements)

    @property
    def table(self) -> list[list[int]]:
        """Built on first use from h(h+1)/2 compositions and checked: the
        principal row is the identity, every row a permutation. Past
        TABLE_LIMIT on h it raises DomainError before composing any pair."""
        if self._table is None:
            h, elements, index, d = self.h, self.elements, self.index, self.disc.d
            if h > TABLE_LIMIT:
                raise DomainError(f"h = {h} is past the Cayley table limit h <= {TABLE_LIMIT}")
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


def _smith_invariants(rows):
    """(invariant factors, genus images) of Z^k modulo the rows of a
    nonsingular k x k integer matrix R.

    Diagonalize in place, U*R*V = D: clear column t by row steps and row
    t by column steps until both are zero off the diagonal. Each step is
    one Euclid step against the pivot p = m[t][t]: subtract q = c // p
    times line t (q = 0 when p = 0) from the line whose entry is c, and
    swap the two, so the remainder becomes the pivot and p moves out. It
    repeats until the entry is 0. A remainder of 0 is swapped straight
    back on the next step, leaving line t as it was; any other remainder
    is smaller than |p|. So each entry's loop ends, and a round that
    refills column t has shrunk |p|, so the rounds end too. The k
    identity rows kept below R see only the column steps, so they end
    as V. Exponent vector x maps onto x*V in Z^k / D, so the genus of
    x, its coset of the squares, is x*V mod 2 on the even entries of D
    (Cohen, GTM 138, Sec. 2.4); images[i] is row i of V mod 2 on those
    entries, as a bitmask. Last, each pair of diagonal entries becomes
    their gcd and lcm, which keeps the count of even ones; the invariant
    factors n1 | n2 | ... are those > 1."""
    k = len(rows)
    m = [list(r) for r in rows] + [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]
    for t in range(k):
        while True:
            for i in range(t + 1, k):
                while m[i][t]:
                    q = m[i][t] // m[t][t] if m[t][t] else 0
                    m[t], m[i] = [y - q * x for x, y in zip(m[t], m[i])], m[t]
            if not any(m[t][t + 1:]):
                break  # column t is clear, and now row t too
            for i in range(t + 1, k):
                while m[t][i]:
                    q = m[t][i] // m[t][t] if m[t][t] else 0
                    for r in m:
                        r[t], r[i] = r[i] - q * r[t], r[t]
    images = [0] * k
    for t in [t for t in range(k) if m[t][t] % 2 == 0]:
        for i in range(k):
            images[i] |= m[k + i][t] % 2 << t
    n = [abs(m[t][t]) for t in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            n[i], n[j] = math.gcd(n[i], n[j]), math.lcm(n[i], n[j])
    return [v for v in n if v > 1], images


def _inverse(index, f, x):
    """Index of 1/f for f = elements[x]: (a, -b, c), or f if ambiguous."""
    return index.get((f.a, -f.b), x)


def _carry(v, relations):
    """An exponent vector brought into 0 <= e_u < m_u = row u's entry u,
    from the last generator down, by subtracting multiples of that row."""
    v = list(v)
    for u in reversed(range(len(v))):
        row = relations[u]
        q = v[u] // row[u]
        for w, e in enumerate(row):
            v[w] -= q * e
    return tuple(v)


def class_group(disc: Discriminant) -> ClassGroup:
    """Elements, exponent vectors over generators, relation rows and
    invariant factors for one discriminant, in about h/2 compositions.

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
    relations = []  # m_t*e_t - (vector of g_t**m_t) per generator g_t
    nxt = 1
    while len(sub) < h:
        while coords[nxt] is not None:
            nxt += 1
        ga, gb = ab[nxt]
        t, k = len(relations), len(sub)
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
            rest = [_carry([a - b for a, b in zip(s, v)], relations) for v in base]
            for j in range(len(sub) // k, m):
                for x, v in zip(sub[(m - j) * k:(m - j + 1) * k], rest):
                    y = _inverse(index, elements[x], x)
                    if coords[y] is not None:
                        raise AssertionError("inverted class already has an exponent vector")
                    coords[y] = v + (j,)
                    sub.append(y)
        relations.append(tuple([-e for e in _carry([-a for a in s], relations)]) + (m,))
    n = len(relations)
    coords = [c + (0,) * (n - len(c)) for c in coords]
    relations = [r + (0,) * (n - len(r)) for r in relations]
    structure, genus = _smith_invariants(relations)
    if math.prod(structure) != h:
        raise AssertionError("invariant factors must multiply to the class number")
    return ClassGroup(disc, elements, structure, index, coords, relations, genus)


def two_torsion(group: ClassGroup) -> list[BinaryForm]:
    """The ambiguous classes: every x with x*x = identity, identity included.

    A reduced form is its own inverse exactly when b = 0, b = a or a = c,
    so no composition is needed.
    """
    return [f for f in group.elements if f.b == 0 or f.b == f.a or f.a == f.c]


def cl_mod_squares(group: ClassGroup):
    """(order, coset representatives) of the quotient by the squares: the
    genera.

    The representative of each coset is its lexicographically least reduced
    form. A class's coset is keyed by the XOR of the genus images of its
    odd exponents, which class_group read off the Smith form's column
    transform, so nothing is eliminated here. The cosets must have one
    size; their count must equal |Cl[2]|, the number of ambiguous classes,
    which two_torsion reads off the forms alone; and it must equal
    2**(number of even invariant factors), the genus count of
    genus_count_from_factorization.
    """
    sizes = {}
    reps = []
    for f, c in zip(group.elements, group.coords):  # (a, b)-sorted
        v = 0
        for e, image in zip(c, group._genus):
            if e % 2:
                v ^= image
        if v not in sizes:
            reps.append(f)
        sizes[v] = sizes.get(v, 0) + 1
    order = len(reps)
    if len(set(sizes.values())) > 1:
        raise AssertionError("cosets of the squares differ in size")
    if order != len(two_torsion(group)):
        raise AssertionError("squares quotient disagrees with two-torsion")
    if order != 2 ** len([n for n in group.structure if n % 2 == 0]):
        raise AssertionError("squares quotient disagrees with the invariant factors")
    return order, reps


def genus_count_from_factorization(disc: Discriminant) -> int:
    """2**(mu-1) genera (Cox, Prop. 3.11, Thm. 3.15): mu counts the odd
    primes dividing d, plus 0, 1 or 2 from n = -d/4 mod 8 when 4 | d."""
    d = disc.d
    primes = factorize(d)
    mu = len(primes) - (2 in primes)
    if d % 4 == 0:
        mu += (2, 1, 1, 0, 1, 1, 1, 0)[-d // 4 % 8]
    return 2 ** (mu - 1)
