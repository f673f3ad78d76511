#!/usr/bin/env python3
# Class groups of reduced forms: class numbers, invariant factors,
# two-torsion (the ambiguous classes) and the quotient by squares, whose
# order is the genus count 2^(mu-1): mu counts the odd primes dividing d,
# plus 0, 1 or 2 from d/4 mod 8 when d is even (Cox, Prop. 3.11). For a
# fundamental d that is 2^(t-1) with t the number of primes dividing d;
# -12 and -32 are not fundamental, and there 2^(t-1) is wrong.

from quadgenus import (
    Discriminant,
    cl_mod_squares,
    class_group,
    factorize,
    genus_count_from_factorization,
    two_torsion,
)

print("d      h    structure      |Cl[2]|  genus  2^(mu-1)  primes of d")
for dv in (-3, -4, -12, -20, -23, -32, -47, -56, -84, -120, -163, -231, -455, -479, -5460):
    disc = Discriminant(dv)
    g = class_group(disc)
    tt = len(two_torsion(g))
    order, _ = cl_mod_squares(g)
    count = genus_count_from_factorization(disc)
    t = len(factorize(dv))
    struct = "x".join(str(n) for n in g.structure) or "1"
    print(f"{dv:6d} {g.h:4d}   {struct:12s}   {tt:5d}  {order:5d}  {count:8d}  t={t}, 2^(t-1)={2 ** (t - 1)}")

# inside one group: the full table for d = -84, the Klein four group
print("\nCayley table for d = -84 (all four classes are ambiguous):")
g = class_group(Discriminant(-84))
for i, f in enumerate(g.elements):
    print(f"  {i}: {f}")
for row in g.table:
    print("   ", row)

# every class and its inverse land in the same genus coset
g = class_group(Discriminant(-231))
order, reps = cl_mod_squares(g)
print(f"\nd = -231: h = {g.h}, genus order = {order}")
print("coset representatives:", " ".join(str(r) for r in reps))
squares = sorted({g.table[i][i] for i in range(g.h)})
for i, f in enumerate(g.elements):
    coset = min(g.table[i][s] for s in squares)
    j = g.index_of(f.inverse())
    coset_inv = min(g.table[j][s] for s in squares)
    assert coset == coset_inv
print("every class shares its coset with its inverse: True")
