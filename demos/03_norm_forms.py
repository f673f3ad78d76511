#!/usr/bin/env python3
# Every generator tuple has a norm form: the integral quadratic form whose
# value at any integer point is the norm of the corresponding element.
# Matrix substitution commutes with taking norm forms, and every norm form
# is the base form of the order acted on by some integer matrix.

from quadgenus import (
    Discriminant,
    GenTuple,
    QuadInt,
    apply_transform,
    form_action,
    integral_tuple,
    norm_form,
    principal_norm_form,
    represent_from_fo,
)

D = Discriminant(-23)

base = principal_norm_form(D)
print(f"base form of the order: {base}   (x^2 + d xy + ((d^2-d)/4) y^2)")

ideal = GenTuple([QuadInt.from_int(2, D), QuadInt(1, -1, D)], D)
f = norm_form(ideal)
print(f"norm form of the ideal tuple (2, (1-sqrt(-23))/2): {f}")
print("note (a^2, ab, ac) for the binary form (2, 1, 3), scaled by a = 2")

# evaluation really is the norm
pt = (3, -2)
elt = ideal.coeffs[0] * pt[0] + ideal.coeffs[1] * pt[1]
print(f"\nf{pt} = {f.evaluate(pt)}, norm of 3*2 + (-2)*(1-sqrt(-23))/2 = {elt.norm()}")

# substitution commutes with the construction
h = ((4, 14), (0, 1))
left = form_action(h, norm_form(integral_tuple(D)))
right = norm_form(apply_transform(h, integral_tuple(D)))
print(f"\naction then norm == norm then action: {left == right}")
print(f"both equal: {left}")

# every tuple's norm form arises from the base form
witness = represent_from_fo(ideal)
print(f"\nwitness matrix for the ideal tuple: {witness}")
print(f"base acted by the witness: {form_action(witness, base)}")

# the same works in more variables: pad with zero coefficients
three = GenTuple([QuadInt.from_int(2, D), QuadInt(1, -1, D), QuadInt(3, 1, D)], D)
f3 = norm_form(three)
print(f"\na three-variable norm form: {f3}")
w3 = represent_from_fo(three)
print(f"its witness from the padded base form is {len(w3)}x{len(w3)}: {w3}")
print(f"check: {form_action(w3, norm_form(integral_tuple(D, 3))) == f3}")
