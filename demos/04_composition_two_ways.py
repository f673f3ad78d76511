#!/usr/bin/env python3
# Composition of binary quadratic forms by two independent routes, plus the
# ideal multiplication they both shadow.
#
# Route 1 writes B in closed form (Cohen Alg. 5.4.7) and checks it against
# three linear congruences modulo 2a3, where e = gcd(a, a', s), s = (b + b')/2
# and a3 = aa'/e^2: (a/e)B = (a/e)b', (a'/e)B = (a'/e)b and
# (s/e)B = (bb' + d)/(2e). When e = 1 they come to the classical
# B = b (mod 2a), B = b' (mod 2a'), B^2 = d (mod 4aa'). Route 2 never
# touches the congruences' output form: it moves the order onto the first
# ideal (h_alpha), moves that ideal onto the product (tau1), pushes the
# order's own norm form through the composite matrix, and divides by aa'.

from quadgenus import (
    BinaryForm,
    Discriminant,
    compose_crt,
    compose_via_matrices,
    form_action,
    form_to_ideal,
    h_alpha,
    ideal_mul,
    ideal_to_form,
    mat_mul,
    principal_norm_form,
    reduce_form,
    tau_pair,
)

D = Discriminant(-23)
f = BinaryForm(2, 1, 3, D)

print(f"f = {f}, squaring it:")
print(f"  congruence route: {compose_crt(f, f)}")
print(f"  matrix route:     {compose_via_matrices(f, f)}")

# the matrix route, step by step
alpha = form_to_ideal(f)
tau1, tau2, B, k1, k2 = tau_pair(alpha, alpha)
print(f"\nideal alpha = {alpha}")
print(f"h_alpha = {h_alpha(alpha)}")
print(f"B = {B}, k1 = {k1}, tau1 = {tau1}")
composite = mat_mul(h_alpha(alpha), tau1)
print(f"composite = {composite}   (closed form [[aa', (B-d)/2], [0, 1]])")
carried = form_action(composite, principal_norm_form(D))
print(f"base form pushed through: {carried}")
aa = alpha.a * alpha.a
triple = tuple(c // aa for c in carried.binary_triple())
print(f"divided by aa' = {aa}: {triple}, reduced: {reduce_form(BinaryForm(*triple, D))[0]}")

# the ideal route underneath
content, prod = ideal_mul(alpha, alpha)
print(f"\nideal product alpha^2 = {prod} (content {content})")
print(f"as a form: {ideal_to_form(prod)}, reduced: {reduce_form(ideal_to_form(prod))[0]}")

# a pair that is not concordant: f and its inverse (e = gcd(a, a', (b+b')/2) = 2)
g = f.inverse()
beta = form_to_ideal(g)
print(f"\nf = {f} times its inverse {g}:")
print(f"  congruence route: {compose_crt(f, g)}   (the principal class)")
tau1, tau2, B, k1, k2 = tau_pair(alpha, beta)
print(f"  B = {B}, k1 = {k1}, tau1 = {tau1}   (e = 2 in the corner)")
composite = mat_mul(h_alpha(alpha), tau1)
print(f"  composite = {composite}   (e * [[aa'/e^2, (B-d)/2], [0, 1]])")
print(f"  matrix route:     {compose_via_matrices(f, g)}")
content, prod = ideal_mul(alpha, beta)
print(f"  ideal route:      content {content}, primitive part {prod} (norm ideal)")
