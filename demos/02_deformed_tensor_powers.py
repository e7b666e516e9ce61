#!/usr/bin/env python3
"""The deformed tensor square and cube of the torus.

Instead of making the two copies of the torus commute with each other (the
plain tensor product), the square p2 twists the cross-factor products by
half-integer powers of q:

    U1 V1 = q V1 U1        U2 V2 = q V2 U2
    U1 V2 = q^(-1/2) V2 U1 V1 U2 = q^(1/2) U2 V1
    U1 U2 = U2 U1          V1 V2 = V2 V1

The cube p3 repeats the same twist between neighbouring factors and none
between the outer two.  This demo also exhibits a trap: a plausible-looking
variant of the four-index product formula contradicts the relation table.
"""

import itertools

from qtorus import P2, P3, TORUS, phase_pow
from qtorus.rewrite import RELATION_ROWS, normal_order_exponent
from qtorus.suite import P2_FORMULA_VARIANT

print("== the six relations of the square ==")
for i, j, e in RELATION_ROWS["p2"]:
    names = P2.generator_names
    gi, gj = P2.generator(names[i]), P2.generator(names[j])
    assert gi * gj == phase_pow(e) * (gj * gi)
    q_txt = {2: "q", -1: "q^(-1/2)", 1: "q^(1/2)", 0: ""}[e]
    print(f"{names[i]} {names[j]} = {q_txt} {names[j]} {names[i]}".replace("  ", " "))

print()
print("== a product mixing all four generators ==")
u1u2 = P2.basis((1, 0, 1, 0))
v1v2 = P2.basis((0, 1, 0, 1))
print("(U1 U2)(V1 V2) =", u1u2 * v1v2)   # q^(-1/2) U1 V1 U2 V2

print()
print("== the fifteen relations of the cube hold too ==")
count = 0
for i, j, e in RELATION_ROWS["p3"]:
    names = P3.generator_names
    gi, gj = P3.generator(names[i]), P3.generator(names[j])
    assert gi * gj == phase_pow(e) * (gj * gi)
    count += 1
print(f"checked {count} relations, all exact")

print()
print("== the formula trap ==")
# Writing the four-index product with the cross term q^(-m1 n2) looks
# symmetric but is wrong: on (U2, V2) it would produce q^(-1), while the
# relation U2 V2 = q V2 U2 forces coefficient 1 (U2 V2 is already
# normal-ordered).  The consistent cross term is q^(-m2 n1).  The suite
# keeps the variant as an algebra descriptor with its own cocycle matrix.
u2, v2 = (0, 0, 1, 0), (0, 0, 0, 1)
print("variant exponent on (U2, V2)    : s^%d  (q^-1)" % P2_FORMULA_VARIANT.phase_exponent(u2, v2))
print("relation table on (U2, V2)      : s^%d  (coefficient 1)" % normal_order_exponent(P2, [(2, 1), (3, 1)])[0])
print("implemented product U2 * V2     :", P2.generator("U2") * P2.generator("V2"))

print()
print("== the two embedded copies of the torus ==")
for a, b in itertools.product([(1, 0), (0, 1), (2, -1)], repeat=2):
    x, y = TORUS.basis(a), TORUS.basis(b)
    lhs = P2.basis((*a, 0, 0)) * P2.basis((*b, 0, 0))
    prod = x * y
    (idx, coeff), = prod.support.items()
    assert lhs == coeff * P2.basis((*idx, 0, 0))
print("delta^(k,l) -> delta^(k,l,0,0) respects all products (sample verified)")
