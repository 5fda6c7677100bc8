"""Covariants, syzygies, and norm-one equations.

The determinant of the quartic multiplication matrix, rewritten in terms of
the trace, produces three ternary covariants G, H, F.  This script derives
them symbolically, checks the classical syzygy exactly, and matches norm-one
elements against the degree-3 and degree-4 norm equations.
"""

import itertools

from arithmat import BinaryForm, EssentialPair, make_field
from arithmat import element as el
from arithmat.covariants import (
    cubic_covariants,
    cubic_syzygy_check,
    quartic_ghf,
    quartic_invariants,
    quartic_syzygy_check,
)

G, H, Fq = quartic_ghf()
print("generic covariant G(x, y, z):")
print("  ", G.poly)
print("\nsyzygy g4^3 - 48*I*g4*v^2 - 64*J*v^3 = 27*g6^2 holds symbolically:",
      quartic_syzygy_check())
print("Cayley's cubic syzygy F^2 + 27*D*C^2 = 4*Q^3 holds symbolically:",
      cubic_syzygy_check())

V = BinaryForm([1, 1, 0, -2, -1])
print("\nquartic", V.text(), "has invariants (I, J) =", quartic_invariants(V))

F4 = make_field(EssentialPair(1, V))
G, H, Fq = quartic_ghf(V)
print("norm-one elements with coordinates in [-3, 3] satisfy t^4 - 2G t^2 - 8H t + F = 256:")
for coords in itertools.product(range(-3, 4), repeat=4):
    if any(coords) and el.norm(F4, F4.element(coords)) == 1:
        t = el.trace(F4, F4.element(coords))
        point = {"x": coords[1], "y": coords[2], "z": coords[3]}
        value = (t**4 - 2 * G.poly.evaluate(point) * t * t
                 - 8 * H.poly.evaluate(point) * t + Fq.poly.evaluate(point))
        print(f"  coords {coords}: t = {t}, equation value = {value}")

C = BinaryForm([1, 1, -2, -1])
F3 = make_field(EssentialPair(1, C))
Q, Fj = cubic_covariants(C)
print("\ncubic", C.text(), "has Hessian", Q, "and Jacobian", Fj)
print("norm-one elements with coordinates in [-2, 2] satisfy t^3 - 3tQ + F = 27:")
for coords in itertools.product(range(-2, 3), repeat=3):
    if any(coords) and el.norm(F3, F3.element(coords)) == 1:
        t = el.trace(F3, F3.element(coords))
        _, xx, yy = coords
        qv = Q[0] * xx * xx + Q[1] * xx * yy + Q[2] * yy * yy
        fv = Fj[0] * xx**3 + Fj[1] * xx * xx * yy + Fj[2] * xx * yy * yy + Fj[3] * yy**3
        print(f"  coords {coords}: t = {t}, equation value = {t**3 - 3 * t * qv + fv}")
