"""Operation-counted fast multiplication.

Compares scalar-multiplication counts of the even-dimension algorithm
(m^3/2 + m^2 - m/2) against schoolbook, shows the recursive variant's
seven-product growth rate, and runs the transform route for element
products: power-basis coefficients convolved as one big-integer product
(Kronecker substitution), then pseudo-divided by the defining polynomial,
in integers throughout.
"""

import math
import random

from arithmat import BinaryForm, EssentialPair, make_field
from arithmat import element as el
from arithmat.fastmul import (
    MulCounter,
    batch_multiply,
    mul_via_fft,
    ww_mult_count,
    ww_multiply,
    ww_recursive,
)
from arithmat.polyring import ExactMatrix

rng = random.Random(1)


def rand_matrix(m):
    return ExactMatrix(m, m, [rng.randint(-99, 99) for _ in range(m * m)])


print("scalar multiplications for an m x m product:")
print(f"  {'m':>3} {'schoolbook':>11} {'counted':>8} {'recursive':>10}")
for m in (2, 4, 8, 16, 32):
    A, B = rand_matrix(m), rand_matrix(m)
    rec = MulCounter()
    assert ww_recursive(A, B, rec) == A @ B
    direct = ww_mult_count(m)
    print(f"  {m:>3} {m**3:>11} {direct:>8} {rec.scalar_mults:>10}")

slopes = []
for m in (4, 8, 16, 32):
    counter = MulCounter()
    ww_recursive(rand_matrix(m), rand_matrix(m), counter)
    slopes.append((math.log2(m), math.log2(counter.scalar_mults)))
n = len(slopes)
sx, sy = sum(p[0] for p in slopes), sum(p[1] for p in slopes)
sxx, sxy = sum(p[0] ** 2 for p in slopes), sum(p[0] * p[1] for p in slopes)
print(f"\nrecursive growth exponent: {(n * sxy - sx * sy) / (n * sxx - sx * sx):.4f}"
      f"  (log2 7 = {math.log2(7):.4f})")

F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
alpha = F.element([3, -1, 2, 5])
beta = F.element([-2, 4, 1, 1])
print("\ntransform pipeline vs matrix product in the disc-513 field:")
print("  matrix route:   ", el.mul(F, alpha, beta).text())
print("  transform route:", mul_via_fft(F, alpha, beta).text())

betas = [F.element([rng.randint(-9, 9) for _ in range(4)]) for _ in range(4)]
for strategy in ("schoolbook", "ww", "ww_recursive"):
    counter = MulCounter()
    batch_multiply(F, alpha, betas, strategy, counter)
    print(f"  batch of 4 via {strategy:>12}: {counter.scalar_mults} scalar multiplications")
