"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  The criteria check:

1. reproduction of the bundled quartic and quintic tables (152 rows, exact,
   within 5 s) and three known discriminants;
2. entry-for-entry fidelity of the generic symbolic matrices for n = 2, 4, 5
   and of the scaled disc-513 example;
3. a 1000-trial property suite: additivity, commutativity and
   multiplicativity, the trace formula, determinant = resultant norm, exact
   inverses, and integrality in both directions;
4. diagonalization residuals below 1e-8 on 100 elements, at least 10 of
   them in fields with a0 > 1;
5. both syzygies as exact polynomial identities, and the generic quartic's G
   coefficient by coefficient;
6. the generic quartic norm equation, and the norm-one equations on
   coordinate boxes of a quartic and a cubic field;
7. multiplication counts 7 / 46 / 316 / 2296, the recursive growth exponent
   at log2(7), and exact transform-pipeline products, within 30 s;
8. the cubic index form of 20 random cubic fields, whose discriminant is the
   field's;
9. the two documented search boxes, each finding its pair within 60 s.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from arithmat import element as el
from arithmat.covariants import (
    cubic_covariants,
    cubic_syzygy_check,
    dh_cubic_form,
    quartic_ghf,
    quartic_norm_equation_check,
    quartic_syzygy_check,
)
from arithmat.fastmul import (
    MulCounter,
    exact_convolve,
    mul_via_fft,
    ww_mult_count,
    ww_multiply,
    ww_recursive,
)
from arithmat.field import EssentialPair, arithmetic_matrix, make_field
from arithmat.forms import BinaryForm, form_discriminant
from arithmat.numeric import diagonalization_residual
from arithmat.polyring import ExactMatrix, poly_mul_schoolbook, UniPoly
from arithmat.search import (
    load_bundled_table,
    search_essential_pairs,
    verify_tables,
)
from arithmat.symbolic import MultiPoly, generic_arithmetic_matrix, symbolic_arithmetic_matrix

import util


u, x, y, z, w = MultiPoly.variables("u x y z w")
a, b, c, d, e, f = MultiPoly.variables("a b c d e f")


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction"):
        start = time.perf_counter()
        quartic = verify_tables(load_bundled_table("quartic"))
        quintic = verify_tables(load_bundled_table("quintic"))
        elapsed = time.perf_counter() - start
        assert quartic.rows_checked == 100 and quartic.ok, str(quartic)
        assert quintic.rows_checked == 52 and quintic.ok, str(quintic)
        assert form_discriminant(BinaryForm([1, 1, 0, -2, -1])) == -275
        assert form_discriminant(BinaryForm([4, -2, -3, 1, 1])) == 2052
        assert form_discriminant(BinaryForm([1, 0, 2, 1, -2, -1])) == -4511
        assert elapsed < 5.0, f"table verification took {elapsed:.2f}s"


def test_criterion_2_symbolic_matrix_fidelity():
    with criterion(2, "symbolic matrix fidelity"):
        assert generic_arithmetic_matrix(2) == ExactMatrix.from_rows(
            [[u, -a * c * x], [x, u - b * x]]
        )
        assert generic_arithmetic_matrix(4) == ExactMatrix.from_rows(
            [
                [u, -a * e * z, -e * (a * y + b * z), -e * (a * x + b * y + c * z)],
                [x, u - b * x - c * y - d * z, -c * x - d * y - e * z, -d * x - e * y],
                [y, a * x, u - c * y - d * z, -d * y - e * z],
                [z, a * y, a * x + b * y, u - d * z],
            ]
        )
        assert generic_arithmetic_matrix(5) == ExactMatrix.from_rows(
            [
                [
                    u,
                    -a * f * w,
                    -f * (b * w + a * z),
                    -f * (c * w + a * y + b * z),
                    -f * (d * w + a * x + b * y + c * z),
                ],
                [
                    x,
                    u - e * w - b * x - c * y - d * z,
                    -f * w - c * x - d * y - e * z,
                    -d * x - e * y - f * z,
                    -e * x - f * y,
                ],
                [y, a * x, u - e * w - c * y - d * z, -f * w - d * y - e * z, -e * y - f * z],
                [z, a * y, a * x + b * y, u - e * w - d * z, -f * w - e * z],
                [w, a * z, a * y + b * z, a * x + b * y + c * z, u - e * w],
            ]
        )
        F513 = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        assert symbolic_arithmetic_matrix(F513) == ExactMatrix.from_rows(
            [
                [u, -2 * z, 2 * z - 4 * y, -2 * x + 2 * y + 3 * z],
                [x, u + x + 3 * y - z, 3 * x - 2 * y - 2 * z, -x - 2 * y],
                [y, x, u + 3 * y - z, -y - z],
                [z, 2 * y, 2 * x - 2 * y, u - z],
            ]
        )


def test_criterion_3_multiplication_matrix_property_suite():
    with criterion(3, "multiplication-matrix properties, 1000 trials"):
        rng = random.Random(2025)
        pool = util.field_pool(seed=2025)
        failures = 0
        for trial in range(1000):
            F = pool[trial % len(pool)]
            n = F.n
            alpha = util.random_element(F, rng, bound=10)
            beta = util.random_element(F, rng, bound=10)
            Na, Nb = arithmetic_matrix(F, alpha), arithmetic_matrix(F, beta)
            # additivity, commutativity, multiplicativity
            if Na + Nb != arithmetic_matrix(F, el.add(F, alpha, beta)):
                failures += 1
            prod_ab = Na @ Nb
            if prod_ab != Nb @ Na:
                failures += 1
            if prod_ab != arithmetic_matrix(F, el.mul(F, alpha, beta)):
                failures += 1
            # trace formula
            xs = alpha.coords
            expected_trace = n * xs[0] - Fraction(F.coeff(2), F.a0) * xs[1] - sum(
                (j * F.coeff(j + 1) * xs[j] for j in range(2, n)), Fraction(0)
            )
            if el.trace(F, alpha) != expected_trace:
                failures += 1
            if not alpha.is_zero():
                # determinant equals the resultant-oracle norm, exactly
                if el.norm(F, alpha) != el.norm_resultant_oracle(F, alpha):
                    failures += 1
                # inverse-matrix first column gives 1/alpha
                inv = el.inverse(F, alpha)
                if el.mul(F, alpha, inv) != F.one():
                    failures += 1
            # integral coordinates <=> integer matrix entries, both directions
            if not all(entry.denominator == 1 for entry in Na.entries):
                failures += 1
            shifted = F.element(
                [cv / 2 if i == trial % n else cv for i, cv in enumerate(alpha.coords)]
            )
            if alpha.coords[trial % n] % 2:
                M = arithmetic_matrix(F, shifted)
                if all(entry.denominator == 1 for entry in M.entries):
                    failures += 1
        assert failures == 0, f"{failures} property failures in 1000 trials"


def test_criterion_4_diagonalization_residuals():
    with criterion(4, "diagonalization residuals"):
        rng = random.Random(77)
        pool = util.field_pool(seed=77)
        scaled_draws = 0
        for i in range(100):
            F = pool[i % len(pool)]
            if F.a0 > 1:
                scaled_draws += 1
            alpha = util.random_element(F, rng, bound=10)
            residual = diagonalization_residual(F, alpha)
            assert residual < 1e-8, f"residual {residual} for {F}"
        assert scaled_draws >= 10


def test_criterion_5_syzygies():
    with criterion(5, "syzygies as polynomial identities"):
        assert cubic_syzygy_check()
        assert quartic_syzygy_check()
        G, H, Fq = quartic_ghf()  # construction asserts t^3 cancellation
        assert G.coefficient(2, 0, 0) == 3 * b * b - 8 * a * c
        assert G.coefficient(1, 1, 0) == 4 * b * c - 24 * a * d
        assert G.coefficient(0, 2, 0) == 4 * c * c - 8 * b * d - 16 * a * e
        assert G.coefficient(1, 0, 1) == 2 * b * d - 32 * a * e
        assert G.coefficient(0, 1, 1) == 4 * c * d - 24 * b * e
        assert G.coefficient(0, 0, 2) == 3 * d * d - 8 * c * e


def test_criterion_6_norm_equations():
    with criterion(6, "norm equations"):
        assert quartic_norm_equation_check()
        # quartic box, disc -275: every norm-one element satisfies the equation
        V4 = BinaryForm([1, 1, 0, -2, -1])
        F4 = make_field(EssentialPair(1, V4))
        G, H, Fq = quartic_ghf(V4)
        quartic_hits = 0
        for coords in itertools.product(range(-3, 4), repeat=4):
            if not any(coords):
                continue
            alpha = F4.element(coords)
            if el.norm(F4, alpha) != 1:
                continue
            t = el.trace(F4, alpha)
            point = {"x": coords[1], "y": coords[2], "z": coords[3]}
            value = (
                t**4
                - 2 * G.poly.evaluate(point) * t * t
                - 8 * H.poly.evaluate(point) * t
                + Fq.poly.evaluate(point)
            )
            assert value == 256, f"coords {coords}: {value}"
            quartic_hits += 1
        assert quartic_hits >= 1
        # cubic box, disc 49
        V3 = BinaryForm([1, 1, -2, -1])
        F3 = make_field(EssentialPair(1, V3))
        Q, Fj = cubic_covariants(V3)
        cubic_hits = 0
        for coords in itertools.product(range(-3, 4), repeat=3):
            if not any(coords):
                continue
            alpha = F3.element(coords)
            if el.norm(F3, alpha) != 1:
                continue
            t = el.trace(F3, alpha)
            _, xx, yy = coords
            qv = Q[0] * xx * xx + Q[1] * xx * yy + Q[2] * yy * yy
            fv = Fj[0] * xx**3 + Fj[1] * xx * xx * yy + Fj[2] * xx * yy * yy + Fj[3] * yy**3
            assert t**3 - 3 * t * qv + fv == 27, f"coords {coords}"
            cubic_hits += 1
        assert cubic_hits >= 3


def test_criterion_7_fast_multiplication():
    with criterion(7, "fast multiplication"):
        start = time.perf_counter()
        rng = random.Random(7)
        assert [ww_mult_count(m) for m in (2, 4, 8, 16)] == [7, 46, 316, 2296]
        for m in (2, 4, 8, 16):
            counter = MulCounter()
            A = ExactMatrix(m, m, [rng.randint(-50, 50) for _ in range(m * m)])
            B = ExactMatrix(m, m, [rng.randint(-50, 50) for _ in range(m * m)])
            assert ww_multiply(A, B, counter) == A @ B
            assert counter.scalar_mults == ww_mult_count(m)
        for _ in range(40):
            m = rng.choice((2, 4, 6, 8))
            A = ExactMatrix(m, m, [rng.randint(-50, 50) for _ in range(m * m)])
            B = ExactMatrix(m, m, [rng.randint(-50, 50) for _ in range(m * m)])
            assert ww_multiply(A, B) == A @ B
        points = []
        for m in (4, 8, 16, 32):
            counter = MulCounter()
            A = ExactMatrix(m, m, [rng.randint(-9, 9) for _ in range(m * m)])
            B = ExactMatrix(m, m, [rng.randint(-9, 9) for _ in range(m * m)])
            assert ww_recursive(A, B, counter) == A @ B
            points.append((math.log2(m), math.log2(counter.scalar_mults)))
        n_pts = len(points)
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        sxx = sum(p[0] ** 2 for p in points)
        sxy = sum(p[0] * p[1] for p in points)
        slope = (n_pts * sxy - sx * sy) / (n_pts * sxx - sx * sx)
        assert slope <= math.log2(7) + 0.15, f"slope {slope}"
        pool = util.field_pool(
            seed=7, degrees=(2, 3, 4, 5, 6, 7, 8), per_degree=1,
            scaled=((2, 2), (3, 2), (4, 2)),
        )
        for i in range(200):
            F = pool[i % len(pool)]
            alpha = util.random_element(F, rng, bound=10)
            beta = util.random_element(F, rng, bound=10)
            assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"fast multiplication suite took {elapsed:.2f}s"


def test_criterion_8_cubic_reconstruction():
    with criterion(8, "cubic form reconstruction"):
        rng = random.Random(8)
        built = 0
        while built < 20:
            F = util.random_field(rng, 3, hi=6)
            form = dh_cubic_form(F)  # the discriminant is rechecked inside too
            assert form_discriminant(form) == F.disc
            built += 1


def test_criterion_9_search_boxes():
    with criterion(9, "essential-pair search"):
        start = time.perf_counter()
        pairs = search_essential_pairs(-275, 4, 2, 1)
        first = time.perf_counter() - start
        assert EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])) in pairs
        assert first < 60.0
        start = time.perf_counter()
        pairs = search_essential_pairs(513, 4, 4, 2)
        second = time.perf_counter() - start
        assert EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])) in pairs
        assert second < 60.0, f"513 search took {second:.2f}s"
