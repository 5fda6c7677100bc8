import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithmat import element as el
from arithmat.errors import DimensionMismatchError, NonIntegerEntryError
from arithmat.fastmul import (
    MulCounter,
    batch_multiply,
    exact_convolve,
    mul_via_fft,
    schoolbook_multiply,
    ww_mult_count,
    ww_multiply,
    ww_recursive,
)
from arithmat.field import EssentialPair, arithmetic_matrix, make_field
from arithmat.forms import BinaryForm
from arithmat.polyring import ExactMatrix, UniPoly, poly_mul_schoolbook
from arithmat.symbolic import MultiPoly

import util


def rand_matrix(rng, m, lo=-50, hi=50):
    return ExactMatrix(m, m, [rng.randint(lo, hi) for _ in range(m * m)])


class TestCountedMultiply:
    def test_count_formula_values(self):
        assert [ww_mult_count(m) for m in (2, 4, 8, 16)] == [7, 46, 316, 2296]

    def test_counter_matches_formula(self):
        rng = random.Random(0)
        for m in (2, 4, 6, 8, 10, 16):
            counter = MulCounter()
            A, B = rand_matrix(rng, m), rand_matrix(rng, m)
            ww_multiply(A, B, counter)
            assert counter.scalar_mults == ww_mult_count(m)

    def test_equals_schoolbook_on_random_matrices(self):
        rng = random.Random(1)
        for _ in range(100):
            m = rng.choice((2, 4, 6, 8))
            A, B = rand_matrix(rng, m), rand_matrix(rng, m)
            assert ww_multiply(A, B) == A @ B

    def test_odd_dimension_rejected(self):
        rng = random.Random(2)
        with pytest.raises(DimensionMismatchError):
            ww_multiply(rand_matrix(rng, 3), rand_matrix(rng, 3))

    def test_rational_entries_accepted(self):
        # the product runs on the integer numerators and divides by both denominators once
        rng = random.Random(16)
        for m in (2, 4, 6):
            A, B = (
                ExactMatrix(m, m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m * m)])
                for _ in range(2)
            )
            counter = MulCounter()
            assert ww_multiply(A, B, counter) == A @ B
            assert counter.scalar_mults == ww_mult_count(m)

    def test_schoolbook_counter(self):
        rng = random.Random(3)
        counter = MulCounter()
        schoolbook_multiply(rand_matrix(rng, 8), rand_matrix(rng, 8), counter)
        assert counter.scalar_mults == 512


class TestRecursive:
    def test_one_by_one(self):
        A = ExactMatrix(1, 1, [7])
        B = ExactMatrix(1, 1, [-6])
        assert ww_recursive(A, B) == ExactMatrix(1, 1, [-42])

    def test_equals_schoolbook_on_awkward_sizes(self):
        rng = random.Random(4)
        for m in (3, 5, 7, 12):
            A, B = rand_matrix(rng, m), rand_matrix(rng, m)
            assert ww_recursive(A, B) == A @ B

    def test_rational_entries_accepted(self):
        rng = random.Random(15)
        A = ExactMatrix(3, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9)])
        B = ExactMatrix(3, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9)])
        assert ww_recursive(A, B) == A @ B

    def test_count_growth_slope(self):
        rng = random.Random(5)
        points = []
        for m in (4, 8, 16, 32):
            counter = MulCounter()
            ww_recursive(rand_matrix(rng, m, -9, 9), rand_matrix(rng, m, -9, 9), counter)
            points.append((math.log2(m), math.log2(counter.scalar_mults)))
        n = len(points)
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        sxx = sum(p[0] * p[0] for p in points)
        sxy = sum(p[0] * p[1] for p in points)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert slope <= math.log2(7) + 0.15


def _value_product(A, B):
    """AB entry by entry on the exact values, the route before numerators."""
    return ExactMatrix.from_rows(
        [[sum(A[i, k] * B[k, j] for k in range(A.cols)) for j in range(B.cols)] for i in range(A.rows)]
    )


def _rational_matrix(rng, rows, cols, q):
    return ExactMatrix(rows, cols, [Fraction(rng.randint(-50, 50), rng.randint(1, q)) for _ in range(rows * cols)])


class TestNumeratorProducts:
    """`@`, schoolbook and the recursive product run on numerators over den * other.den."""

    def test_equal_the_value_route_on_random_rational_matrices(self):
        rng = random.Random(33)
        for _ in range(40):
            m, k, p = (rng.randint(1, 9) for _ in range(3))
            A, B = _rational_matrix(rng, m, k, rng.choice((1, 6))), _rational_matrix(rng, k, p, 6)
            C = _value_product(A, B)
            assert A @ B == C
            assert schoolbook_multiply(A, B) == C
            A, B = _rational_matrix(rng, m, m, rng.choice((1, 6))), _rational_matrix(rng, m, m, 6)
            assert ww_recursive(A, B) == _value_product(A, B)

    def test_a_cancelling_denominator_is_reduced(self):
        half = ExactMatrix(2, 2, [Fraction(1, 2), 0, 0, Fraction(1, 2)])
        two = ExactMatrix(2, 2, [2, 0, 0, 2])
        for C in (half @ two, ww_recursive(half, two)):
            assert (C.num, C.den) == ((1, 0, 0, 1), 1)

    def test_symbolic_factor_multiplies_the_values(self):
        rng = random.Random(34)
        x = MultiPoly.var("x")
        S = ExactMatrix(3, 3, [x * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(9)])
        R = _rational_matrix(rng, 3, 3, 6)
        for A, B in ((S, R), (R, S), (S, S)):
            C = _value_product(A, B)
            assert A @ B == C
            assert ww_recursive(A, B) == C


class TestExactConvolve:
    def test_binomial(self):
        assert exact_convolve([1, 1], [1, 1]) == [1, 2, 1]

    def test_matches_schoolbook_on_degree_fifty(self):
        rng = random.Random(6)
        for _ in range(8):
            f = [rng.randint(-10**6, 10**6) for _ in range(51)]
            g = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(40, 51))]
            ref = poly_mul_schoolbook(UniPoly(f), UniPoly(g))
            expected = [int(ref.coeff(k)) for k in range(len(f) + len(g) - 1)]
            assert exact_convolve(f, g) == expected

    def test_multi_prime_recombination_near_word_size(self):
        rng = random.Random(7)
        f = [rng.randint(-(2**64), 2**64) for _ in range(25)]
        g = [rng.randint(-(2**64), 2**64) for _ in range(25)]
        ref = poly_mul_schoolbook(UniPoly(f), UniPoly(g))
        assert exact_convolve(f, g) == [int(ref.coeff(k)) for k in range(49)]

    def test_zero_input(self):
        assert exact_convolve([0, 0], [1, 2]) == [0, 0, 0]
        assert exact_convolve([], [1]) == []

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_schoolbook_property(self, data):
        chunk = st.one_of(
            st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=8),
            st.integers(1, 12).map(lambda k: [0] * k),
        )
        seq = st.lists(chunk, min_size=1, max_size=8).map(lambda cs: sum(cs, [])[:40])
        f, g = data.draw(seq), data.draw(seq)
        ref = poly_mul_schoolbook(UniPoly(f), UniPoly(g))
        assert exact_convolve(f, g) == [int(ref.coeff(k)) for k in range(len(f) + len(g) - 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2**200), st.integers(1, 40))
    def test_extreme_coefficients_at_the_digit_bound(self, M, k):
        # the middle coefficient is -k * M^2, exactly the packing bound
        ref = poly_mul_schoolbook(UniPoly([-M] * k), UniPoly([M] * k))
        out = exact_convolve([-M] * k, [M] * k)
        assert out == [int(ref.coeff(i)) for i in range(2 * k - 1)]
        assert out[k - 1] == -k * M * M

    def test_fraction_entry_raises(self):
        with pytest.raises(NonIntegerEntryError):
            exact_convolve([Fraction(1, 2)], [1])


class TestMulViaFFT:
    def test_identity(self):
        rng = random.Random(8)
        F = util.random_field(rng, 4)
        alpha = util.random_element(F, rng)
        assert mul_via_fft(F, alpha, F.one()) == alpha

    def test_matches_matrix_product_across_degrees(self):
        rng = random.Random(9)
        pool = util.field_pool(seed=91, degrees=(2, 3, 4, 5, 6, 7, 8), per_degree=1,
                               scaled=((2, 2), (3, 2), (4, 2)))
        for _ in range(200):
            F = rng.choice(pool)
            alpha = util.random_element(F, rng)
            beta = util.random_element(F, rng)
            assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)

    def test_scaled_field_roundtrip(self):
        rng = random.Random(10)
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        for _ in range(50):
            alpha = util.random_element(F, rng)
            beta = util.random_element(F, rng)
            assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)

    def test_huge_coordinates_in_a0_three_field(self):
        rng = random.Random(12)
        for n in (3, 6, 12):
            F = util.random_field(rng, n, a0=3)
            for _ in range(5):
                alpha = F.element([rng.randint(-(10**30), 10**30) for _ in range(n)])
                beta = F.element([Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))
                                  for _ in range(n)])
                assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)

    def test_rational_coordinates_supported(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        alpha = F.element([Fraction(1, 2), Fraction(-2, 3), 1, 0])
        beta = F.element([3, Fraction(1, 5), 0, Fraction(7, 2)])
        assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)


class TestBatchMultiply:
    def test_unit_vectors_give_matrix_columns(self):
        rng = random.Random(11)
        F = util.random_field(rng, 4)
        alpha = util.random_element(F, rng)
        N = arithmetic_matrix(F, alpha)
        cols = batch_multiply(F, alpha, [F.basis_element(j) for j in range(4)])
        for j in range(4):
            assert cols[j].coords == N.column(j)

    def test_strategies_agree(self):
        rng = random.Random(12)
        pool = [util.random_field(rng, n) for n in (2, 3, 4, 5)]
        for _ in range(50):
            F = rng.choice(pool)
            alpha = util.random_element(F, rng)
            betas = [util.random_element(F, rng) for _ in range(rng.randint(1, F.n))]
            res = [
                batch_multiply(F, alpha, betas, strategy)
                for strategy in ("schoolbook", "ww", "ww_recursive")
            ]
            assert res[0] == res[1] == res[2]
            assert res[0] == [el.mul(F, alpha, b) for b in betas]
        # rational coordinates, in an a0 = 2 field too: the product runs on the
        # integer matrix and the numerators, and divides once at the end
        pool.append(make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1]))))
        cases = [(pool[-1], [1, Fraction(1, 2), 3, 4], [[1, 1, 1, 1]]),
                 (pool[-1], [1, 1, 1, 1], [[Fraction(1, 3), 1, 0, 0]])]
        for _ in range(50):
            F = rng.choice(pool)
            coords = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(F.n)]
                      for _ in range(rng.randint(2, F.n + 1))]
            cases.append((F, coords[0], coords[1:]))
        for F, a, bs in cases:
            alpha, betas = F.element(a), [F.element(b) for b in bs]
            for strategy in ("schoolbook", "ww", "ww_recursive"):
                assert batch_multiply(F, alpha, betas, strategy) == [
                    el.mul(F, alpha, b) for b in betas
                ], strategy

    def test_counters_on_degree_eight(self):
        rng = random.Random(13)
        F = util.random_field(rng, 8)
        alpha = util.random_element(F, rng)
        betas = [util.random_element(F, rng) for _ in range(8)]
        ww_counter, sb_counter = MulCounter(), MulCounter()
        batch_multiply(F, alpha, betas, "ww", ww_counter)
        batch_multiply(F, alpha, betas, "schoolbook", sb_counter)
        assert ww_counter.scalar_mults == 316
        assert sb_counter.scalar_mults == 512

    def test_too_many_multiplicands_rejected(self):
        rng = random.Random(14)
        F = util.random_field(rng, 2)
        alpha = util.random_element(F, rng)
        with pytest.raises(DimensionMismatchError):
            batch_multiply(F, alpha, [F.one()] * 3)
