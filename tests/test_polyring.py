import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithmat import element as el
from arithmat.errors import (
    DimensionMismatchError,
    NonIntegerEntryError,
    NonSquareMatrixError,
    SingularMatrixError,
    UnsupportedDegreeError,
    ZeroPolynomialError,
)
from arithmat.field import EssentialPair, make_field
from arithmat.forms import BinaryForm
from arithmat.polyring import (
    ExactMatrix,
    UniPoly,
    _bezout_plan,
    coeffs_discriminant,
    det_bareiss,
    det_exact,
    exact,
    poly_discriminant,
    poly_mul_schoolbook,
    resultant,
)
from arithmat.symbolic import MultiPoly, collect_coeffs, det_cofactor

import util


def rand_poly(rng, degree, lo=-9, hi=9):
    coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, hi)))
    return UniPoly(coeffs)


def rand_multipoly(rng, names=("s", "t")):
    terms = {
        (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
        for _ in range(5)
    }
    return MultiPoly(names, terms)


class TestUniPolyMul:
    def test_binomial_square(self):
        p = UniPoly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)

    def test_one_is_identity(self):
        rng = random.Random(0)
        one = UniPoly([1])
        for _ in range(20):
            p = rand_poly(rng, rng.randint(0, 6))
            assert poly_mul_schoolbook(p, one) == p

    def test_hand_convolution_checked_by_evaluation(self):
        p = UniPoly([-1, 1, 1])  # x^2 + x - 1
        q = UniPoly([-2, 1])  # x - 2
        prod = p * q
        assert prod == UniPoly([2, -3, -1, 1])  # x^3 - x^2 - 3x + 2
        for x in (0, 1, 2, 3):
            assert prod(x) == p(x) * q(x)

    def test_degree_adds(self):
        rng = random.Random(1)
        for _ in range(20):
            p, q = rand_poly(rng, 3), rand_poly(rng, 4)
            assert (p * q).degree == p.degree + q.degree

    def test_divmod_exact(self):
        rng = random.Random(2)
        for _ in range(20):
            p, q = rand_poly(rng, 5), rand_poly(rng, 2)
            quo, rem = p.divmod(q)
            assert quo * q + rem == p
            assert rem.degree < q.degree


class TestRingAxioms:
    def test_unipoly_axioms_at_random_points(self):
        rng = random.Random(3)
        p, q, r = (rand_poly(rng, 4) for _ in range(3))
        points = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        for x in points:
            assert (p * q)(x) == (q * p)(x)
            assert ((p * q) * r)(x) == (p * (q * r))(x)
            assert (p * (q + r))(x) == (p * q + p * r)(x)

    def test_multipoly_axioms_at_random_points(self):
        rng = random.Random(4)
        names = ("s", "t")
        p, q, r = rand_multipoly(rng), rand_multipoly(rng), rand_multipoly(rng)
        for _ in range(5):
            pt = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for n in names}
            assert (p * q).evaluate(pt) == (q * p).evaluate(pt)
            assert ((p * q) * r).evaluate(pt) == (p * (q * r)).evaluate(pt)
            assert (p * (q + r)).evaluate(pt) == (p * q + p * r).evaluate(pt)

    # each type's random polynomial, and its constant c
    KINDS = {
        "UniPoly": (lambda rng: UniPoly(rand_poly(rng, 3).coeffs, "t"), lambda c: UniPoly.constant(c, "t")),
        "MultiPoly": (rand_multipoly, MultiPoly.const),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_derived_operators_follow_the_shared_rules(self, kind):
        # the rules `polyring._Polynomial` states once for both types
        draw, const = self.KINDS[kind]
        rng = random.Random(5)
        p, q, zero = draw(rng), draw(rng), const(0)
        for a, b in ((p, q), (q, p), (p, zero), (zero, p)):
            assert a - b == a + (-b)
        for c in (0, 3, -2, Fraction(5, 7), Fraction(-1, 3)):
            assert c + p == p + c
            assert c - p == -(p - c)
            assert c * p == p * c
        for base in (p, q, zero, const(Fraction(-2, 3))):
            product = const(1)
            for k in range(7):
                assert base**k == product
                if kind == "UniPoly":
                    assert (base**k).var == "t"
                product = product * base
        for r in (p, zero, const(Fraction(1, 2)), p - p):
            assert bool(r) == (not r.is_zero())


class TestSylvesterAndResultant:
    def test_quadratic_with_derivative_shape(self):
        for a, b, c in [(3, 5, 7), (1, -2, 4), (2, 0, -3)]:
            p = UniPoly([c, b, a])
            S = util.sylvester_matrix(p, p.derivative())
            assert S == ExactMatrix.from_rows(
                [[a, b, c], [2 * a, b, 0], [0, 2 * a, b]]
            )

    def test_linear_case(self):
        S = util.sylvester_matrix(UniPoly([-1, 1]), UniPoly([1, 1]))
        assert S == ExactMatrix.from_rows([[1, -1], [1, 1]])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            util.sylvester_matrix(UniPoly.zero(), UniPoly([1, 1]))
        with pytest.raises(ZeroPolynomialError, match="resultant needs nonzero polynomials"):
            resultant(UniPoly([1, 1]), UniPoly.zero())

    def test_resultant_examples(self):
        assert resultant(UniPoly([1, 0, 1]), UniPoly([-1, 0, 1])) == 4
        assert resultant(UniPoly([-1, 1, 1]), UniPoly([1])) == 1
        assert resultant(UniPoly([-1, 1, 1]), UniPoly([0, 1])) == -1

    def test_determinant_matches_root_product_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
            q = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
            exact = resultant(p, q)
            roots = np.roots([float(c) for c in reversed(p.coeffs)])
            oracle = complex(float(p.leading()) ** q.degree)
            for z in roots:
                oracle *= sum(float(c) * z**k for k, c in enumerate(q.coeffs))
            assert abs(oracle - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))

    def test_antisymmetry(self):
        rng = random.Random(6)
        for _ in range(25):
            p = rand_poly(rng, rng.randint(1, 4))
            q = rand_poly(rng, rng.randint(1, 4))
            sign = (-1) ** (p.degree * q.degree)
            assert resultant(p, q) == sign * resultant(q, p)


@st.composite
def resultant_polys(draw, max_degree=12):
    """A nonzero polynomial of degree 0 to max_degree with a lead of either
    sign: integer coefficients up to 10^40, or rational ones."""
    n = draw(st.integers(0, max_degree))
    if draw(st.booleans()):
        coeff = st.integers(-10**40, 10**40)
    else:
        coeff = st.fractions(-10**6, 10**6, max_denominator=10**6)
    lead = draw(coeff.filter(bool))
    return UniPoly(draw(st.lists(coeff, min_size=n, max_size=n)) + [lead])


class TestBezoutResultant:
    """`resultant` on the Bezout kernel against the Sylvester oracle."""

    @settings(max_examples=150, deadline=None)
    @given(resultant_polys(), resultant_polys())
    @example(UniPoly([Fraction(1, 3), 2, Fraction(-5, 7), 1]), UniPoly([Fraction(3, 2), 0, 4]))
    @example(UniPoly([5]), UniPoly([1, 2, 3]))
    @example(UniPoly([-7]), UniPoly([Fraction(-2, 3)]))
    @example(UniPoly([0, 0, 0, -3]), UniPoly([0, 0, 2]))  # a common root: 0
    def test_equals_sylvester_route(self, p, q):
        for a, b in ((p, q), (q, p)):
            value = resultant(a, b)
            assert type(value) is Fraction
            assert value == det_bareiss(util.sylvester_matrix(a, b))

    @settings(max_examples=100, deadline=None)
    @given(resultant_polys(6), resultant_polys(6), resultant_polys(6))
    def test_multiplicative_in_each_argument(self, f, g, h):
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)
        assert resultant(g * h, f) == resultant(g, f) * resultant(h, f)


@st.composite
def high_degree_polys(draw):
    """A polynomial of degree 9 to 16 with a lead of either sign and integer
    coefficients up to 10^30; half the draws are sparse."""
    m = draw(st.integers(9, 16))
    coeff = st.integers(-10**30, 10**30)
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0), st.just(0), coeff)
    lead = draw(st.integers(-10**30, 10**30).filter(bool))
    return UniPoly(draw(st.lists(coeff, min_size=m, max_size=m)) + [lead])


class TestHighDegreeResultant:
    """`resultant` at degrees 9 to 16 against the Sylvester oracle in both
    orders, with unequal degrees and constants."""

    @settings(max_examples=100, deadline=None)
    @given(high_degree_polys(), resultant_polys(16))
    @example(UniPoly([1] + [0] * 8 + [-2]), UniPoly([3]))
    @example(UniPoly([2] + [0] * 11 + [1]), UniPoly([0] * 12 + [5]))
    @example(UniPoly([1, 0, 1] * 4), UniPoly([-1, 0, 1] * 3))  # a common root: -1
    def test_equals_sylvester_route(self, p, q):
        for a, b in ((p, q), (q, p)):
            value = resultant(a, b)
            assert type(value) is Fraction
            assert value == det_bareiss(util.sylvester_matrix(a, b))


@st.composite
def discriminant_coeffs(draw):
    """Coefficients (a1, ..., a_{n+1}) of degree 1 to 16 up to 10^40 or
    10^100, which every route of `coeffs_discriminant` meets, or a product
    g^2 h with a repeated factor g, whose discriminant is 0."""
    n = draw(st.integers(1, 16))

    def coeffs(k, bound):
        lead = draw(st.integers(-bound, bound).filter(bool))
        return [lead] + draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k))

    if n == 1 or draw(st.booleans()):
        return coeffs(n, draw(st.sampled_from((10**40, 10**100))))
    k = draw(st.integers(1, n // 2))
    g, h = UniPoly(coeffs(k, 10**13)[::-1]), UniPoly(coeffs(n - 2 * k, 10**14)[::-1])
    return list((g * g * h).coeffs[::-1])


class TestBezoutDiscriminant:
    @settings(max_examples=150, deadline=None)
    @given(discriminant_coeffs())
    @example([6, -4, 2, 0, 7])
    @example([-10**40, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10**40])
    @example([18, -60, 113, -210, 175])  # (3x - 5)^2 (2x^2 + 7)
    # negative leads and a zero last coefficient at each side of a route's edge
    @example([-3, 5, -1, 2, 0])  # n = 4, the closed form
    @example([-2, 0, 7, -1, 4, 0])  # n = 5, the Bezout kernel
    @example([-5, 1, 0, -3, 2, 6, -1, 4, 0])  # n = 8, the Bezout kernel
    @example([-7, 2, -1, 0, 5, -3, 1, 8, -2, 0])  # n = 9, the subresultant PRS
    def test_equals_sylvester_route(self, coeffs):
        # each route by degree against the Sylvester route and the n x n Bezout matrix of f and f'
        value = coeffs_discriminant(coeffs)
        assert value == util.sylvester_discriminant(coeffs)
        assert value == util.bezout_discriminant(coeffs)


class TestPartialDerivativeBezout:
    """Signs, degree edges, sparse forms and zero leads of the discriminant
    routes, and the plan of the Bezout kernel's elimination."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            [3, -1, 4, -2],  # n = 3
            [4, -2, -3, 1, 1],  # n = 4
            [2, 0, -3, 1, 0, 5],  # n = 5
            [3, 1, -2, 0, 4, -1, 2],  # n = 6
            [-5, 2, 7, -1, 3, 0, -4, 6],  # n = 7
            [6, -1, 0, 2, -3, 5, 1, -2, 7],  # n = 8
            [-4, 3, 1, -5, 0, 2, -2, 6, 1, 3],  # n = 9
            [5, -2, 0, 3, 1, -4, 2, 0, -1, 6, -3],  # n = 10
            [-3, 0, 2, 4, -1, 5, 0, -6, 3, 1, -2, 7],  # n = 11
            [7, 1, -3, 0, 2, -5, 4, 1, 0, -2, 6, -1, 3],  # n = 12
        ],
    )
    def test_sign_at_each_degree_mod_4(self, coeffs):
        # leads other than +-1, so neither a1 nor the sign (-1)^(n-1) can cancel
        assert coeffs_discriminant(coeffs) == util.sylvester_discriminant(coeffs)

    @pytest.mark.parametrize("coeffs", [[1, 0], [7, -3], [-10**30, 5]])
    def test_degree_one_is_one(self, coeffs):
        assert coeffs_discriminant(coeffs) == 1

    @pytest.mark.parametrize("coeffs", [[], [5], [0]])
    def test_below_degree_one_is_a_typed_error(self, coeffs):
        # the guard sits on the Bezout fall-through, which degrees 0 and -1 reach
        with pytest.raises(UnsupportedDegreeError, match=r"^discriminant needs degree >= 1$"):
            coeffs_discriminant(coeffs)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_sparse_forms_need_row_swaps(self, n):
        # a x^n + c: the partial derivatives are n a x^(n-1) and n c, so the
        # matrix is anti-diagonal and its elimination needs row swaps; from
        # n = 9 the PRS of f and f' = n a x^(n-1) drops n - 1 degrees at once
        for a, c in ((3, -2), (-7, 5), (2, 10**20)):
            coeffs = [a] + [0] * (n - 1) + [c]
            expected = (-1) ** (n * (n - 1) // 2) * n**n * a ** (n - 1) * c ** (n - 1)
            assert coeffs_discriminant(coeffs) == expected == util.bezout_discriminant(coeffs)

    @pytest.mark.parametrize("n", [5, 9, 12])
    def test_zero_lead_takes_the_bezout_kernel(self, n):
        # F = y G has disc F = G(1, 0)^2 disc G; with a1 = 0 the Bezout kernel
        # serves every degree, since the PRS route divides by a1
        g = [-3, 1, 0, 4, -2, 5, 1, -1, 2, 3, -4, 1][: n]
        assert coeffs_discriminant([0] + g) == g[0] ** 2 * util.sylvester_discriminant(g)

    def test_a_reduction_mod_p_with_zero_middle_terms(self):
        # what the mod-p test of forms passes: coefficients in [0, p), high first
        p = 13
        high = [c % p for c in (5, 0, 0, -3, 0, 7)]
        assert high == [5, 0, 0, 10, 0, 7]
        assert coeffs_discriminant(high) == util.sylvester_discriminant(high)
        assert coeffs_discriminant(high) == util.bezout_discriminant(high)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_plan_visits_each_upper_entry_once(self, m):
        plan = _bezout_plan(m)
        visited = [(q, c) for diagonal in plan for q, _, c in diagonal]
        assert sorted(visited) == [(i, j) for i in range(m) for j in range(i, m)]
        for s, diagonal in enumerate(plan):
            assert all(q + c == s and r == s + 1 - q for q, r, c in diagonal)
        assert _bezout_plan(m) is plan


class TestBinomialDiscriminant:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(-10**20, 10**20).filter(bool),
        st.integers(-10**20, 10**20).filter(bool),
    )
    @example(1, 7, -3)
    @example(12, 1, 108)
    def test_closed_form(self, n, a, c):
        # disc(a x^n + c) = (-1)^(n(n-1)/2) n^n a^(n-1) c^(n-1): a sparse
        # Bezout matrix, whose elimination needs row swaps; 1 at degree 1
        expected = (-1) ** (n * (n - 1) // 2) * n**n * a ** (n - 1) * c ** (n - 1)
        coeffs = [a] + [0] * (n - 1) + [c]
        assert coeffs_discriminant(coeffs) == expected
        assert poly_discriminant(UniPoly(coeffs[::-1])) == expected

    def test_constant_is_an_unsupported_degree_and_zero_a_zero_polynomial(self):
        with pytest.raises(UnsupportedDegreeError, match=r"^discriminant needs degree >= 1$"):
            poly_discriminant(UniPoly([5]))
        with pytest.raises(ZeroPolynomialError):
            poly_discriminant(UniPoly.zero())


class TestDeterminants:
    def test_identity(self):
        for n in (1, 2, 5):
            assert det_exact(ExactMatrix.identity(n)) == 1

    def test_2x2(self):
        assert det_exact(ExactMatrix.from_rows([[2, 3], [5, 7]])) == -1

    def test_bareiss_equals_cofactor_on_random_6x6(self):
        rng = random.Random(7)
        for _ in range(10):
            M = ExactMatrix(6, 6, [rng.randint(-9, 9) for _ in range(36)])
            assert det_bareiss(M) == det_cofactor(M)

    def test_triangular_is_diagonal_product(self):
        rng = random.Random(8)
        entries = [[0] * 5 for _ in range(5)]
        prod = 1
        for i in range(5):
            for j in range(i, 5):
                entries[i][j] = rng.randint(-9, 9)
            entries[i][i] = rng.randint(1, 9)
            prod *= entries[i][i]
        assert det_exact(ExactMatrix.from_rows(entries)) == prod

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            det_exact(ExactMatrix(2, 3, [1, 2, 3, 4, 5, 6]))

    def test_plain_rows_shape_checked(self):
        # the leading 2x2 block's determinant is -2, which a missing check would return
        with pytest.raises(NonSquareMatrixError):
            det_exact([[1, 2, 3], [3, 4, 5]])
        with pytest.raises(DimensionMismatchError, match="ragged rows"):
            det_bareiss([[1, 2], [3]])
        with pytest.raises(NonSquareMatrixError):
            det_bareiss(ExactMatrix(0, 3, []))

    def test_symbolic_determinant_names_its_entries(self):
        M = ExactMatrix.from_rows([[MultiPoly.var("x"), 1], [0, 1]])
        for det in (det_exact, det_bareiss):
            with pytest.raises(NonIntegerEntryError, match="symbolic determinant is not supported"):
                det(M)

    def test_inverse_roundtrip(self):
        rng = random.Random(9)
        while True:
            M = ExactMatrix(4, 4, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(16)])
            if det_exact(M) != 0:
                break
        assert M @ M.inverse() == ExactMatrix.identity(4)

    def test_inverse_of_a_singular_matrix_is_a_typed_error(self):
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 5]]).inverse()

    def test_trace_of_a_non_square_matrix_is_a_typed_error(self):
        with pytest.raises(NonSquareMatrixError, match="^trace of a non-square matrix$"):
            ExactMatrix(2, 3, [1, 2, 3, 4, 5, 6]).trace()


class TestIndexChecks:
    M = ExactMatrix.from_rows([[1, 2], [3, 4]])

    def test_entry(self):
        assert self.M[1, 0] == 3
        for i, j in ((0, 2), (0, -1), (2, 0), (-1, 1)):
            with pytest.raises(IndexError, match=rf"index \({i}, {j}\) out of range for a 2x2"):
                self.M[i, j]

    def test_row(self):
        assert self.M.row(1) == (3, 4)
        for i in (-1, 2):
            with pytest.raises(IndexError, match=f"row {i} out of range for a 2x2 matrix"):
                self.M.row(i)

    def test_column(self):
        assert self.M.column(1) == (2, 4)
        for j in (-1, 2):
            with pytest.raises(IndexError, match=f"column {j} out of range for a 2x2 matrix"):
                self.M.column(j)

    def test_inverse_columns(self):
        assert self.M.inverse(columns=(1,)) == ExactMatrix.from_rows([[1], [Fraction(-1, 2)]])
        for j in (5, -1, 2):
            with pytest.raises(IndexError, match=f"column {j} out of range for a 2x2 matrix"):
                self.M.inverse(columns=(0, j))

    def test_symbolic_inverse_names_its_entries(self):
        # a square matrix: the elimination needs integer entries, not a square shape
        M = ExactMatrix.from_rows([[MultiPoly.var("x"), 1], [0, 1]])
        with pytest.raises(NonIntegerEntryError, match="symbolic inverse is not supported"):
            M.inverse()


class TestCollectCoeffs:
    def test_simple_split(self):
        t, x = MultiPoly.var("t"), MultiPoly.var("x")
        p = t * t + 3 * x * t + x * x
        cs = collect_coeffs(p, "t")
        assert cs == [x * x, 3 * x, MultiPoly.const(1)]

    def test_constant(self):
        p = MultiPoly.const(7)
        assert collect_coeffs(p, "t") == [MultiPoly.const(7)]

    def test_absent_variable_has_degree_zero(self):
        p = MultiPoly.var("t") + 2
        assert collect_coeffs(p, "nope") == [p]

    def test_roundtrip_random(self):
        rng = random.Random(10)
        t = MultiPoly.var("t")
        for _ in range(20):
            p = MultiPoly(
                ("s", "t", "v"),
                {
                    (rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-9, 9)
                    for _ in range(6)
                },
            )
            rebuilt = sum(
                (c * t**k for k, c in enumerate(collect_coeffs(p, "t"))),
                MultiPoly.const(0),
            )
            assert rebuilt == p


class TestStoredForm:
    def test_equal_polynomials_are_stored_alike(self):
        a, x, y = MultiPoly.variables("a x y")
        for p, q in [(x + y - y, x), ((a * x) * y, y * (x * a)), (x * x - x * x + 3, MultiPoly.const(3))]:
            assert p.terms == q.terms
            assert (repr(p), p.serialize(), hash(p), p.vars) == (repr(q), q.serialize(), hash(q), q.vars)

    def test_input_format_aligns_exponents_to_the_variables(self):
        p = MultiPoly(("t", "s"), {(2, 1): 3, (0, 0): -1})
        assert p == 3 * MultiPoly.var("t") ** 2 * MultiPoly.var("s") - 1
        assert p.vars == ("s", "t")
        assert p.terms == {(("s", 1), ("t", 2)): 3, (): -1}
        with pytest.raises(DimensionMismatchError):
            MultiPoly(("s", "t"), {(1,): 1})
        with pytest.raises(ValueError, match=r"negative exponent in \(1, -1\)"):
            MultiPoly(("s", "t"), {(1, -1): 1})

    def test_vars_and_evaluate_see_only_the_variables_that_occur(self):
        x, y = MultiPoly.variables("x y")
        p = x * y + x - x * y
        assert p.vars == ("x",)
        assert p.evaluate({"x": Fraction(1, 2)}) == Fraction(1, 2)


class TestHashAgreesWithEquality:
    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(2, 3)])
    def test_constant_polynomials_hash_as_their_value(self, value):
        for p in (UniPoly.constant(value), MultiPoly.const(value)):
            assert p == value
            assert hash(p) == hash(value)
            assert len({p, value}) == 1

    def test_zero_polynomials(self):
        for zero in (UniPoly.zero(), MultiPoly.const(0)):
            assert len({zero, 0}) == 1 and not zero


class TestNegativePowers:
    @pytest.mark.parametrize("k", [-1, -2])
    def test_negative_power_is_rejected(self, k):
        for p in (UniPoly([1, 1]), MultiPoly.var("x")):
            with pytest.raises(ValueError, match=f"negative power {k}"):
                p**k

    def test_zeroth_power_is_one(self):
        assert UniPoly([1, 1]) ** 0 == 1 and MultiPoly.var("x") ** 0 == 1


class TestTextFormats:
    def test_unipoly_roundtrip(self):
        p = UniPoly([Fraction(1, 2), -3, 0, 7])
        assert UniPoly.from_text(p.text()) == p
        assert p.text() == "1/2,-3,0,7"

    def test_multipoly_serialize_sorted(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = 3 * x * x * y - y + 1
        assert p.serialize() == "3*x^2*y^1+-1*y^1+1"


# Integers, Fractions with denominator 1 (which must come back as ints) and
# proper fractions, all small so every drawn matrix stays cheap.
_scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=4),
    st.integers(-30, 30).map(Fraction),
)
_FIELDS = (
    make_field(EssentialPair(1, BinaryForm([1, 2, -3, 5]))),
    make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1]))),
)


def assert_stored_exact(values):
    """Each value is an int exactly when integral: never a float, and never a
    Fraction with denominator 1."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


class TestScalarRule:
    def test_exact_normalises(self):
        assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
        assert exact(Fraction(1, 2)) == Fraction(1, 2)
        assert type(exact(True)) is int
        assert exact(0.75) == Fraction(3, 4) and type(exact(2.0)) is int
        assert exact("-8/4") == -2 and type(exact("-8/4")) is int

    def test_numpy_integers_become_ints(self):
        # numpy int64 arithmetic would overflow silently in the product
        F = make_field(EssentialPair.from_text("1:1,1,-1"))
        a = F.element((np.int64(10**18), np.int64(3)))
        product = el.mul(F, a, a).coords
        assert product == (10**36 + 9, 5999999999999999991)
        assert [type(c) for c in product] == [int, int]
        half = exact(Fraction(np.int64(3), np.int64(6)))
        assert (type(half.numerator), type(half.denominator)) == (int, int)

    def test_multipoly_products_take_the_scalars_sums_take(self):
        x = MultiPoly.var("x")
        assert x * 2.5 == 2.5 * x == x * Fraction(5, 2) == x + 2.5 - x - 2.5 + x * Fraction(5, 2)
        assert x * np.int64(3) == 3 * x
        assert [type(c) for c in (x * np.int64(3)).terms.values()] == [int]

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_scalars, min_size=1, max_size=6), st.lists(_scalars, min_size=1, max_size=4))
    def test_unipoly(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        assume(not q.is_zero())
        quo, rem = p.divmod(q)
        for r in (p, q, p + q, p - q, p * q, quo, rem, p.derivative()):
            assert_stored_exact(r.coeffs)
        assert quo * q + rem == p

    @settings(max_examples=120, deadline=None)
    @given(
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _scalars, max_size=5),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _scalars, max_size=5),
        _scalars.filter(bool),
    )
    def test_multipoly(self, a, b, s):
        p, q = MultiPoly(("s", "t"), a), MultiPoly(("s", "t"), b)
        for r in (p, p + q, p - q, p * q, p * s, p / s, p.diff("s"), (p / s) * s):
            assert_stored_exact(r.terms.values())
        assert (p / s) * s == p

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(_scalars, min_size=m * m, max_size=m * m),
        st.lists(_scalars, min_size=m * m, max_size=m * m))))
    def test_exact_matrix(self, drawn):
        m, a, b = drawn
        A, B = ExactMatrix(m, m, a), ExactMatrix(m, m, b)
        built = [A, A + B, A - B, A @ B, A * Fraction(1, 2), ExactMatrix.identity(m)]
        if det_exact(A) != 0:
            built.append(A.inverse())
            assert A @ A.inverse() == ExactMatrix.identity(m)
        for M in built:
            assert_stored_exact(M.entries)
            assert M.den >= 1 and gcd(M.den, *M.num) == 1
            assert ExactMatrix(m, m, M.entries) == M

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_FIELDS), st.lists(_scalars, min_size=8, max_size=8))
    def test_element(self, F, xs):
        alpha, beta = F.element(xs[: F.n]), F.element(xs[4 : 4 + F.n])
        results = [alpha, beta, el.add(F, alpha, beta), el.mul(F, alpha, beta)]
        results.append(el.scale(F, Fraction(3, 3), alpha))
        if not alpha.is_zero():
            results.append(el.inverse(F, alpha))
        for r in results:
            assert_stored_exact(r.coords)
        assert_stored_exact(el.char_poly(F, alpha).coeffs)
