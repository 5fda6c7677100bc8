import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithmat import element as el
from arithmat.errors import NonSquareMatrixError, ZeroPolynomialError
from arithmat.field import EssentialPair, make_field
from arithmat.forms import BinaryForm
from arithmat.polyring import (
    ExactMatrix,
    MultiPoly,
    UniPoly,
    _sylvester_rows,
    coeffs_discriminant,
    collect_coeffs,
    det_bareiss,
    det_cofactor,
    det_exact,
    exact,
    poly_mul_schoolbook,
    resultant,
    sylvester_matrix,
)


def rand_poly(rng, degree, lo=-9, hi=9):
    coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, hi)))
    return UniPoly(coeffs)


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

        def rand_mp():
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
                for _ in range(5)
            }
            return MultiPoly(names, terms)

        p, q, r = rand_mp(), rand_mp(), rand_mp()
        for _ in range(5):
            pt = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for n in names}
            assert (p * q).evaluate(pt) == (q * p).evaluate(pt)
            assert ((p * q) * r).evaluate(pt) == (p * (q * r)).evaluate(pt)
            assert (p * (q + r)).evaluate(pt) == (p * q + p * r).evaluate(pt)


class TestSylvesterAndResultant:
    def test_quadratic_with_derivative_shape(self):
        for a, b, c in [(3, 5, 7), (1, -2, 4), (2, 0, -3)]:
            p = UniPoly([c, b, a])
            S = sylvester_matrix(p, p.derivative())
            assert S == ExactMatrix.from_rows(
                [[a, b, c], [2 * a, b, 0], [0, 2 * a, b]]
            )

    def test_linear_case(self):
        S = sylvester_matrix(UniPoly([-1, 1]), UniPoly([1, 1]))
        assert S == ExactMatrix.from_rows([[1, -1], [1, 1]])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sylvester_matrix(UniPoly.zero(), UniPoly([1, 1]))
        with pytest.raises(ZeroPolynomialError):
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


def _sylvester_discriminant(coeffs):
    """The Sylvester route: the determinant of f and f' (highest degree first),
    times (-1)^(n(n-1)/2), over a1."""
    n = len(coeffs) - 1
    deriv = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
    det = det_bareiss(_sylvester_rows(list(coeffs), deriv))
    value, rem = divmod((-1) ** (n * (n - 1) // 2) * det, coeffs[0])
    assert rem == 0
    return value


@st.composite
def discriminant_coeffs(draw):
    """Coefficients (a1, ..., a_{n+1}) of degree 2 to 12 up to 10^40, or a
    product g^2 h with a repeated factor g, whose discriminant is 0."""
    n = draw(st.integers(2, 12))

    def coeffs(k, bound):
        lead = draw(st.integers(-bound, bound).filter(bool))
        return [lead] + draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k))

    if draw(st.booleans()):
        return coeffs(n, 10**40)
    k = draw(st.integers(1, n // 2))
    g, h = UniPoly(coeffs(k, 10**13)[::-1]), UniPoly(coeffs(n - 2 * k, 10**14)[::-1])
    return list((g * g * h).coeffs[::-1])


class TestBezoutDiscriminant:
    @settings(max_examples=150, deadline=None)
    @given(discriminant_coeffs())
    @example([6, -4, 2, 0, 7])
    @example([-10**40, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10**40])
    @example([18, -60, 113, -210, 175])  # (3x - 5)^2 (2x^2 + 7)
    def test_equals_sylvester_route(self, coeffs):
        assert coeffs_discriminant(coeffs) == _sylvester_discriminant(coeffs)


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

    def test_inverse_roundtrip(self):
        rng = random.Random(9)
        while True:
            M = ExactMatrix(4, 4, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(16)])
            if det_exact(M) != 0:
                break
        assert M @ M.inverse() == ExactMatrix.identity(4)


class TestCollectCoeffs:
    def test_simple_split(self):
        t, x = MultiPoly.var("t"), MultiPoly.var("x")
        p = t * t + 3 * x * t + x * x
        cs = collect_coeffs(p, "t")
        assert cs == [x * x, 3 * x, MultiPoly.const(1)]

    def test_constant(self):
        p = MultiPoly.const(7, ("t",))
        assert collect_coeffs(p, "t") == [MultiPoly.const(7)]

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

    def test_unknown_variable_rejected(self):
        with pytest.raises(Exception):
            collect_coeffs(MultiPoly.var("t"), "nope")


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
        for M in (A, A + B, A - B, A @ B, A * Fraction(1, 2), ExactMatrix.identity(m)):
            assert_stored_exact(M.entries)
        if det_exact(A) != 0:
            assert_stored_exact(A.inverse().entries)
            assert A @ A.inverse() == ExactMatrix.identity(m)

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
