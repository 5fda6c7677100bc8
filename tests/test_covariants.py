import random

import pytest

from arithmat import element as el
from arithmat.covariants import (
    TernaryForm,
    _ghf_from_coeffs,
    cubic_covariants,
    cubic_norm_equation_check,
    cubic_syzygy_check,
    quartic_ghf,
    quartic_hessian_identity_check,
    quartic_invariants,
    quartic_norm_equation_check,
    quartic_syzygy_check,
)
from arithmat.errors import ArithmatError, UnsupportedDegreeError
from arithmat.field import EssentialPair, make_field
from arithmat.forms import BinaryForm, is_irreducible
from arithmat.symbolic import MultiPoly

import util


def rand_quartic(rng, hi=6):
    while True:
        cs = [rng.randint(1, hi)] + [rng.randint(-hi, hi) for _ in range(4)]
        if cs[-1]:
            return BinaryForm(cs)


class TestInvariants:
    def test_fourth_power_sum(self):
        assert quartic_invariants(BinaryForm([1, 0, 0, 0, 1])) == (12, 0)

    def test_even_palindrome(self):
        assert quartic_invariants(BinaryForm([1, 0, 1, 0, 1])) == (13, 70)

    def test_scaled_example(self):
        assert quartic_invariants(BinaryForm([4, -2, -3, 1, 1])) == (63, -972)

    def test_symbolic_formula_oracle(self):
        rng = random.Random(0)
        a, b, c, d, e = MultiPoly.variables("a b c d e")
        i_sym = 12 * a * e - 3 * b * d + c * c
        j_sym = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
        for _ in range(20):
            V = rand_quartic(rng)
            point = dict(zip("abcde", V.coeffs))
            assert quartic_invariants(V) == (
                i_sym.evaluate(point),
                j_sym.evaluate(point),
            )

    def test_wrong_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            quartic_invariants(BinaryForm([1, 1, -1]))
        quartic = (quartic_invariants, quartic_ghf, quartic_syzygy_check,
                   quartic_norm_equation_check, quartic_hessian_identity_check)
        cubic = (cubic_covariants, cubic_syzygy_check, cubic_norm_equation_check)
        for checks, n, form in ((quartic, 4, [1, 0, 0, 2]), (cubic, 3, [1, 0, 0, 0, 2])):
            for check in checks:
                message = f"^expected a degree-{n} form, got {7 - n}$"
                with pytest.raises(UnsupportedDegreeError, match=message):
                    check(BinaryForm(form))


class TestQuarticGHF:
    def test_generic_display_coefficients(self):
        G, H, F = quartic_ghf()
        a, b, c, d, e = MultiPoly.variables("a b c d e")
        assert G.coefficient(2, 0, 0) == 3 * b * b - 8 * a * c
        assert G.coefficient(1, 1, 0) == 4 * b * c - 24 * a * d
        assert G.coefficient(0, 2, 0) == 4 * c * c - 8 * b * d - 16 * a * e
        assert G.coefficient(1, 0, 1) == 2 * b * d - 32 * a * e
        assert G.coefficient(0, 1, 1) == 4 * c * d - 24 * b * e
        assert G.coefficient(0, 0, 2) == 3 * d * d - 8 * c * e

    def test_degrees(self):
        G, H, F = quartic_ghf()
        assert (G.degree, H.degree, F.degree) == (2, 3, 4)

    def test_homogeneity_counts_only_x_y_z(self):
        a, x, y, z = MultiPoly.variables("a x y z")
        assert TernaryForm(a * a * x * y - 3 * z * z, 2).coefficient(0, 0, 2) == -3
        with pytest.raises(ArithmatError, match="term of \\(x,y,z\\)-degree 1 in a declared degree-2 form"):
            TernaryForm(a * x * y + a * z, 2)

    def test_cached_expansion_follows_the_form(self):
        V1, V2 = BinaryForm([4, -2, -3, 1, 1]), BinaryForm([1, 1, 0, -2, -1])
        for V in (V1, V2, V1):
            assert quartic_ghf(V) == _ghf_from_coeffs.__wrapped__(V.coeffs)[:3]

    def test_cubic_term_cancels_on_random_quartics(self):
        rng = random.Random(1)
        for _ in range(20):
            quartic_ghf(rand_quartic(rng))  # construction asserts the cancellation

    def test_hessian_identity_generic(self):
        assert quartic_hessian_identity_check()

    def test_hessian_identity_concrete(self):
        rng = random.Random(2)
        for _ in range(10):
            assert quartic_hessian_identity_check(rand_quartic(rng))


class TestQuarticSyzygy:
    def test_fourth_power_sum(self):
        assert quartic_syzygy_check(BinaryForm([1, 0, 0, 0, 1]))

    def test_scaled_example(self):
        assert quartic_syzygy_check(BinaryForm([4, -2, -3, 1, 1]))

    def test_generic_identity(self):
        assert quartic_syzygy_check()

    def test_random_irreducible_quartics(self):
        rng = random.Random(3)
        checked = 0
        while checked < 50:
            V = rand_quartic(rng)
            if not is_irreducible(V):
                continue
            assert quartic_syzygy_check(V)
            checked += 1


class TestQuarticNormEquation:
    def test_generic_identity(self):
        assert quartic_norm_equation_check()

    def test_concrete_and_random_points(self):
        # the identity lives on the standard (a0 = 1) matrix of the form
        rng = random.Random(4)
        V = BinaryForm([4, -2, -3, 1, 1])
        assert quartic_norm_equation_check(V)
        G, H, Fq = quartic_ghf(V)
        from arithmat.symbolic import det_cofactor, matrix_from_coefficients

        det = det_cofactor(matrix_from_coefficients(list(V.coeffs)))
        _, bb, cc, dd, _ = V.coeffs
        for _ in range(20):
            uu, xx, yy, zz = (rng.randint(-6, 6) for _ in range(4))
            t = 4 * uu - bb * xx - 2 * cc * yy - 3 * dd * zz
            point = {"x": xx, "y": yy, "z": zz}
            lhs = 256 * det.evaluate({"u": uu, **point})
            rhs = (
                t**4
                - 2 * G.poly.evaluate(point) * t * t
                - 8 * H.poly.evaluate(point) * t
                + Fq.poly.evaluate(point)
            )
            assert lhs == rhs

    def test_unit_element_trivial_case(self):
        V = BinaryForm([1, 1, 0, -2, -1])
        G, H, Fq = quartic_ghf(V)
        origin = {"x": 0, "y": 0, "z": 0}
        t = 4
        assert (
            t**4
            - 2 * G.poly.evaluate(origin) * t * t
            - 8 * H.poly.evaluate(origin) * t
            + Fq.poly.evaluate(origin)
            == 256
        )

    def test_norm_one_box_in_table_field(self):
        V = BinaryForm([1, 1, 0, -2, -1])
        F = make_field(EssentialPair(1, V))
        G, H, Fq = quartic_ghf(V)
        found = 0
        for coords, t in _norm_one_elements(F, 3):
            _, xx, yy, zz = coords
            point = {"x": xx, "y": yy, "z": zz}
            value = (
                t**4
                - 2 * G.poly.evaluate(point) * t * t
                - 8 * H.poly.evaluate(point) * t
                + Fq.poly.evaluate(point)
            )
            assert value == 256
            found += 1
        assert found > 1  # 1 itself plus at least one nontrivial unit


def _norm_one_elements(F, box):
    import itertools

    for coords in itertools.product(range(-box, box + 1), repeat=F.n):
        if not any(coords):
            continue
        alpha = F.element(coords)
        if el.norm(F, alpha) == 1:
            yield coords, el.trace(F, alpha)


class TestCubicCovariants:
    def test_hessian_of_discriminant_49_form(self):
        Q, Fj = cubic_covariants(BinaryForm([1, 1, -2, -1]))
        assert Q == (7, 7, 7)

    def test_zero_end_hessian_supported(self):
        Q, Fj = cubic_covariants(BinaryForm([1, 6, 12, 10]))
        assert Q[0] == 0

    def test_cayley_generic(self):
        assert cubic_syzygy_check()

    def test_cayley_concrete(self):
        rng = random.Random(5)
        assert cubic_syzygy_check(BinaryForm([1, 1, -2, -1]))
        for _ in range(20):
            cs = [rng.randint(1, 6)] + [rng.randint(-6, 6) for _ in range(3)]
            if cs[-1] == 0:
                continue
            assert cubic_syzygy_check(BinaryForm(cs))

    def test_norm_equation_generic(self):
        assert cubic_norm_equation_check()

    def test_norm_one_correspondence_disc_49(self):
        C = BinaryForm([1, 1, -2, -1])
        F = make_field(EssentialPair(1, C))
        Q, Fj = cubic_covariants(C)
        qx = lambda xx, yy: Q[0] * xx * xx + Q[1] * xx * yy + Q[2] * yy * yy
        fx = lambda xx, yy: (
            Fj[0] * xx**3 + Fj[1] * xx * xx * yy + Fj[2] * xx * yy * yy + Fj[3] * yy**3
        )
        found = 0
        for coords, t in _norm_one_elements(F, 3):
            _, xx, yy = coords
            assert t**3 - 3 * t * qx(xx, yy) + fx(xx, yy) == 27
            found += 1
        assert found >= 3  # the totally real cubic has plenty of small units

    def test_wrong_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            cubic_covariants(BinaryForm([1, 0, 0, 0, 1]))
