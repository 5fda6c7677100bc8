import random
from fractions import Fraction

import pytest

from arithmat.errors import (
    DimensionMismatchError,
    DivisibilityError,
    ReducibleFormError,
    ZeroDiscriminantError,
)
from arithmat.field import (
    Element,
    EssentialPair,
    arithmetic_matrix,
    basis_change_matrix,
    generic_arithmetic_matrix,
    integral_basis_description,
    make_field,
    matrix_from_coefficients,
    symbolic_arithmetic_matrix,
)
from arithmat.forms import BinaryForm
from arithmat.polyring import ExactMatrix, MultiPoly, UniPoly

import util

u, x, y, z, w = MultiPoly.variables("u x y z w")
a, b, c, d, e, f = MultiPoly.variables("a b c d e f")


class TestMakeField:
    def test_table_field(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        assert (F.disc, F.n) == (-275, 4)

    def test_scaled_field(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        assert (F.disc, F.n) == (513, 4)

    def test_divisibility_violation(self):
        with pytest.raises(DivisibilityError):
            make_field(EssentialPair(2, BinaryForm([2, 2, 1, 1, 1])))

    def test_a2_divisibility_violation(self):
        with pytest.raises(DivisibilityError):
            make_field(EssentialPair(2, BinaryForm([4, 1, 1, 1, 1])))

    def test_reducible_form(self):
        with pytest.raises(ReducibleFormError):
            make_field(EssentialPair(1, BinaryForm([1, 0, 0, 0, -1])))

    def test_degree_six_rational_root_is_reducible(self):
        # x^6 - 1 has the root 1
        with pytest.raises(ReducibleFormError, match="reducible over the rationals"):
            make_field(EssentialPair(1, BinaryForm([1, 0, 0, 0, 0, 0, -1])))

    def test_zero_discriminant(self):
        with pytest.raises(ZeroDiscriminantError):
            make_field(EssentialPair(1, BinaryForm([1, 2, 1])))

    def test_nonpositive_a0(self):
        with pytest.raises(DivisibilityError):
            make_field(EssentialPair(0, BinaryForm([1, 1, -1])))

    def test_pair_text_roundtrip(self):
        pair = EssentialPair(2, BinaryForm([4, -2, -3, 1, 1]))
        assert EssentialPair.from_text(pair.text()) == pair


class TestSymbolicMatrices:
    def test_degree_two_template(self):
        M = generic_arithmetic_matrix(2)
        expected = ExactMatrix.from_rows([[u, -a * c * x], [x, u - b * x]])
        assert M == expected

    def test_degree_three_display(self):
        M = generic_arithmetic_matrix(3)
        expected = ExactMatrix.from_rows(
            [
                [u, -a * d * y, -a * d * x - b * d * y],
                [x, u - b * x - c * y, -c * x - d * y],
                [y, a * x, u - c * y],
            ]
        )
        assert M == expected

    def test_degree_four_display(self):
        M = generic_arithmetic_matrix(4)
        expected = ExactMatrix.from_rows(
            [
                [u, -a * e * z, -e * (a * y + b * z), -e * (a * x + b * y + c * z)],
                [x, u - b * x - c * y - d * z, -c * x - d * y - e * z, -d * x - e * y],
                [y, a * x, u - c * y - d * z, -d * y - e * z],
                [z, a * y, a * x + b * y, u - d * z],
            ]
        )
        assert M == expected
        assert M[0, 1] == -a * e * z
        assert M[3, 3] == u - d * z

    def test_degree_five_display(self):
        M = generic_arithmetic_matrix(5)
        expected = ExactMatrix.from_rows(
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
        assert M == expected

    def test_scaled_example_matrix(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        M = symbolic_arithmetic_matrix(F)
        expected = ExactMatrix.from_rows(
            [
                [u, -2 * z, 2 * z - 4 * y, -2 * x + 2 * y + 3 * z],
                [x, u + x + 3 * y - z, 3 * x - 2 * y - 2 * z, -x - 2 * y],
                [y, x, u + 3 * y - z, -y - z],
                [z, 2 * y, 2 * x - 2 * y, u - z],
            ]
        )
        assert M == expected
        assert M[0, 1] == -2 * z
        assert M[1, 1] == u + x + 3 * y - z
        assert M[2, 1] == x

    def test_construction_paths_agree(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        assert symbolic_arithmetic_matrix(F, "explicit") == symbolic_arithmetic_matrix(
            F, "substitution"
        )
        rng = random.Random(11)
        for n, a0 in ((2, 2), (3, 2), (4, 3), (5, 2), (6, 2), (7, 4)):
            G = util.random_field(rng, n, a0=a0)
            assert symbolic_arithmetic_matrix(G, "explicit") == symbolic_arithmetic_matrix(
                G, "substitution"
            )

    def test_symbolic_entries_have_integer_coefficients(self):
        rng = random.Random(12)
        for n, a0 in ((2, 1), (3, 1), (4, 2), (5, 1), (3, 3)):
            F = util.random_field(rng, n, a0=a0)
            M = symbolic_arithmetic_matrix(F)
            for entry in M.entries:
                assert entry.is_integer_coefficients()


class TestArithmeticMatrix:
    def test_one_gives_identity(self):
        rng = random.Random(13)
        for n in (2, 3, 4, 5):
            F = util.random_field(rng, n)
            assert arithmetic_matrix(F, F.one()) == ExactMatrix.identity(n)

    def test_first_column_is_coordinates(self):
        rng = random.Random(14)
        F = util.random_field(rng, 4)
        alpha = util.random_element(F, rng)
        M = arithmetic_matrix(F, alpha)
        assert M.column(0) == alpha.coords

    def test_additivity(self):
        rng = random.Random(15)
        for F in (util.random_field(rng, 3), util.random_field(rng, 4, a0=2)):
            for _ in range(25):
                p = util.random_element(F, rng)
                q = util.random_element(F, rng)
                s = F.element([c1 + c2 for c1, c2 in zip(p.coords, q.coords)])
                assert arithmetic_matrix(F, p) + arithmetic_matrix(F, q) == arithmetic_matrix(F, s)

    def test_integer_entries_iff_integral_coordinates(self):
        rng = random.Random(16)
        F = util.random_field(rng, 4, a0=2)
        for _ in range(40):
            coords = [
                Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(4)
            ]
            alpha = F.element(coords)
            M = arithmetic_matrix(F, alpha)
            integer_entries = all(entry.denominator == 1 for entry in M.entries)
            assert integer_entries == all(cd.denominator == 1 for cd in coords)

    def test_kernel_agrees_with_both_formulas_and_an_unknown_route_raises(self):
        rng = random.Random(18)
        for a0 in (1, 2):
            F = util.random_field(rng, 4, a0=a0)
            alpha = F.element([3, Fraction(-1, 2), 0, 5])
            kernel = arithmetic_matrix(F, alpha)
            coeffs = F.pair.form.coeffs
            for method in ("explicit", "substitution"):
                assert matrix_from_coefficients(coeffs, a0, alpha.coords, method) == kernel
                assert arithmetic_matrix(F, alpha, method) == kernel
            with pytest.raises(ValueError, match="unknown construction method"):
                arithmetic_matrix(F, alpha, "bogus")

    def test_dimension_mismatch(self):
        rng = random.Random(17)
        F = util.random_field(rng, 3)
        with pytest.raises(DimensionMismatchError):
            F.element([1, 2])


class TestBasisData:
    def test_basis_change_degree_three_readoff(self):
        F = make_field(EssentialPair(1, BinaryForm([2, 1, -3, -1])))
        A = basis_change_matrix(F)
        assert A == ExactMatrix.from_rows([[1, 0, 0], [0, 2, 1], [0, 0, 2]])

    def test_basis_change_scaled_entry(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        assert basis_change_matrix(F)[1, 1] == 2

    def test_basis_change_invertible(self):
        rng = random.Random(18)
        for n, a0 in ((2, 1), (4, 2), (5, 1)):
            F = util.random_field(rng, n, a0=a0)
            A = basis_change_matrix(F)
            assert A.inverse() @ A == ExactMatrix.identity(n)

    def test_integral_basis_table_field(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        basis = integral_basis_description(F)
        assert basis == [
            UniPoly([1], "zeta"),
            UniPoly([0, 1], "zeta"),
            UniPoly([0, 1, 1], "zeta"),
            UniPoly([0, 0, 1, 1], "zeta"),
        ]

    def test_integral_basis_scaled_field(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        basis = integral_basis_description(F)
        assert basis == [
            UniPoly([1], "zeta"),
            UniPoly([0, 2], "zeta"),
            UniPoly([0, -2, 4], "zeta"),
            UniPoly([0, -3, -2, 4], "zeta"),
        ]

    def test_first_basis_element_is_one(self):
        rng = random.Random(19)
        for n in (2, 3, 4, 5, 6):
            F = util.random_field(rng, n)
            assert integral_basis_description(F)[0] == UniPoly([1], "zeta")


class TestElementText:
    def test_roundtrip_with_fractions(self):
        rng = random.Random(20)
        F = util.random_field(rng, 3)
        alpha = F.element([Fraction(1, 2), -3, Fraction(7, 5)])
        assert Element.from_text(F, alpha.text()) == alpha
        assert alpha.text() == "1/2,-3,7/5"
