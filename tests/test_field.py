import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithmat import covariants, field, symbolic
from arithmat.errors import (
    ArithmatError,
    DimensionMismatchError,
    DivisibilityError,
    ReducibleFormError,
    ZeroDiscriminantError,
)
from arithmat.field import (
    Element,
    EssentialPair,
    NumberField,
    _diagonal_sums,
    arithmetic_matrix,
    basis_change_matrix,
    from_power_basis,
    integer_matrix,
    integer_trace,
    integral_basis_description,
    make_field,
    to_power_basis,
)
from arithmat.forms import BinaryForm, form_discriminant
from arithmat.polyring import ExactMatrix, UniPoly
from arithmat.symbolic import (
    SYMBOLIC_DEGREE_CAP,
    MultiPoly,
    generic_arithmetic_matrix,
    generic_form_coeffs,
    matrix_from_coefficients,
    symbolic_arithmetic_matrix,
    symbolic_coords,
)

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

    @pytest.mark.parametrize(
        "coeffs", [[2, 4, 2], [2, 1, -1]], ids=["zero discriminant", "discriminant 9 not divisible by 4"]
    )
    def test_scale_is_reported_before_the_discriminant(self, coeffs):
        with pytest.raises(DivisibilityError, match=r"^a0\^2 = 4 does not divide a1 = 2$"):
            make_field(EssentialPair(2, BinaryForm(coeffs)))

    def test_pair_text_roundtrip(self):
        pair = EssentialPair(2, BinaryForm([4, -2, -3, 1, 1]))
        assert EssentialPair.from_text(pair.text()) == pair

    def test_field_reads_its_discriminant_off_the_form(self):
        from arithmat.numeric import diagonalization_residual

        # a field built directly takes no discriminant: x^2 + x - 1 gives 5
        F = field.NumberField(EssentialPair(1, BinaryForm([1, 1, -1])))
        assert F.disc == 5
        assert diagonalization_residual(F, F.element([1, 2])) < 1e-8

    @pytest.mark.parametrize("a0", range(2, 7))
    def test_scale_conditions_make_a0_squared_divide_the_discriminant(self, a0):
        # D = a2^2 D' mod a1, D' the discriminant of (a2, ..., a_{n+1}), so a0^2 | a1
        # and a0 | a2 give a0^2 | D, and `NumberField.disc` divides exactly; the
        # fields workload builds degrees up to 12
        rng = random.Random(40 + a0)
        for n in range(2, 13):
            for _ in range(6):
                cs = [a0 * a0 * rng.randint(1, 9), a0 * rng.randint(-9, 9)]
                cs += [rng.randint(-9, 9) for _ in range(n - 2)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
                F = field.NumberField(EssentialPair(a0, BinaryForm(cs)))
                assert F.disc * a0 * a0 == form_discriminant(F.pair.form)


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

    @staticmethod
    def assert_oracles_give(M, coeffs, a0):
        """Both of the paper's routes, on the coordinate symbols, give the kernel's M."""
        coords = symbolic_coords(len(coeffs) - 1)
        for method in ("explicit", "substitution"):
            assert matrix_from_coefficients(coeffs, a0, coords, method) == M

    def test_construction_paths_agree(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        self.assert_oracles_give(symbolic_arithmetic_matrix(F), F.pair.form.coeffs, 2)
        # as polynomials in generic coefficients and coordinates
        for a0 in (2, 3):
            for n in range(2, 9):
                self.assert_oracles_give(generic_arithmetic_matrix(n, a0), generic_form_coeffs(n), a0)
        rng = random.Random(11)
        for n, a0 in ((2, 2), (3, 2), (4, 3), (5, 2), (6, 2), (7, 4)):
            G = util.random_field(rng, n, a0=a0)
            self.assert_oracles_give(symbolic_arithmetic_matrix(G), G.pair.form.coeffs, a0)

    def test_explicit_formula_at_every_a0_is_the_integer_kernel(self):
        # the kernel uses only +, -, * and `_quotient`, so it runs on generic symbols as well
        for n in range(2, SYMBOLIC_DEGREE_CAP + 1):
            for a0 in range(1, 5):
                kernel = generic_arithmetic_matrix(n, a0)
                assert kernel == ExactMatrix.from_rows(
                    _diagonal_sums(n, generic_form_coeffs(n), a0, symbolic_coords(n))
                )
                self.assert_oracles_give(kernel, generic_form_coeffs(n), a0)

    def test_symbolic_matrices_never_run_the_explicit_formula(self, monkeypatch):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        expected = symbolic_arithmetic_matrix(F), generic_arithmetic_matrix(5, 3)

        def refuse(*_):
            raise AssertionError("a symbolic matrix ran the explicit entry formula")

        monkeypatch.setattr(symbolic, "_explicit_entry", refuse)
        assert (symbolic_arithmetic_matrix(F), generic_arithmetic_matrix(5, 3)) == expected
        covariants._ghf_from_coeffs.cache_clear()
        covariants._cubic_covariant_polys.cache_clear()
        for check, V in (
            (covariants.quartic_syzygy_check, F.pair.form),
            (covariants.quartic_norm_equation_check, F.pair.form),
            (covariants.cubic_syzygy_check, BinaryForm([1, 2, -3, 5])),
            (covariants.cubic_norm_equation_check, BinaryForm([1, 2, -3, 5])),
        ):
            assert check(V)

    def test_substitution_evaluates_the_formula_at_a0_one(self, monkeypatch):
        # both routes give equal matrices, so only the a0 that reaches the formula
        # tells the substitution oracle from the explicit one
        formula, seen = symbolic._explicit_entry, []

        def record(n, a, a0, xs):
            seen.append(a0)
            return formula(n, a, a0, xs)

        monkeypatch.setattr(symbolic, "_explicit_entry", record)
        rng = random.Random(19)
        for a0 in (2, 3):
            F = util.random_field(rng, 4, a0=a0)
            coords = F.element([3, Fraction(-1, 2), 0, 5]).coords
            for method, formula_a0 in (("substitution", 1), ("explicit", a0)):
                seen.clear()
                matrix_from_coefficients(F.pair.form.coeffs, F.a0, coords, method)
                assert seen == [formula_a0]

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

    def test_substitution_route_never_runs_the_kernel(self, monkeypatch):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        alpha = F.element([3, Fraction(-1, 2), 0, 5])
        kernel = arithmetic_matrix(F, alpha)

        def refuse(*_):
            raise AssertionError("the substitution route ran the integer kernel")

        monkeypatch.setattr(field, "integer_matrix", refuse)
        assert arithmetic_matrix(F, alpha, "substitution") == kernel

    def test_dimension_mismatch(self):
        rng = random.Random(17)
        F = util.random_field(rng, 3)
        with pytest.raises(DimensionMismatchError):
            F.element([1, 2])


_BIG = st.integers(-10**200, 10**200)


@st.composite
def _scaled_fields(draw, steep=False, max_degree=16, big=_BIG):
    """A field context of degree 2-16 at a0 = 1-4 with coefficients up to
    10^200, or as `max_degree` and `big` say; NumberField checks only the
    scale, which the basis change needs.  steep asks for |a1/a0| > 1, so
    that zeta is not integral over omega."""
    n, a0 = draw(st.integers(2, max_degree)), draw(st.integers(1, 4))
    c1 = draw(big.filter(lambda c: abs(c * a0) > 1 if steep else c))
    rest = draw(st.lists(big, min_size=n, max_size=n))
    rest[0] *= a0
    rest[-1] = rest[-1] or 1
    return NumberField(EssentialPair(a0, BinaryForm([c1 * a0 * a0] + rest)))


def _coords(F, rational=False):
    entry = st.one_of(_BIG, st.builds(Fraction, _BIG, st.integers(1, 10**200))) if rational else _BIG
    return st.lists(entry, min_size=F.n, max_size=F.n)


class TestTraceForm:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_trace_is_the_matrix_diagonal(self, data):
        height = st.integers(-10**50, 10**50)
        F = data.draw(_scaled_fields(max_degree=12, big=height))
        xs = data.draw(st.lists(height, min_size=F.n, max_size=F.n))
        rows, _ = integer_matrix(F, F.element(xs))
        assert integer_trace(F, xs) == sum(rows[i][i] for i in range(F.n))

    def test_make_field_leaves_it_unbuilt(self):
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        assert F._trace is None
        assert integer_trace(F, [1, 0, 0, 0]) == 4
        assert F._trace == (4, 1, 6, -3)


class TestBasisData:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_to_power_basis_is_the_basis_change_matrix(self, data):
        F = data.draw(_scaled_fields())
        xs = data.draw(_coords(F, rational=True))
        assert to_power_basis(F, xs) == basis_change_matrix(F).apply(xs)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_power_basis_inverts_it_on_integers(self, data):
        F = data.draw(_scaled_fields())
        xs = data.draw(_coords(F))
        assert from_power_basis(F, to_power_basis(F, xs)) == xs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_power_basis_rejects_a_point_outside_the_image(self, data):
        # an image point plus zeta = e1 needs the coordinate 1/(a1/a0) on omega_1
        F = data.draw(_scaled_fields(steep=True))
        ys = to_power_basis(F, data.draw(_coords(F)))
        ys[1] += 1
        with pytest.raises(ArithmatError):
            from_power_basis(F, ys)

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


class TestIndexChecks:
    F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))

    def test_basis_element(self):
        assert self.F.basis_element(3) == self.F.element([0, 0, 0, 1])
        for j in (-1, 4):
            with pytest.raises(IndexError, match=f"basis index {j} out of range for a degree-4"):
                self.F.basis_element(j)

    def test_coeff(self):
        assert (self.F.coeff(1), self.F.coeff(5)) == (1, -1)
        for k in (0, -1, 6):
            with pytest.raises(IndexError, match=f"coefficient index {k} out of range for a degree-4"):
                self.F.coeff(k)


class TestElementText:
    def test_roundtrip_with_fractions(self):
        rng = random.Random(20)
        F = util.random_field(rng, 3)
        alpha = F.element([Fraction(1, 2), -3, Fraction(7, 5)])
        assert Element.from_text(F, alpha.text()) == alpha
        assert alpha.text() == "1/2,-3,7/5"
