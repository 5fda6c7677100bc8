import random
from fractions import Fraction

import pytest

from arithmat import element as el, fastmul, numeric, polyring
from arithmat.errors import FieldMismatchError, ZeroElementError
from arithmat.field import EssentialPair, NumberField, arithmetic_matrix, make_field
from arithmat.forms import BinaryForm
from arithmat.polyring import UniPoly
from arithmat.symbolic import MultiPoly, symbolic_arithmetic_matrix

import util


def golden_field():
    return make_field(EssentialPair(1, BinaryForm([1, 1, -1])))


def table_field():
    return make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))


def scaled_field():
    return make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))


class TestAddMul:
    def test_basis_vector_sum(self):
        F = table_field()
        s = el.add(F, F.element([1, 0, 0, 0]), F.element([0, 1, 0, 0]))
        assert s == F.element([1, 1, 0, 0])

    def test_additive_identity(self):
        rng = random.Random(0)
        F = table_field()
        alpha = util.random_element(F, rng)
        assert el.add(F, alpha, F.zero()) == alpha

    def test_matrix_additivity_random(self):
        rng = random.Random(1)
        pool = [util.random_field(rng, n) for n in (2, 3, 4)]
        for _ in range(100):
            F = rng.choice(pool)
            p, q = util.random_element(F, rng), util.random_element(F, rng)
            assert arithmetic_matrix(F, p) + arithmetic_matrix(F, q) == arithmetic_matrix(
                F, el.add(F, p, q)
            )

    def test_multiplicative_identity(self):
        rng = random.Random(2)
        F = scaled_field()
        alpha = util.random_element(F, rng)
        assert el.mul(F, alpha, F.one()) == alpha

    def test_golden_ratio_inverse_product(self):
        F = golden_field()
        assert el.mul(F, F.element([0, 1]), F.element([1, 1])) == F.one()

    def test_matrix_multiplicativity_random(self):
        rng = random.Random(3)
        pool = [util.random_field(rng, n) for n in (2, 3, 4, 5, 6)]
        for _ in range(200):
            F = rng.choice(pool)
            p, q = util.random_element(F, rng), util.random_element(F, rng)
            Np, Nq = arithmetic_matrix(F, p), arithmetic_matrix(F, q)
            assert Np @ Nq == arithmetic_matrix(F, el.mul(F, p, q))

    def test_matrix_commutativity_random(self):
        rng = random.Random(4)
        pool = [util.random_field(rng, n) for n in (2, 3, 4, 5)]
        for _ in range(60):
            F = rng.choice(pool)
            p, q = util.random_element(F, rng), util.random_element(F, rng)
            Np, Nq = arithmetic_matrix(F, p), arithmetic_matrix(F, q)
            assert Np @ Nq == Nq @ Np

    def test_field_mismatch(self):
        F, G = golden_field(), table_field()
        with pytest.raises(FieldMismatchError):
            el.add(F, F.one(), G.one())


class TestTrace:
    def test_trace_of_one_is_degree(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 5, 6):
            F = util.random_field(rng, n)
            assert el.trace(F, F.one()) == n

    def test_symbolic_quartic_trace(self):
        F = table_field()
        u, x, y, z = MultiPoly.variables("u x y z")
        b, c, d = F.coeff(2), F.coeff(3), F.coeff(4)
        assert symbolic_arithmetic_matrix(F).trace() == 4 * u - b * x - 2 * c * y - 3 * d * z

    def test_trace_of_zeta_is_minus_a2_over_a1(self):
        F = golden_field()
        assert el.trace(F, F.basis_element(1)) == -1

    def test_trace_linearity(self):
        rng = random.Random(6)
        F = scaled_field()
        for _ in range(40):
            p, q = util.random_element(F, rng), util.random_element(F, rng)
            s, t = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            combined = F.element([s * cp + t * cq for cp, cq in zip(p.coords, q.coords)])
            assert el.trace(F, combined) == s * el.trace(F, p) + t * el.trace(F, q)

    def test_trace_closed_form(self):
        rng = random.Random(7)
        for n, a0 in ((2, 1), (3, 1), (4, 2), (5, 1)):
            F = util.random_field(rng, n, a0=a0)
            for _ in range(20):
                alpha = util.random_element(F, rng)
                xs = alpha.coords
                expected = n * xs[0] - Fraction(F.coeff(2), F.a0) * xs[1] - sum(
                    (j * F.coeff(j + 1) * xs[j] for j in range(2, n)), Fraction(0)
                )
                assert el.trace(F, alpha) == expected


class TestNorm:
    def test_norm_of_one(self):
        assert el.norm(table_field(), table_field().one()) == 1

    def test_norm_of_zeta_by_vieta(self):
        F = golden_field()
        assert el.norm(F, F.basis_element(1)) == -1

    def test_norm_multiplicativity(self):
        rng = random.Random(8)
        pool = [util.random_field(rng, n) for n in (2, 3, 4)]
        for _ in range(100):
            F = rng.choice(pool)
            p, q = util.random_element(F, rng), util.random_element(F, rng)
            assert el.norm(F, el.mul(F, p, q)) == el.norm(F, p) * el.norm(F, q)

    def test_zero_norm_and_trace(self):
        F = table_field()
        assert el.norm(F, F.zero()) == 0
        assert el.trace(F, F.zero()) == 0


class TestResultantOracle:
    def test_oracle_of_one(self):
        F = table_field()
        assert el.norm_resultant_oracle(F, F.one()) == 1

    def test_oracle_of_zeta(self):
        F = golden_field()
        assert el.norm_resultant_oracle(F, F.basis_element(1)) == -1

    def test_oracle_matches_norm_across_degrees(self):
        rng = random.Random(9)
        pool = util.field_pool(seed=90, degrees=(2, 3, 4, 5, 6), per_degree=2)
        count = 0
        while count < 500:
            F = rng.choice(pool)
            alpha = util.random_element(F, rng, nonzero=True)
            assert el.norm_resultant_oracle(F, alpha) == el.norm(F, alpha)
            count += 1

    def test_oracle_rejects_zero(self):
        with pytest.raises(ZeroElementError):
            el.norm_resultant_oracle(table_field(), table_field().zero())


class TestInverse:
    def test_inverse_of_one(self):
        F = table_field()
        assert el.inverse(F, F.one()) == F.one()

    def test_golden_inverse(self):
        F = golden_field()
        assert el.inverse(F, F.basis_element(1)) == F.element([1, 1])

    def test_inverse_times_element_is_one(self):
        rng = random.Random(10)
        pool = [util.random_field(rng, n) for n in (2, 3, 4, 5)] + [
            util.random_field(rng, 4, a0=2)
        ]
        for _ in range(80):
            F = rng.choice(pool)
            alpha = util.random_element(F, rng, nonzero=True)
            assert el.mul(F, alpha, el.inverse(F, alpha)) == F.one()

    def test_integral_inverse_iff_unit(self):
        F = golden_field()
        unit = F.basis_element(1)  # fundamental unit: norm -1
        power = F.one()
        for _ in range(6):
            power = el.mul(F, power, unit)
            assert abs(el.norm(F, power)) == 1
            assert el.is_integral(F, el.inverse(F, power))
        rng = random.Random(11)
        checked = 0
        while checked < 100:
            alpha = util.random_element(F, rng, nonzero=True)
            if abs(el.norm(F, alpha)) == 1:
                assert el.is_integral(F, el.inverse(F, alpha))
            else:
                assert not el.is_integral(F, el.inverse(F, alpha))
            checked += 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroElementError):
            el.inverse(table_field(), table_field().zero())

    def test_inverse_makes_no_fraction(self, monkeypatch):
        F = scaled_field()
        alphas = [F.element([3, -1, 2, 5]), F.element([Fraction(1, 2), Fraction(1, 3), 0, 0])]

        def no_fraction(*args):
            raise AssertionError(f"Fraction{args} was made")

        monkeypatch.setattr(polyring, "Fraction", no_fraction)
        inverses = [el.inverse(F, alpha) for alpha in alphas]
        monkeypatch.undo()
        assert inverses[1] == F.element([Fraction(-42, 43), Fraction(-108, 43), Fraction(72, 43), Fraction(-96, 43)])
        for alpha, inv in zip(alphas, inverses):
            assert el.mul(F, alpha, inv) == F.one()


class TestCharPoly:
    def test_char_poly_of_one(self):
        F = table_field()
        assert el.char_poly(F, F.one()) == UniPoly([1, -1]) ** 4

    def test_golden_char_poly(self):
        F = golden_field()
        assert el.char_poly(F, F.basis_element(1)) == UniPoly([-1, 1, 1])

    def test_scaled_field_basis_char_poly(self):
        F = scaled_field()
        assert el.char_poly(F, F.basis_element(1)) == UniPoly([4, 2, -3, -1, 1])

    def test_element_satisfies_its_char_poly(self):
        rng = random.Random(12)
        pool = [util.random_field(rng, n) for n in (2, 3, 4)] + [
            util.random_field(rng, 3, a0=2)
        ]
        for _ in range(30):
            F = rng.choice(pool)
            alpha = util.random_element(F, rng, bound=5)
            p = el.char_poly(F, alpha)
            assert el.evaluate_poly_at(F, p, alpha).is_zero()

    def test_trace_and_norm_from_char_poly(self):
        rng = random.Random(13)
        for n in (2, 3, 4, 5):
            F = util.random_field(rng, n)
            for _ in range(10):
                alpha = util.random_element(F, rng)
                p = el.char_poly(F, alpha)
                assert el.trace(F, alpha) == -p.coeff(n - 1)
                assert el.norm(F, alpha) == (-1) ** n * p.coeff(0)

    def test_integer_coefficients_iff_integral(self):
        rng = random.Random(14)
        F = scaled_field()
        alpha = F.element([Fraction(1, 2), 1, 0, 0])
        assert any(c.denominator > 1 for c in el.char_poly(F, alpha).coeffs)
        beta = util.random_element(F, rng)
        assert all(c.denominator == 1 for c in el.char_poly(F, beta).coeffs)


class TestIntegrality:
    def test_simple_cases(self):
        F = table_field()
        assert el.is_integral(F, F.element([1, 2, 3, 4]))
        assert not el.is_integral(F, F.element([Fraction(1, 2), 0, 0, 0]))

    def test_agrees_with_integer_matrix_entries(self):
        rng = random.Random(15)
        F = scaled_field()
        for _ in range(100):
            coords = [
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4)
            ]
            alpha = F.element(coords)
            M = arithmetic_matrix(F, alpha)
            assert el.is_integral(F, alpha) == all(
                entry.denominator == 1 for entry in M.entries
            )



# each call of a ring request (perfbench's `Ring.run`) and the field checks it makes: one
# per operand, since `integer_matrix` alone checks the operand whose matrix it builds
_RING_REQUEST = {
    "add": (lambda F, a, b: el.add(F, a, b), 2),
    "mul": (lambda F, a, b: el.mul(F, a, b), 2),
    "mul_via_fft": (lambda F, a, b: fastmul.mul_via_fft(F, a, b), 2),
    "trace": (lambda F, a, b: el.trace(F, a), 1),
    "norm": (lambda F, a, b: el.norm(F, a), 1),
    "inverse": (lambda F, a, b: el.inverse(F, a), 1),
    "char_poly": (lambda F, a, b: el.char_poly(F, a), 1),
    "certificate": (lambda F, a, b: numeric.diagonalization_residual(F, a), 1),
}
_CALLS = {**_RING_REQUEST, "batch_multiply": (lambda F, a, b: fastmul.batch_multiply(F, a, [b]), 2)}


class TestOperandChecks:
    @pytest.fixture
    def checks(self, monkeypatch):
        """The operands of the `NumberField.__eq__` calls made, one per field check."""
        seen, eq = [], NumberField.__eq__

        def counted(self, other):
            seen.append(other)
            return eq(self, other)

        monkeypatch.setattr(NumberField, "__eq__", counted)
        return seen

    def test_each_operand_is_checked_once(self, checks):
        F, alpha = next(util.ring_certificates(1))
        beta = util.random_element(F, random.Random(1))
        numeric.embedding_data(F)
        counts = {}
        for name, (call, _want) in _CALLS.items():
            checks.clear()
            call(F, alpha, beta)
            counts[name] = len(checks)
        assert counts == {name: want for name, (_call, want) in _CALLS.items()}
        assert sum(counts[name] for name in _RING_REQUEST) == 11

    @pytest.mark.parametrize("name", sorted(_CALLS))
    def test_a_foreign_operand_still_raises(self, name):
        # a foreign zero too: inverse builds the matrix, which checks, before its zero test
        call, operands = _CALLS[name]
        F, G = table_field(), make_field(EssentialPair.from_text("1:1,0,0,-2,-1"))
        alpha, beta = F.element([1, 2, 0, -1]), F.element([3, 0, 1, 1])
        for alien in (G.element([1, 2, 0, -1]), G.zero()):
            for a, b in [(alien, beta), (alpha, alien)][:operands]:
                with pytest.raises(FieldMismatchError):
                    call(F, a, b)
