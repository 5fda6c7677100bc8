import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithmat.errors import (
    NonIntegerEntryError,
    ReducibleFormError,
    UnsupportedDegreeError,
    ZeroPolynomialError,
)
from arithmat import forms
from arithmat.field import EssentialPair, make_field
from arithmat.forms import (
    _ACCEPT_PRIMES,
    BinaryForm,
    _divisors,
    _eisenstein,
    _gfp_gcd,
    _gfp_is_irreducible,
    _gfp_mulmod,
    _gfp_trim,
    _has_rational_root,
    _primitive_monic_sign,
    _quadratic_factor_exists,
    evaluate,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from arithmat.polyring import UniPoly, poly_mul_schoolbook


def rand_form(rng, n, hi=9):
    while True:
        cs = [rng.randint(1, hi)] + [rng.randint(-hi, hi) for _ in range(n)]
        if cs[-1]:
            return BinaryForm(cs)


class TestEvaluate:
    def test_leading_and_trailing(self):
        B = BinaryForm([1, 1, 0, -2, -1])
        assert evaluate(B, 1, 0) == 1
        assert evaluate(B, 0, 1) == -1

    def test_fourth_powers(self):
        assert evaluate(BinaryForm([1, 0, 0, 0, 1]), 1, 1) == 2

    def test_matches_dehomogenized(self):
        rng = random.Random(0)
        for _ in range(20):
            B = rand_form(rng, rng.randint(2, 5))
            x = rng.randint(-5, 5)
            f = B.dehomogenized()
            assert evaluate(B, x, 1) == f(x)


class TestDiscriminant:
    def test_table_anchor(self):
        assert form_discriminant(BinaryForm([1, 1, 0, -2, -1])) == -275

    def test_quadratic_classical(self):
        assert form_discriminant(BinaryForm([1, 0, -1])) == 4
        rng = random.Random(1)
        for _ in range(30):
            a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            if c == 0:
                continue
            assert form_discriminant(BinaryForm([a, b, c])) == b * b - 4 * a * c

    def test_scaled_pair_anchor(self):
        assert form_discriminant(BinaryForm([4, -2, -3, 1, 1])) == 2052

    def test_negation_invariance(self):
        rng = random.Random(2)
        for _ in range(30):
            B = rand_form(rng, rng.randint(2, 5))
            assert form_discriminant(B) == form_discriminant(-B)

    def test_float_root_product_oracle(self):
        rng = random.Random(3)
        checked = 0
        while checked < 50:
            B = rand_form(rng, rng.randint(2, 5))
            exact = form_discriminant(B)
            if exact == 0:
                continue
            n = B.degree
            roots = np.roots([float(c) for c in B.coeffs])
            prod = complex(B.coeffs[0] ** (2 * n - 2))
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= (roots[i] - roots[j]) ** 2
            assert abs(prod - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1

    def test_end_coefficients_must_be_nonzero(self):
        with pytest.raises(ZeroPolynomialError):
            BinaryForm([0, 1, 1])
        with pytest.raises(ZeroPolynomialError):
            BinaryForm([1, 1, 0])


class TestIrreducibility:
    def test_classical_true(self):
        assert is_irreducible(BinaryForm([1, 0, 0, 0, 1]))

    def test_perfect_square_false(self):
        assert not is_irreducible(BinaryForm([1, 0, 2, 0, 1]))

    def test_zero_discriminant_implies_reducible(self):
        for cs in ([1, 2, 1], [1, 0, 2, 0, 1], [4, 4, 1]):
            B = BinaryForm(cs)
            if form_discriminant(B) == 0:
                assert not is_irreducible(B)

    def test_no_four_cycle_group_still_decided(self):
        # factors modulo every prime, so only the exhaustive phase decides
        assert is_irreducible(BinaryForm([1, 0, -1, 0, 1]))
        assert is_irreducible(BinaryForm([1, 0, 0, 0, 1]))

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            is_irreducible(BinaryForm([1, 0, 0, 0, 0, 0, 1]))

    def test_random_quadratic_times_quadratic_detected(self):
        rng = random.Random(4)
        for _ in range(25):
            g = UniPoly([rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 6)])
            h = UniPoly([rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 6)])
            prod = poly_mul_schoolbook(g, h)
            if prod.coeff(0) == 0:
                continue
            B = BinaryForm([int(prod.coeff(k)) for k in range(4, -1, -1)])
            assert not is_irreducible(B)

    def test_random_quadratic_times_cubic_detected(self):
        rng = random.Random(5)
        for _ in range(25):
            g = UniPoly([rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5)])
            h = UniPoly(
                [rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5)]
            )
            prod = poly_mul_schoolbook(g, h)
            if prod.coeff(0) == 0:
                continue
            B = BinaryForm([int(prod.coeff(k)) for k in range(5, -1, -1)])
            assert not is_irreducible(B)

    def test_rational_root_detected(self):
        # (2x - 3)(x^3 + x + 1) has the rational root 3/2
        g = UniPoly([-3, 2])
        h = UniPoly([1, 1, 0, 1])
        prod = poly_mul_schoolbook(g, h)
        B = BinaryForm([int(prod.coeff(k)) for k in range(4, -1, -1)])
        assert not is_irreducible(B)

    def test_rational_root_scan_finds_divisors_twice(self, monkeypatch):
        # once for the lead and once for the constant, not once per lead divisor
        calls = []

        def counted(n):
            calls.append(n)
            return _divisors(n)

        monkeypatch.setattr(forms, "_divisors", counted)
        assert not _has_rational_root((5, 1, 0, 12))  # 12x^3 + x + 5
        assert _has_rational_root((-3, -1, 2, -3, 2))  # (2x - 3)(x^3 + x + 1)
        assert calls == [5, 12, -3, 2]

    def test_certificate_degrees_above_five(self):
        assert irreducibility_certificate(BinaryForm([1, 0, 0, 0, 0, -1, 1])) is True
        # x^6 - 1 factors; certificate refutes via rational root
        assert irreducibility_certificate(BinaryForm([1, 0, 0, 0, 0, 0, -1])) is False


def _has_monic_divisor_mod_p(cs, p):
    """Brute force: a monic g over GF(p), 1 <= deg g <= n/2, divides cs mod p."""
    n = len(cs) - 1
    inv = pow(cs[-1], p - 2, p)
    f = [c * inv % p for c in cs]
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            r = list(f)
            for k in range(n, d - 1, -1):
                c = r[k]
                for j, g in enumerate(low):
                    r[k - d + j] = (r[k - d + j] - c * g) % p
                r[k] = 0
            if not any(r):
                return True
    return False


def _powmod_scan(cs, p):
    """The reference scan: x^p mod f by square-and-multiply, then
    gcd(x^(p^k) - x, f) = 1 for every k = 1 .. n/2."""
    if cs[-1] % p == 0:
        return False
    n = len(cs) - 1
    inv = pow(cs[-1] % p, p - 2, p)
    f = [(c * inv) % p for c in cs]
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _gfp_mulmod(xp, base, f, p)
        base = _gfp_mulmod(base, base, f, p)
        e >>= 1
    h, rows = xp + [0] * (n - len(xp)), [[1]]
    for k in range(1, n // 2 + 1):
        if k > 1:
            while len(rows) < n:
                rows.append(_gfp_mulmod(rows[-1], xp, f, p))
            out = [0] * n
            for c, row in zip(h, rows):
                for j, q in enumerate(row):
                    out[j] += c * q
            h = [v % p for v in out]
        diff = _gfp_trim([h[0], (h[1] - 1) % p] + h[2:])
        if not diff or len(_gfp_gcd(f, diff, p)) != 1:
            return False
    return True


def _brute_force_cases():
    """(p, low, lead) of degree at most 6, or at most 5 at p = 47, so that
    the brute-force search there tries factors of degree at most 2."""
    return st.sampled_from((2, 3, 5, 7, 11, 13, 47)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(-60, 60), min_size=1, max_size=6 if p < 47 else 5),
            st.integers(1, 60),
        )
    )


class TestModPIrreducibility:
    @settings(max_examples=300, deadline=None)
    @given(_brute_force_cases())
    def test_matches_brute_force_divisor_search(self, case):
        p, low, lead = case
        cs = (*low, lead)
        if lead % p == 0:
            assert _gfp_is_irreducible(cs, p) is False
        else:
            assert _gfp_is_irreducible(cs, p) is not _has_monic_divisor_mod_p(cs, p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
        st.integers(-10**6, 10**6).filter(bool),
    )
    @example([3], 1)
    @example([1, 0, 1, 0], 1)
    def test_matches_powmod_scan_at_every_accept_prime(self, low, lead):
        cs = (*low, lead)
        for p in _ACCEPT_PRIMES:
            assert _gfp_is_irreducible(cs, p) is _powmod_scan(cs, p), p

    def test_repeated_factor_is_reducible(self):
        # (x^2 + x + 1)^2 mod 2: no linear factor, a repeated quadratic one
        assert _gfp_is_irreducible((1, 0, 1, 0, 1), 2) is False
        assert _gfp_is_irreducible((1, 1, 1), 2) is True


class TestEisensteinAccept:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [1, 0, 0, 0, 0, 0, 3],  # x^6 + 3, Eisenstein at 3
            [3, 3, 0, 0, 0, 0, 1],  # the reversed orientation, at 3
            [3, 0, 0, 0, 0, 0, 1],  # 3x^6 + 1, reversed x^6 + 3: no prime certifies it
            [1, 0, 0, 0, 0, 0, 12],  # x^6 + 12, Eisenstein at 3 (not at 2)
        ],
    )
    def test_degree_six_eisenstein_gives_a_field(self, coeffs):
        F = make_field(EssentialPair(1, BinaryForm(coeffs)))
        assert (F.n, F.disc) == (6, form_discriminant(BinaryForm(coeffs)))

    def test_x6_plus_108_is_still_undecided(self):
        with pytest.raises(ReducibleFormError, match="could not be certified"):
            make_field(EssentialPair(1, BinaryForm([1, 0, 0, 0, 0, 0, 108])))
        assert irreducibility_certificate(BinaryForm([1, 0, 0, 0, 0, 0, 108])) is None

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 3], [3, 3, 0, 0, 1], [1, 2, 0, -4, 2]])
    def test_quartic_agrees_with_exhaustive_phase(self, coeffs):
        # the accept decides what the root test and the quadratic-factor search decide
        B = BinaryForm(coeffs)
        cs = _primitive_monic_sign(tuple(reversed(coeffs)))
        exhaustive = not _has_rational_root(cs) and not _quadratic_factor_exists(cs)
        assert is_irreducible(B) is exhaustive is True


nonzero = st.integers(-30, 30).filter(bool)
# (p x + q y)(r x + s y) has a square discriminant
split_quadratics = st.tuples(nonzero, nonzero, nonzero, nonzero).map(
    lambda t: (t[0] * t[2], t[0] * t[3] + t[1] * t[2], t[1] * t[3])
)
random_quadratics = st.tuples(
    st.integers(-300, 300).filter(bool), st.integers(-300, 300), st.integers(-300, 300).filter(bool)
)


class TestQuadraticRule:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(split_quadratics, random_quadratics))
    def test_square_test_agrees_with_the_rational_root_route(self, coeffs):
        B = BinaryForm(coeffs)
        no_root = not _has_rational_root(_primitive_monic_sign(tuple(reversed(coeffs))))
        assert is_irreducible(B) is no_root
        assert is_irreducible(B, form_discriminant(B)) is no_root
        assert irreducibility_certificate(B) is no_root


def _old_eisenstein(f):
    """The predicate before the content gcd: every prime tested on every coefficient."""
    return any(
        f[-1] % p and f[0] % (p * p) and not any(c % p for c in f[:-1])
        for p in _ACCEPT_PRIMES
    )


class TestEisensteinByContent:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10, 25, 47, 53)), min_size=1, max_size=2),
        st.lists(st.integers(-20, 20), min_size=2, max_size=12),
        st.integers(-20, 20).filter(bool),
        st.integers(-20, 20).filter(bool),
    )
    def test_matches_the_prime_by_prime_predicate(self, scales, middle, const, lead):
        # the low coefficients share a random content, so Eisenstein forms
        # (and near misses: p^2 | f[0], p | lead) come up often
        m = math.prod(scales)
        f = (m * const, *(m * c for c in middle), lead)
        for g in (f, f[::-1]):
            assert _eisenstein(g) is _old_eisenstein(g)


def _bounded_quadratic_factor_exists(cs, bound):
    """Reference: scan g1 over [-bound, bound] for an integer quadratic factor."""
    f = UniPoly(cs)
    f1 = sum(cs)
    fm1 = sum(c if k % 2 == 0 else -c for k, c in enumerate(cs))
    for g2 in _divisors(cs[-1]):
        for g0 in _divisors(cs[0]):
            for sg0 in (g0, -g0):
                for g1 in range(-bound, bound + 1):
                    s1 = g2 + g1 + sg0
                    if s1 == 0 or (f1 % s1):
                        continue
                    sm1 = g2 - g1 + sg0
                    if sm1 == 0 or (fm1 % sm1):
                        continue
                    if f.divmod(UniPoly((sg0, g1, g2)))[1].is_zero():
                        return True
    return False


def _mignotte_bound(cs):
    """2^n (1 + ceil(||f||_2)) bounds every coefficient of a factor of f."""
    return (1 << (len(cs) - 1)) * (1 + math.ceil(math.sqrt(sum(c * c for c in cs))))


class TestQuadraticFactorStep:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=2, max_size=2),
        st.integers(1, 6),
        st.lists(st.integers(-6, 6), min_size=2, max_size=3),
        st.integers(1, 6),
    )
    def test_products_with_a_quadratic_are_found(self, g_low, g_lead, h_low, h_lead):
        # quadratic x quadratic and quadratic x cubic
        prod = poly_mul_schoolbook(UniPoly([*g_low, g_lead]), UniPoly([*h_low, h_lead]))
        cs = tuple(int(prod.coeff(k)) for k in range(prod.degree + 1))
        assume(cs[0] != 0)
        cs = _primitive_monic_sign(cs)
        assume(not _has_rational_root(cs))
        assert _quadratic_factor_exists(cs)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=5), st.integers(1, 5))
    def test_agrees_with_the_bounded_scan(self, low, lead):
        # random quartics and quintics without a rational root
        assume(low[0] != 0)
        cs = _primitive_monic_sign((*low, lead))
        assume(not _has_rational_root(cs))
        expected = _bounded_quadratic_factor_exists(cs, _mignotte_bound(cs))
        assert _quadratic_factor_exists(cs) is expected


class TestTextFormat:
    def test_roundtrip(self):
        B = BinaryForm([4, -2, -3, 1, 1])
        assert BinaryForm.from_text(B.text()) == B
        assert B.text() == "4,-2,-3,1,1"


class TestIntegerInput:
    @pytest.mark.parametrize("c", [1.5, Fraction(3, 2), 0.1])
    def test_non_integer_coefficient_is_a_typed_error(self, c):
        with pytest.raises(NonIntegerEntryError):
            BinaryForm([c, 0, 1])

    @pytest.mark.parametrize("a0", [1.9, Fraction(1, 2)])
    def test_non_integer_a0_is_a_typed_error(self, a0):
        with pytest.raises(NonIntegerEntryError):
            make_field(EssentialPair(a0, BinaryForm([1, 1, -1])))

    def test_integral_values_of_other_types_pass_as_ints(self):
        B = BinaryForm([np.int64(4), Fraction(6, 3), np.int32(1)])
        assert B.coeffs == (4, 2, 1) and {type(c) for c in B.coeffs} == {int}
        pair = EssentialPair(Fraction(4, 2), B)
        assert type(pair.a0) is int and make_field(pair) == make_field(EssentialPair(2, B))
