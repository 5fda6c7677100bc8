import math
import random
from fractions import Fraction
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithmat.errors import (
    NonIntegerEntryError,
    ReducibleFormError,
    UnsupportedDegreeError,
    ZeroPolynomialError,
)
from arithmat import forms, polyring
from arithmat.field import EssentialPair, make_field
from arithmat.forms import (
    _ACCEPT_PRIMES,
    BinaryForm,
    _eisenstein,
    _gfp_gcd,
    _gfp_is_irreducible,
    _gfp_packing,
    _gfp_trim,
    _primitive_monic_sign,
    _small_factor,
    _stickelberger_allows,
    evaluate,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from arithmat.polyring import UniPoly, coeffs_discriminant, poly_mul_schoolbook
from arithmat.search import verify_tables

import util


# -- the divisor scans that lifting replaced, kept as oracles --------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _has_rational_root(cs) -> bool:
    """Whether cs (low-to-high, primitive, nonzero ends) has a root p/q: q
    divides the lead and p the constant, tried by homogeneous Horner."""
    lead, const = cs[-1], cs[0]
    const_divisors = _divisors(const)
    for q in _divisors(lead):
        # c_k q^(n-k), high degree first
        scaled, qk = [], 1
        for c in reversed(cs):
            scaled.append(c * qk)
            qk *= q
        for p in const_divisors:
            if math.gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                acc = 0
                for c in scaled:
                    acc = acc * sp + c
                if acc == 0:
                    return True
    return False


def _quadratic_factor_exists(cs) -> bool:
    """Whether cs (low-to-high, positive lead, no rational root) has an integer
    quadratic factor g.  g(x) | f(x) at every integer x and f(1) != 0, so
    g(1) = g2 + g1 + g0 is a divisor of f(1) of either sign."""
    f = UniPoly(cs)
    const_divisors, f1_divisors = _divisors(cs[0]), _divisors(sum(cs))
    checks = [(x, sum(c * x**k for k, c in enumerate(cs))) for x in (-1, 2, -2)]
    for g2 in _divisors(cs[-1]):
        for g0 in const_divisors:
            for sg0 in (g0, -g0):
                for s in f1_divisors:
                    for g1 in (s - g2 - sg0, -s - g2 - sg0):
                        if all(
                            (gx := (g2 * x + g1) * x + sg0) and fx % gx == 0
                            for x, fx in checks
                        ) and f.divmod(UniPoly((sg0, g1, g2)))[1].is_zero():
                            return True
    return False


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

    def test_rational_root_found_by_lifting(self):
        # the root comes back as its integer linear factor v x - u, low-to-high
        assert _small_factor((5, 1, 0, 12), form_discriminant(BinaryForm([12, 0, 1, 5])), 1) is None
        cs = (-3, -1, 2, -3, 2)  # (2x - 3)(x^3 + x + 1)
        assert _small_factor(cs, coeffs_discriminant(cs[::-1]), 1) == (-3, 2)
        # a root whose numerator and denominator have 200 digits: no divisor of them is listed
        u, v = 10**200 + 3, 10**199 + 1
        cs = tuple(poly_mul_schoolbook(UniPoly([-u, v]), UniPoly([1, 1, 0, 1])).coeffs)
        assert _small_factor(cs, coeffs_discriminant(cs[::-1]), 1) == (-u, v)

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
            xp = util.gfp_mulmod(xp, base, f, p)
        base = util.gfp_mulmod(base, base, f, p)
        e >>= 1
    h, rows = xp + [0] * (n - len(xp)), [[1]]
    for k in range(1, n // 2 + 1):
        if k > 1:
            while len(rows) < n:
                rows.append(util.gfp_mulmod(rows[-1], xp, f, p))
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
        d = coeffs_discriminant(cs[::-1])
        if lead % p == 0:
            assert _gfp_is_irreducible(cs, p, d) is False
        else:
            assert _gfp_is_irreducible(cs, p, d) is not _has_monic_divisor_mod_p(cs, p)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16),
        st.integers(-10**6, 10**6).filter(bool),
    )
    @example([3], 1)
    @example([1, 0, 1, 0], 1)
    def test_matches_powmod_scan_at_every_accept_prime(self, low, lead):
        cs = (*low, lead)
        d = coeffs_discriminant(cs[::-1])
        for p in _ACCEPT_PRIMES:
            assert _gfp_is_irreducible(cs, p, d) is _powmod_scan(cs, p), p

    def test_repeated_factor_is_reducible(self):
        # (x^2 + x + 1)^2 mod 2: no linear factor, a repeated quadratic one
        assert _gfp_is_irreducible((1, 0, 1, 0, 1), 2, coeffs_discriminant((1, 0, 1, 0, 1))) is False
        assert _gfp_is_irreducible((1, 1, 1), 2, -3) is True

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(6, 16).flatmap(
            lambda n: st.lists(st.integers(0, 46), min_size=3 * n, max_size=3 * n)
        )
    )
    @example([46] * 48)  # every coefficient p - 1 at p = 47 and degree 16
    def test_packed_product_matches_schoolbook_at_every_accept_prime(self, draws):
        n = len(draws) // 3
        for p in _ACCEPT_PRIMES:
            f, a, b = ([c % p for c in draws[i * n : (i + 1) * n]] for i in range(3))
            # the largest product slots (every coefficient p - 1), folded by the table of
            # x^n = 1 + x + ... (low coefficients p - 1) and of x^n = -1 - x - ...
            # (first row all p - 1), and a random product under f
            worst = [p - 1] * n
            for low, x, y in ((f, a, b), (worst, worst, worst), ([1] * n, worst, worst)):
                g = low + [1]
                pack, residues, mulmod, power = _gfp_packing(g, p)
                got = residues(mulmod(pack(x), pack(y)))
                assert _gfp_trim(got) == util.gfp_mulmod(_gfp_trim(x), _gfp_trim(y), g, p)
                xe = [1]
                for e in range(2 * n - 1):
                    assert _gfp_trim(residues(power(e))) == xe, (p, e)
                    xe = util.gfp_mulmod(xe, [0, 1], g, p)

    def test_packed_product_widens_its_slots_when_the_bound_needs_it(self):
        # n (p - 1)^2 (1 + (n - 1)(p - 1)) passes 2^32 at p = 47 from n = 211
        rnd = random.Random(40)
        for n, width in ((210, 32), (211, 64)):
            f = [rnd.randrange(47) for _ in range(n)] + [1]
            a, b = [46] * n, [rnd.randrange(47) for _ in range(n)]
            pack, residues, mulmod, power = _gfp_packing(f, 47)
            assert power(1) == 1 << width
            assert _gfp_trim(residues(mulmod(pack(a), pack(b)))) == util.gfp_mulmod(a, b, f, 47)


def _kronecker(d, p):
    """(d/p) for a prime p, by listing the squares modulo p (mod 8 at p = 2)."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if d % p in {x * x % p for x in range(1, p)} else -1


nonzero_lead = st.integers(-60, 60).filter(bool)


class TestStickelbergerParity:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda n: st.lists(st.integers(-60, 60), min_size=n, max_size=n)
    ), nonzero_lead)
    @example([1, 0, 1, 0], 1)  # x^4 + x^2 + 1
    @example([1, 1, 0, 0, 0], -3)  # -3x^5 + x + 1
    def test_irreducible_mod_p_has_the_parity_sign(self, low, lead):
        # Stickelberger (Swan at p = 2): an irreducible reduction mod p of a
        # degree-n polynomial with p not dividing its lead has p not dividing
        # D and (D/p) = (-1)^(n - 1); so the skipped primes cannot certify
        cs = (*low, lead)
        n = len(cs) - 1
        D = coeffs_discriminant(cs[::-1])
        for p in _ACCEPT_PRIMES:
            if lead % p and _gfp_is_irreducible(cs, p, D):
                assert _kronecker(D, p) == (-1) ** (n - 1), p
                assert _stickelberger_allows(D, n, p), p

    @pytest.mark.parametrize("p", _ACCEPT_PRIMES)
    def test_matches_the_kronecker_symbol(self, p):
        for n in (2, 3):
            for d in range(-200, 201):
                assert _stickelberger_allows(d, n, p) is (_kronecker(d, p) == (-1) ** (n - 1))


def _termwise_rational_root(cs):
    """The rational-root scan before homogeneous Horner: f(sp/q) q^n summed
    term by term."""
    n = len(cs) - 1
    for q in _divisors(cs[-1]):
        for p in _divisors(cs[0]):
            if math.gcd(p, q) == 1 and any(
                sum(c * sp**k * q ** (n - k) for k, c in enumerate(cs)) == 0
                for sp in (p, -p)
            ):
                return True
    return False


def _old_cheap_decision(B, disc):
    """The decision before the parity skip: the mod-p scan at every prime
    of _ACCEPT_PRIMES that does not divide the lead, then the term-by-term
    rational-root scan."""
    if B.degree == 2:
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    cs = _primitive_monic_sign(tuple(reversed(B.coeffs)))
    if _eisenstein(cs) or _eisenstein(cs[::-1]):
        return True
    if disc == 0:
        return False
    d = coeffs_discriminant(cs[::-1])
    if any(cs[-1] % p and _gfp_is_irreducible(cs, p, d) for p in _ACCEPT_PRIMES):
        return True
    if _termwise_rational_root(cs):
        return False
    return True if B.degree == 3 else None


def _random_forms(rng, count):
    """Forms of degree 3 to 12 of either lead sign: random ones, products of
    two random factors, and a third of them times a content of 2 to 9."""

    def coeffs(n, hi):
        lead = rng.choice((-1, 1)) * rng.randint(1, hi)
        return [lead] + [rng.randint(-hi, hi) for _ in range(n)]

    out = []
    while len(out) < count:
        n = rng.randint(3, 12)
        if rng.random() < 0.4:
            cs = coeffs(n, 9)
        else:
            k = rng.randint(1, n - 1)
            g, h = UniPoly(coeffs(k, 5)[::-1]), UniPoly(coeffs(n - k, 5)[::-1])
            cs = list((g * h).coeffs[::-1])
        if cs[-1] == 0:
            continue
        if rng.random() < 0.3:
            m = rng.randint(2, 9)
            cs = [m * c for c in cs]
        out.append(BinaryForm(cs))
    return out


class TestParitySkipKeepsDecisions:
    def test_matches_the_scan_at_every_prime(self):
        # the decision before the parity skip, then at degrees 4 and 5 the
        # quadratic-factor divisor scan
        forms_seen = _random_forms(random.Random(18), 5000)
        outcomes = set()
        for B in forms_seen:
            decided = forms._decide(BinaryForm(B.coeffs))
            assert decided is _divisor_route(B), B
            assert forms._decide(B) is decided
            outcomes.add(decided)
        assert outcomes == {True, False, None}

    def test_scan_runs_at_fewer_primes(self, monkeypatch):
        primes = []

        def counted(cs, p, d):
            primes.append(p)
            return _gfp_is_irreducible(cs, p, d)

        monkeypatch.setattr(forms, "_gfp_is_irreducible", counted)
        # (x^2 + 1)(x^4 + x + 1) has no rational root and D = -22900 =
        # -2^2 5^2 229, so 2 and 5 divide D and (D/p) = -1 leaves seven primes
        B = BinaryForm([1, 0, 1, 1, 1, 1, 1])
        assert form_discriminant(B) == -22900
        assert forms._decide(B) is None
        assert primes == [3, 11, 13, 19, 29, 41, 43]


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
        assert irreducibility_certificate(B) is no_root  # from the kept discriminant


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
        # quadratic x quadratic and quadratic x cubic: the lifted factor divides
        prod = poly_mul_schoolbook(UniPoly([*g_low, g_lead]), UniPoly([*h_low, h_lead]))
        cs = tuple(int(prod.coeff(k)) for k in range(prod.degree + 1))
        assume(cs[0] != 0)
        cs = _primitive_monic_sign(cs)
        assume(not _has_rational_root(cs))
        D = coeffs_discriminant(cs[::-1])
        assume(D != 0)
        factor = _small_factor(cs, D, 2)
        assert len(factor) == 3
        assert UniPoly(cs).divmod(UniPoly(factor))[1].is_zero()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-9, 9),
        st.integers(1, 9),
        st.lists(st.integers(-9, 9), min_size=3, max_size=4),
        st.integers(1, 9),
    )
    def test_forms_with_a_rational_root_give_a_small_factor(self, u, v, h_low, h_lead):
        # linear x cubic and linear x quartic: the one search at k = 2 reads
        # off the root first, so it returns a factor of degree <= 2 that divides
        prod = poly_mul_schoolbook(UniPoly([u, v]), UniPoly([*h_low, h_lead]))
        cs = tuple(int(prod.coeff(k)) for k in range(prod.degree + 1))
        assume(cs[0] != 0)
        cs = _primitive_monic_sign(cs)
        D = coeffs_discriminant(cs[::-1])
        assume(D != 0)
        assert _has_rational_root(cs)
        factor = _small_factor(cs, D, 2)
        assert factor is not None and 2 <= len(factor) <= 3
        assert UniPoly(cs).divmod(UniPoly(factor))[1].is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=5), st.integers(1, 5))
    def test_agrees_with_the_bounded_scan(self, low, lead):
        # random quartics and quintics without a rational root
        assume(low[0] != 0)
        cs = _primitive_monic_sign((*low, lead))
        assume(not _has_rational_root(cs))
        D = coeffs_discriminant(cs[::-1])
        assume(D != 0)
        expected = _bounded_quadratic_factor_exists(cs, _mignotte_bound(cs))
        assert (_small_factor(cs, D, 2) is not None) is expected


class TestQuarticCandidates:
    """A reducible quartic g h without a rational root has both factors
    quadratic, so only the root pairs with the first root, or with no root
    the first quadratic, are lifted and divided.  The roots themselves are
    read off first; the counts are of the quadratic candidates."""

    @staticmethod
    def _shape_and_calls(cs):
        D = coeffs_discriminant(cs[::-1])
        p, f, roots = next(forms._reductions(cs, D))
        with mock.patch.object(forms, "_integer_factor", wraps=forms._integer_factor) as spy:
            factor = _small_factor(cs, D, 2)
        calls = sum(len(call.args[1]) == 3 for call in spy.call_args_list)
        if roots:
            shape = (1,) * len(roots) + ((2,) if len(roots) == 2 else ())
        else:
            inv = pow(f[-1], -1, p)
            shape = (2, 2) if forms._gfp_quadratics([c * inv % p for c in f], p) else (4,)
        return shape, factor, calls

    @pytest.mark.parametrize(
        "g, h, shape",
        [
            ((-7, 4, 1), (9, 7, 3), (1, 1, 1, 1)),  # at p = 7
            ((-2, 3, 3), (-6, 9, 1), (1, 1, 2)),  # at p = 13
            ((-2, -8, 1), (-6, 2, 2), (2, 2)),  # at p = 5
        ],
    )
    def test_reducible_at_each_reduction_shape(self, g, h, shape):
        prod = poly_mul_schoolbook(UniPoly(g), UniPoly(h))
        cs = _primitive_monic_sign(tuple(int(c) for c in prod.coeffs))
        seen, factor, calls = self._shape_and_calls(cs)
        assert seen == shape
        assert factor is not None and UniPoly(cs).divmod(UniPoly(factor))[1].is_zero()
        assert calls <= (3 if shape == (1, 1, 1, 1) else 1)

    @pytest.mark.parametrize(
        "coeffs, shape, calls",
        [
            ((1, -2, 5, 2, 1), (1, 1, 1, 1), 3),  # at p = 7: 3 of the 6 root pairs
            ((1, 1, 11, -12, -6), (1, 1, 2), 1),  # at p = 5: the root pair only
            ((1, 0, 7, 0, 1), (2, 2), 1),  # at p = 7: the first quadratic only
        ],
    )
    def test_irreducible_at_each_reduction_shape(self, coeffs, shape, calls):
        # irreducible quartics that no prime below 50 accepts, so the factor
        # search runs, and every candidate is lifted and divided before None
        B = BinaryForm(coeffs)
        with mock.patch.object(forms, "_small_factor", wraps=forms._small_factor) as search:
            assert forms._decide(B) is True
        assert search.call_count == 1
        assert is_irreducible(B) is True
        cs = _primitive_monic_sign(tuple(reversed(coeffs)))
        assert not _has_rational_root(cs) and not _quadratic_factor_exists(cs)
        assert self._shape_and_calls(cs) == (shape, None, calls)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=2),
        st.integers(1, 4),
        st.lists(st.integers(-9, 9), min_size=2, max_size=2),
        st.integers(1, 4),
    )
    def test_products_of_two_quadratics(self, g_low, g_lead, h_low, h_lead):
        prod = poly_mul_schoolbook(UniPoly([*g_low, g_lead]), UniPoly([*h_low, h_lead]))
        cs = _primitive_monic_sign(tuple(int(c) for c in prod.coeffs))
        assume(cs[0] != 0 and not _has_rational_root(cs))
        assume(coeffs_discriminant(cs[::-1]) != 0)
        shape, factor, calls = self._shape_and_calls(cs)
        assert factor is not None and UniPoly(cs).divmod(UniPoly(factor))[1].is_zero()
        assert calls <= (3 if shape == (1, 1, 1, 1) else 1)


class TestRootlessPrime:
    """A prime of `_reductions` divides no lead, so no root modulo it rules
    out a rational root: a later prime lifts its roots only to pair them."""

    def test_quadratic_times_cubic_divides_by_no_single_root(self):
        # (x^2 + 1)(x^3 - x^2 - 2x + 1): no root modulo 3, where it splits as
        # (2, 3), then two roots modulo 5, whose pair lifts to x^2 + 1
        B = BinaryForm([1, -1, -1, 0, -2, 1])
        cs = _primitive_monic_sign(tuple(reversed(B.coeffs)))
        D = form_discriminant(B)
        first, second = islice(forms._reductions(cs, D), 2)
        assert (first[0], len(first[2]), second[0], len(second[2])) == (3, 0, 5, 2)
        with mock.patch.object(forms, "_integer_factor", wraps=forms._integer_factor) as spy:
            assert _small_factor(cs, D, 2) == (1, 0, 1)
        assert [len(call.args[1]) for call in spy.call_args_list] == [3]
        assert is_irreducible(B) is False


# every monic polynomial over GF(p) of these factor degrees
_SHAPES = ((4,), (5,), (2, 2), (2, 3), (1, 1, 2), (1, 2, 2))


def _gfp_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class TestQuarticQuinticModP:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_ACCEPT_PRIMES),
        st.sampled_from(_SHAPES),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @example(2, (1, 1, 2), False, 0)
    @example(3, (2, 2), True, 0)
    def test_root_test_and_own_symbol_decide_degrees_four_and_five(self, p, shape, square, seed):
        # the reduction is a product of random monic irreducible factors of
        # these degrees (a repeated one with `square`, where two degrees
        # agree), times a unit, lifted to integers by multiples of p
        rnd = random.Random(seed)
        factors = []
        for d in shape:
            while True:
                g = [rnd.randrange(p) for _ in range(d)] + [1]
                if _powmod_scan(g, p):
                    break
            factors.append(g)
        repeats = [i for i in range(len(shape) - 1) if shape[i] == shape[i + 1]]
        if square and repeats:
            factors[repeats[0] + 1] = factors[repeats[0]]
        f = [rnd.randrange(1, p)]
        for g in factors:
            f = _gfp_product(f, g, p)
        cs = tuple(c + p * rnd.randint(-3, 3) for c in f)
        assume(cs[-1] != 0)
        irreducible = _gfp_is_irreducible(cs, p, coeffs_discriminant(cs[::-1]))
        assert irreducible is (len(shape) == 1)
        assert irreducible is not _has_monic_divisor_mod_p(cs, p)
        assert irreducible is _powmod_scan(cs, p)


def _divisor_route(B):
    """`irreducibility_certificate` before lifting: the decision before the
    parity skip, then the quadratic-factor divisor scan at degrees 4 and 5."""
    decided = _old_cheap_decision(B, form_discriminant(B))
    if decided is None and B.degree <= 5:
        return not _quadratic_factor_exists(_primitive_monic_sign(tuple(reversed(B.coeffs))))
    return decided


nonzero_coefficient = st.integers(-10**4, 10**4).filter(bool)


def _same_decision(B):
    expected = _divisor_route(B)
    assert irreducibility_certificate(BinaryForm(B.coeffs)) is expected
    assert irreducibility_certificate(B) is expected
    if B.degree <= 5:
        assert is_irreducible(B) is expected
    return expected


class TestLiftingKeepsDecisions:
    @settings(max_examples=300, deadline=None)
    @given(
        nonzero_coefficient,
        st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=11),
        nonzero_coefficient,
    )
    def test_random_forms(self, lead, middle, const):
        _same_decision(BinaryForm([lead, *middle, const]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=2),
        st.integers(-30, 30).filter(bool),
        st.lists(st.integers(-30, 30), min_size=1, max_size=10),
        st.integers(-30, 30).filter(bool),
    )
    def test_products_with_a_linear_or_quadratic_factor(self, g_low, g_lead, h_low, h_lead):
        prod = poly_mul_schoolbook(UniPoly([*g_low, g_lead]), UniPoly([*h_low, h_lead]))
        cs = [int(prod.coeff(k)) for k in range(prod.degree, -1, -1)]
        assume(cs[-1] != 0 and len(cs) <= 13)
        assert _same_decision(BinaryForm(cs)) is not True

    @pytest.mark.parametrize("k", [20, 100, 400])
    def test_a_huge_constant_is_refuted(self, k):
        # (x^2 + 1)(x^2 + N + 1): a divisor scan of N + 1 would take sqrt(N) steps
        N = 10**k
        B = BinaryForm([1, 0, N + 2, 0, N + 1])
        assert is_irreducible(B) is False
        with pytest.raises(ReducibleFormError, match="reducible over the rationals"):
            make_field(EssentialPair(1, B))
        cs = _primitive_monic_sign(tuple(reversed(B.coeffs)))
        assert _small_factor(cs, form_discriminant(B), 2) in {(1, 0, 1), (N + 1, 0, 1)}

    def test_a_quintic_with_twelve_digit_coefficients(self):
        coeffs = [79842361704, -115935106440, -128704168198, 198463754212, -421205451656, 119947477478]
        B = BinaryForm(coeffs)
        assert is_irreducible(B) is False
        cs = _primitive_monic_sign(tuple(reversed(coeffs)))
        assert _small_factor(cs, form_discriminant(B), 1) is None
        factor = _small_factor(cs, form_discriminant(B), 2)
        assert UniPoly(cs).divmod(UniPoly(factor))[1].is_zero()


class TestKeptDiscriminant:
    """A form keeps the discriminant `form_discriminant` computed, and the
    degree 4 and 5 accepts read its Stickelberger symbol from that value."""

    @pytest.mark.parametrize("pair", ["2:4,-2,-3,1,1", "1:1,0,-2,-1,0,1"])
    def test_make_field_computes_one_discriminant(self, pair):
        pair = EssentialPair.from_text(pair)
        cs = _primitive_monic_sign(tuple(reversed(pair.form.coeffs)))
        assert not _eisenstein(cs) and not _eisenstein(cs[::-1])
        with mock.patch.object(forms, "coeffs_discriminant", wraps=coeffs_discriminant) as disc, \
                mock.patch.object(forms, "_small_factor", wraps=forms._small_factor) as search:
            F = make_field(pair)
        assert search.call_count == 0  # accepted modulo a prime
        assert disc.call_count == 1
        assert F.disc * pair.a0**2 == coeffs_discriminant(pair.form.coeffs)

    def test_a_table_row_computes_one_discriminant(self):
        with mock.patch.object(forms, "coeffs_discriminant", wraps=coeffs_discriminant) as disc:
            assert verify_tables([(-275, 1, (1, 1, 0, -2, -1))]).ok
        assert disc.call_count == 1


class TestTracedDiscriminantEdge:
    """`form_discriminant` reaches `polyring.det_bareiss` at degrees 5 to 8
    only: closed forms serve degrees 2 to 4 and the subresultant PRS degree 9
    and up.  The traced benchmark run reports `polyring.det_bareiss_ms` from
    that edge, and fails when a per-layer metric is missing; CI's "Traced
    benchmark smoke run" runs it, and this suite does not."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bezout_band_alone_reaches_det_bareiss(self, n):
        B = BinaryForm([3, -1] + [2] * (n - 2) + [5])
        with mock.patch.object(polyring, "det_bareiss", wraps=polyring.det_bareiss) as det:
            value = form_discriminant(B)
        assert det.call_count == (1 if 5 <= n <= 8 else 0)
        assert value == util.sylvester_discriminant(B.coeffs)


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
