import cmath
import hashlib
import random
from unittest import mock

import numpy as np
import pytest

from arithmat import element as el
from arithmat import field, numeric
from arithmat.covariants import dh_cubic_form, quartic_subform
from arithmat.errors import (
    ArithmatError,
    FieldMismatchError,
    RootConvergenceError,
    UnsupportedDegreeError,
    ZeroDiscriminantError,
)
from arithmat.field import EssentialPair, make_field
from arithmat.forms import BinaryForm, form_discriminant
from arithmat.numeric import (
    EmbeddingData,
    diagonalization_residual,
    eigenvalue_match_residual,
    embedding_data,
    find_roots,
)
from arithmat.polyring import poly_discriminant

import util


# ----------------------------------------------------------------------
# Float oracles for the exact reconstructions in `covariants`: the classical
# products over the embeddings, rounded to integers.  None when the rounding
# is not clean, which happens once the coefficients grow.
# ----------------------------------------------------------------------


def _linear_product(factors) -> list:
    """Coefficients of the product of the linear forms fx*x + fy*y, x^n first."""
    prod = [1 + 0j]
    for fx, fy in factors:
        new = [0j] * (len(prod) + 1)
        for k, c in enumerate(prod):
            new[k] += c * fx
            new[k + 1] += c * fy
        prod = new
    return prod


def _rounded(values, tol):
    out = [round(v.real) for v in values]
    if any(abs(v.imag) > tol or abs(v.real - r) > tol for v, r in zip(values, out)):
        return None
    return out


def float_cubic_form(F):
    """Product over embedding pairs i < j of (omega1^(i) - omega1^(j)) x +
    (omega2^(i) - omega2^(j)) y, divided by the square root of disc(F)."""
    g = embedding_data(F).gamma
    prod = _linear_product(
        (g[i, 1] - g[j, 1], g[i, 2] - g[j, 2]) for i in range(3) for j in range(i + 1, 3)
    )
    sqrt_disc = cmath.sqrt(complex(F.disc))
    return _rounded([c / sqrt_disc for c in prod], 1e-6)


def float_quartic_subform(F, i, j):
    """Product over columns k of (P[i,k] x - P[j,k] y) / disc(F), with P the
    adjugate of Gamma."""
    g = embedding_data(F).gamma
    adj = np.linalg.det(g) * np.linalg.inv(g)
    prod = _linear_product((adj[i - 1, k], -adj[j - 1, k]) for k in range(4))
    return _rounded([c / F.disc for c in prod], 1e-5)


def _scaled_fields(n):
    rng = random.Random(10 + n)
    return [util.random_field(rng, n, a0=a0) for a0 in (2, 3) for _ in range(10)]


class TestFindRoots:
    def test_plus_minus_one(self):
        roots = find_roots(BinaryForm([1, 0, -1]))
        assert np.allclose(roots, [-1, 1])

    def test_eighth_roots_of_unity(self):
        roots = find_roots(BinaryForm([1, 0, 0, 0, 1]))
        expected = sorted(
            (cmath.exp(1j * cmath.pi * k / 4) for k in (1, 3, 5, 7)),
            key=lambda z: (z.real, z.imag),
        )
        assert np.allclose(roots, expected)

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ZeroDiscriminantError):
            find_roots(BinaryForm([1, 2, 1]))

    def test_root_product_reproduces_discriminant(self):
        rng = random.Random(0)
        checked = 0
        while checked < 50:
            n = rng.randint(2, 5)
            cs = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n)]
            if cs[-1] == 0:
                continue
            B = BinaryForm(cs)
            exact = form_discriminant(B)
            if exact == 0:
                continue
            roots = find_roots(B)
            prod = complex(cs[0] ** (2 * n - 2))
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= (roots[i] - roots[j]) ** 2
            assert abs(prod - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1

    def test_ordering_deterministic(self):
        B = BinaryForm([2, 1, -4, -1, 3])
        assert find_roots(B) == find_roots(B)


class TestEmbeddingData:
    def test_gamma_det_squared_is_discriminant(self):
        rng = random.Random(1)
        for n, a0 in ((2, 1), (3, 1), (4, 2), (5, 1)):
            F = util.random_field(rng, n, a0=a0)
            emb = EmbeddingData(F)  # constructor asserts det(Gamma)^2 == disc
            assert len(emb.roots) == n

    def test_trace_matches_embedding_sum(self):
        rng = random.Random(2)
        for _ in range(25):
            F = util.random_field(rng, rng.randint(2, 5))
            emb = EmbeddingData(F)
            alpha = util.random_element(F, rng)
            numeric = sum(emb.embed(alpha))
            assert abs(numeric - float(el.trace(F, alpha))) <= 1e-6 * max(
                1.0, abs(float(el.trace(F, alpha)))
            )

    def test_norm_matches_embedding_product(self):
        rng = random.Random(3)
        for _ in range(25):
            F = util.random_field(rng, rng.randint(2, 5))
            emb = EmbeddingData(F)
            alpha = util.random_element(F, rng)
            numeric = complex(np.prod(emb.embed(alpha)))
            exact = float(el.norm(F, alpha))
            assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_large_root_is_judged_relative_to_its_size(self):
        # a root with |z| about 8.8 has residual about 3e-5, 1e-16 of its
        # scale: find_roots accepts it, and no second fixed bound rejects it
        F = make_field(EssentialPair.from_text("1:1,-9,2,-3,8,3,6,-1,-3,5,8,8,3"))
        emb = embedding_data(F)
        assert len(emb.roots) == 12
        assert max(abs(z) for z in emb.roots) > 8


class TestEmbeddingCache:
    def test_built_once_per_field(self):
        rng = random.Random(11)
        F = util.random_field(rng, 4)
        emb = embedding_data(F)
        assert embedding_data(F) is emb is F.embedding
        alpha = util.random_element(F, rng)
        diagonalization_residual(F, alpha)
        assert F.embedding is emb

    def test_cached_residuals_match_a_fresh_build(self):
        rng = random.Random(12)
        for n in (2, 3, 4, 5, 8):
            F = util.random_field(rng, n)
            alpha = util.random_element(F, rng)
            diagonalization_residual(F, F.one())  # builds the cache
            fresh = make_field(F.pair)
            assert fresh.embedding is None
            assert diagonalization_residual(F, alpha) == diagonalization_residual(fresh, alpha)
            assert eigenvalue_match_residual(F, alpha) == eigenvalue_match_residual(
                make_field(F.pair), alpha
            )

    def test_failed_build_is_not_kept(self, monkeypatch):
        rng = random.Random(13)
        F = util.random_field(rng, 3)

        def fail(B):
            raise RootConvergenceError("forced")

        monkeypatch.setattr(numeric, "find_roots", fail)
        for _ in range(2):
            with pytest.raises(RootConvergenceError):
                diagonalization_residual(F, F.one())
            assert F.embedding is None
        monkeypatch.undo()
        assert diagonalization_residual(F, F.one()) < 1e-12
        assert F.embedding is not None

    def test_embed_refuses_an_element_of_another_field(self):
        F = make_field(EssentialPair.from_text("1:1,1,-1"))
        G = make_field(EssentialPair.from_text("1:1,0,-2"))
        with pytest.raises(FieldMismatchError):
            embedding_data(F).embed(G.element([0, 1]))

    def test_the_certificate_checks_its_operand_as_arithmetic_matrix_does(self):
        # embed's check is not run a second time: the residual reads the images off N
        F = util.random_field(random.Random(15), 4)
        alpha = util.random_element(F, random.Random(16))
        embedding_data(F)
        counts = []
        for call in (field.arithmetic_matrix, diagonalization_residual):
            check = mock.Mock(wraps=field.require_same_field)
            with mock.patch.object(field, "require_same_field", check), \
                    mock.patch.object(numeric, "require_same_field", check):
                call(F, alpha)
            counts.append(check.call_count)
        assert counts[0] == counts[1] >= 1

    def test_cached_arrays_are_read_only(self):
        F = util.random_field(random.Random(14), 3)
        with pytest.raises(ValueError):
            embedding_data(F).gamma[0, 0] = 0


class TestDiagonalization:
    def test_identity_element(self):
        rng = random.Random(4)
        F = util.random_field(rng, 4)
        assert diagonalization_residual(F, F.one()) < 1e-12

    def test_hundred_random_pairs(self):
        rng = random.Random(5)
        pool = util.field_pool(seed=50)
        scaled = [F for F in pool if F.a0 > 1]
        assert len(scaled) >= 5
        for i in range(100):
            F = pool[i % len(pool)]
            alpha = util.random_element(F, rng)
            assert diagonalization_residual(F, alpha) < 1e-8

    def test_scaled_example_field(self):
        rng = random.Random(6)
        F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
        for _ in range(10):
            alpha = util.random_element(F, rng)
            assert diagonalization_residual(F, alpha) < 1e-8

    def test_eigenvalues_are_embedding_images(self):
        rng = random.Random(7)
        for _ in range(20):
            F = util.random_field(rng, rng.randint(2, 5))
            alpha = util.random_element(F, rng)
            assert eigenvalue_match_residual(F, alpha) < 1e-6


class TestCubicReconstruction:
    def test_disc_49_field(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, -2, -1])))
        out = dh_cubic_form(F)
        assert form_discriminant(out) == 49

    def test_twenty_random_cubic_fields(self):
        rng = random.Random(8)
        built = 0
        while built < 20:
            F = util.random_field(rng, 3, hi=6)
            out = dh_cubic_form(F)  # the discriminant is rechecked inside too
            assert form_discriminant(out) == F.disc
            assert list(out.coeffs) == float_cubic_form(F)
            built += 1

    def test_scaled_fields_match_float_oracle(self):
        for F in _scaled_fields(3):
            out = dh_cubic_form(F)
            assert form_discriminant(out) == F.disc
            assert list(out.coeffs) == float_cubic_form(F)

    def test_height_1e12_fields(self):
        # the float oracle cannot round at this height; the exact route decides
        rng = random.Random(12)
        for _ in range(20):
            F = util.random_field(rng, 3, hi=10**12)
            assert form_discriminant(dh_cubic_form(F)) == F.disc

    def test_only_discriminant_is_asserted(self):
        # the output is one representative of an equivalence class: negating
        # all coefficients preserves the discriminant, so compare discs only
        F = make_field(EssentialPair(1, BinaryForm([1, 1, -2, -1])))
        out = dh_cubic_form(F)
        assert form_discriminant(-out) == F.disc

    def test_wrong_degree(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        with pytest.raises(UnsupportedDegreeError):
            dh_cubic_form(F)


class TestQuarticSubform:
    def setup_method(self):
        self.F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))

    def test_rows_34_match_complementary_element(self):
        form, claimed = quartic_subform(self.F, 3, 4)
        assert claimed == int(poly_discriminant(el.char_poly(self.F, self.F.basis_element(1))))
        assert form_discriminant(form) == claimed

    def test_rows_23_match_complementary_element(self):
        form, claimed = quartic_subform(self.F, 2, 3)
        assert claimed == int(poly_discriminant(el.char_poly(self.F, self.F.basis_element(3))))
        assert form_discriminant(form) == claimed

    def test_rows_24_nontrivial_element(self):
        form, claimed = quartic_subform(self.F, 2, 4)
        assert claimed == int(poly_discriminant(el.char_poly(self.F, self.F.basis_element(2))))
        assert form_discriminant(form) == claimed

    def test_swap_preserves_discriminant(self):
        f1, c1 = quartic_subform(self.F, 3, 4)
        f2, c2 = quartic_subform(self.F, 4, 3)
        assert form_discriminant(f1) == form_discriminant(f2) == c1 == c2

    def test_random_quartic_fields(self):
        rng = random.Random(9)
        for _ in range(5):
            F = util.random_field(rng, 4, hi=5)
            form, claimed = quartic_subform(F, 3, 4)
            assert form_discriminant(form) == claimed

    def test_pools_match_float_oracle(self):
        rng = random.Random(9)
        pool = [util.random_field(rng, 4, hi=5) for _ in range(20)] + _scaled_fields(4)
        for F in pool:
            for i, j in ((3, 4), (2, 4), (2, 3)):
                form, claimed = quartic_subform(F, i, j)
                assert form_discriminant(form) == claimed
                assert list(form.coeffs) == float_quartic_subform(F, i, j)

    def test_pool_outputs_are_unchanged(self):
        # a digest of every output on the pool above, recorded while `integer_trace`
        # still evaluated its formula on each call
        rng = random.Random(9)
        pool = [util.random_field(rng, 4, hi=5) for _ in range(20)] + _scaled_fields(4)
        digest = hashlib.sha256()
        for F in pool:
            for i, j in ((3, 4), (2, 4), (2, 3)):
                form, claimed = quartic_subform(F, i, j)
                digest.update(f"{form.text()};{claimed}\n".encode())
        assert digest.hexdigest()[:16] == "f2fd26278a771199"

    def test_height_1e6_fields(self):
        # the float oracle cannot round at this height; the exact route decides
        rng = random.Random(6)
        for _ in range(10):
            F = util.random_field(rng, 4, hi=10**6)
            for i, j in ((3, 4), (2, 4), (2, 3)):
                form, claimed = quartic_subform(F, i, j)
                assert form_discriminant(form) == claimed

    def test_height_1e17_field(self):
        # the float product rounds this one to a wrong form without a warning
        F = make_field(EssentialPair.from_text(
            "1:37785611141843641,68121087169103854,-72339045183036369,"
            "-30432263018684974,24420397587061723"
        ))
        form, claimed = quartic_subform(F, 3, 4)
        assert form.text() == (
            "922739647153931006684202282053443,-1149901656590339149549041744150334,"
            "-2733375031658469593111849014379529,2573996910331392478788867358492414,"
            "1427752409362618303418920492136881"
        )
        assert form_discriminant(form) == claimed

    def test_bad_indices(self):
        with pytest.raises(ArithmatError):
            quartic_subform(self.F, 1, 2)
        with pytest.raises(ArithmatError):
            quartic_subform(self.F, 3, 3)
