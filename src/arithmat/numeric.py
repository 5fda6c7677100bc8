"""Floating-point verification layer: embeddings, diagonalization, reconstructions.

Everything exact lives elsewhere; this module computes complex roots and the
embedding matrix, certifies the diagonalization of the multiplication
matrices numerically, and performs two numeric-to-exact reconstructions: the
cubic form built from differences of embedded basis elements, and the
quartic subforms built from adjugate rows.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .element import char_poly
from .errors import (
    ArithmatError,
    FloatRangeError,
    RootConvergenceError,
    RoundingError,
    UnsupportedDegreeError,
    ZeroDiscriminantError,
)
from .field import (
    Element,
    NumberField,
    arithmetic_matrix,
    basis_change_matrix,
)
from .forms import BinaryForm, form_discriminant
from .polyring import poly_discriminant

_ROOT_TOL = 1e-10
_MAX_NEWTON = 60


def _floats(values) -> list[float]:
    """float() of each int or Fraction; one beyond float64 range raises a
    FloatRangeError that names the size of the largest."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        big = max(values, key=abs)
        bits = big.numerator.bit_length() - big.denominator.bit_length()
        raise FloatRangeError(
            f"a value of about 10^{round(bits * math.log10(2))} does not fit a float64"
        ) from None


def find_roots(B: BinaryForm, disc: int | None = None) -> list[complex]:
    """All n complex roots of B(x, 1), polished and deterministically ordered.

    Companion-matrix eigenvalues give the starting points; Newton iteration
    sharpens them to near machine precision.  Roots are sorted by (real,
    imaginary).  Raises when a polished residual stays above tolerance.
    ``disc`` is the form's discriminant, if known.
    """
    if (form_discriminant(B) if disc is None else disc) == 0:
        raise ZeroDiscriminantError("root finder requires distinct roots")
    coeffs_high = _floats(B.coeffs)
    roots = np.roots(coeffs_high)

    def f(z: complex) -> complex:
        acc = 0j
        for c in coeffs_high:
            acc = acc * z + c
        return acc

    def fp(z: complex) -> complex:
        n = len(coeffs_high) - 1
        acc = 0j
        for k, c in enumerate(coeffs_high[:-1]):
            acc = acc * z + c * (n - k)
        return acc

    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(_MAX_NEWTON):
            d = fp(z)
            if d == 0:
                break
            step = f(z) / d
            z -= step
            if abs(step) <= 1e-16 * max(1.0, abs(z)):
                break
        try:
            scale = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(reversed(coeffs_high)))
        except OverflowError:
            raise FloatRangeError(
                f"a root of about 10^{round(math.log10(abs(z)))} has powers beyond float64 range"
            ) from None
        if abs(f(z)) > _ROOT_TOL * scale:
            raise RootConvergenceError(
                f"residual {abs(f(z)):.3e} exceeds tolerance for root {z}"
            )
        polished.append(z)
    return sorted(polished, key=lambda w: (w.real, w.imag))


def _float_matrix(M) -> np.ndarray:
    return np.array([_floats(M.row(i)) for i in range(M.rows)])


class EmbeddingData:
    """Roots, the Vandermonde matrix, and the complex basis-embedding matrix.

    Gamma's rows are the embeddings applied to the basis (1, omega_1, ...);
    its squared determinant must reproduce the field discriminant, which is
    asserted on construction.
    """

    __slots__ = ("field", "roots", "xi", "gamma")

    def __init__(self, F: NumberField):
        self.field = F
        self.roots = find_roots(F.pair.form, F.disc * F.a0 * F.a0)
        n = F.n
        self.xi = np.array(
            [[z**j for j in range(n)] for z in self.roots], dtype=complex
        )
        self.gamma = self.xi @ _float_matrix(basis_change_matrix(F))
        self.xi.flags.writeable = self.gamma.flags.writeable = False
        disc = _floats([F.disc])[0]
        det2 = complex(np.linalg.det(self.gamma)) ** 2
        if abs(det2 - disc) > 1e-6 * max(1.0, abs(disc)):
            raise ArithmatError(
                f"det(Gamma)^2 = {det2:.6g} does not match the discriminant {F.disc}"
            )

    def embed(self, alpha: Element) -> np.ndarray:
        """Images of alpha under each embedding (Gamma times the coordinates)."""
        x = np.array(_floats(alpha.coords))
        return self.gamma @ x


def embedding_data(F: NumberField) -> EmbeddingData:
    """F's EmbeddingData, built on first use and kept on the field.

    Only a successful build is kept, so a failing one raises on every call.
    """
    if F.embedding is None:
        F.embedding = EmbeddingData(F)
    return F.embedding


def diagonalization_residual(F: NumberField, alpha: Element) -> float:
    """Max-norm of Gamma*N - Theta*Gamma, Theta the diagonal of embedded images.

    A small residual certifies numerically that the eigenvalues of the
    multiplication matrix are the embedding images of the element.
    """
    emb = embedding_data(F)
    Nf = _float_matrix(arithmetic_matrix(F, alpha))
    theta = np.diag(emb.embed(alpha))
    return float(np.max(np.abs(emb.gamma @ Nf - theta @ emb.gamma)))


def eigenvalue_match_residual(F: NumberField, alpha: Element) -> float:
    """Distance between the eigenvalues of N and the embedded images of alpha."""
    emb = embedding_data(F)
    Nf = _float_matrix(arithmetic_matrix(F, alpha))
    eigs = sorted(np.linalg.eigvals(Nf), key=lambda w: (w.real, w.imag))
    images = sorted(emb.embed(alpha), key=lambda w: (w.real, w.imag))
    return float(max(abs(e - k) for e, k in zip(eigs, images)))


def _round_real_vector(values, tol: float, what: str) -> list[int]:
    out = []
    for v in values:
        if abs(v.imag) > tol:
            raise RoundingError(f"{what}: imaginary part {v.imag:.3e} too large")
        r = round(v.real)
        if abs(v.real - r) > tol:
            raise RoundingError(f"{what}: rounding residual {abs(v.real - r):.3e}")
        out.append(int(r))
    return out


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


def dh_cubic_form(F: NumberField) -> BinaryForm:
    """Integer cubic form from embedded basis differences; discriminant = disc(F).

    Expands the product over embedding pairs (i < j) of
    (omega1^(i) - omega1^(j)) x + (omega2^(i) - omega2^(j)) y, divides by the
    square root of the discriminant, and rounds to integers.  The exact
    discriminant of the output is rechecked against the field's.
    """
    if F.n != 3:
        raise UnsupportedDegreeError("the cubic reconstruction needs degree 3")
    g = embedding_data(F).gamma
    prod = _linear_product(
        (g[i, 1] - g[j, 1], g[i, 2] - g[j, 2]) for i in range(3) for j in range(i + 1, 3)
    )
    sqrt_disc = cmath.sqrt(complex(F.disc))
    scaled = [c / sqrt_disc for c in prod]
    ints = _round_real_vector(scaled, 1e-6, "cubic reconstruction")
    if ints[0] == 0 or ints[-1] == 0:
        raise RoundingError("cubic reconstruction produced a degenerate form")
    out = BinaryForm(ints)
    if form_discriminant(out) != F.disc:
        raise ArithmatError(
            f"reconstructed discriminant {form_discriminant(out)} != {F.disc}"
        )
    return out


def quartic_subform(F: NumberField, i: int, j: int) -> tuple[BinaryForm, int]:
    """Quartic form from adjugate rows i, j, with the discriminant it should have.

    With P the adjugate of Gamma, the product over columns k of
    (P[i,k] x - P[j,k] y), scaled by 1/disc, rounds to an integer quartic
    form.  Its discriminant coincides with the discriminant of the basis
    element whose Gamma-column is complementary to {1, i, j}; that value is
    computed exactly from the characteristic polynomial and returned.
    """
    if F.n != 4:
        raise UnsupportedDegreeError("subforms are a quartic construction")
    if not ({i, j} <= {2, 3, 4}) or i == j:
        raise ArithmatError("need distinct i, j in {2, 3, 4}")
    g = embedding_data(F).gamma
    adj = np.linalg.det(g) * np.linalg.inv(g)
    prod = _linear_product((adj[i - 1, k], -adj[j - 1, k]) for k in range(4))
    scaled = [c / F.disc for c in prod]
    ints = _round_real_vector(scaled, 1e-5, "quartic subform")
    if ints[0] == 0 or ints[-1] == 0:
        raise RoundingError("quartic subform has a zero end coefficient")
    form = BinaryForm(ints)
    q = ({2, 3, 4} - {i, j}).pop()
    elt = F.basis_element(q - 1)
    claimed = poly_discriminant(char_poly(F, elt))
    if claimed.denominator != 1:
        raise ArithmatError("element discriminant is not an integer")
    return form, int(claimed)
