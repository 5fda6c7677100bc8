"""Floating-point verification layer on numpy: roots, embeddings, diagonalization.

Everything exact lives elsewhere: no exact result is read off a float here,
and the cubic index form and the quartic subforms are computed in
`covariants`.  This is the one module that imports numpy, which serves
batches of certificates: the embedding is kept on the field and each
certificate is a few matrix products.  No CLI command imports it: a one-shot
call, such as `arithmat diag-check`, takes the plain-float route in
`embedding`.  The two routes keep their own arithmetic and run `embedding`'s
checks: the polish, the det(Gamma)^2 comparison and the float64 range test.
"""

from __future__ import annotations

import numpy as np

from .embedding import _floats, check_det_squared, fitting_residual, form_floats, polish
from .field import Element, NumberField, arithmetic_matrix, basis_change_matrix
from .forms import BinaryForm


def find_roots(B: BinaryForm) -> list[complex]:
    """All n complex roots of B(x, 1), polished and deterministically ordered.

    Companion-matrix eigenvalues give the starting points, and
    `embedding.polish` sharpens them to near machine precision, checks each
    against its tolerance and sorts them by (real, imaginary).  Raises on a
    zero discriminant, read from the form, which keeps it, and when a
    polished residual stays above tolerance.
    """
    coeffs = form_floats(B)
    return polish(coeffs, np.roots(coeffs))


def _float_matrix(M) -> np.ndarray:
    return np.array([_floats(M.row(i)) for i in range(M.rows)])


class EmbeddingData:
    """Roots, the Vandermonde matrix, and the complex basis-embedding matrix.

    Gamma's rows are the embeddings applied to the basis (1, omega_1, ...);
    its squared determinant must reproduce the field discriminant, which
    `embedding.check_det_squared` checks on construction.  The roots are
    checked distinct against the discriminant the field's form holds.
    """

    __slots__ = ("field", "roots", "gamma")

    def __init__(self, F: NumberField):
        self.field = F
        self.roots = find_roots(F.pair.form)
        n = F.n
        xi = np.array([[z**j for j in range(n)] for z in self.roots], dtype=complex)
        self.gamma = xi @ _float_matrix(basis_change_matrix(F))
        self.gamma.flags.writeable = False
        check_det_squared(F, complex(np.linalg.det(self.gamma)) ** 2)

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
    multiplication matrix are the embedding images of the element.  One
    that is not a finite float raises FloatRangeError (`fitting_residual`).
    """
    emb = embedding_data(F)
    Nf = _float_matrix(arithmetic_matrix(F, alpha))
    theta = np.diag(emb.embed(alpha))
    # numpy's max carries an inf or nan through, so one test covers every entry
    return fitting_residual((float(np.max(np.abs(emb.gamma @ Nf - theta @ emb.gamma))),))


def eigenvalue_match_residual(F: NumberField, alpha: Element) -> float:
    """Distance between the eigenvalues of N and the embedded images of alpha."""
    emb = embedding_data(F)
    Nf = _float_matrix(arithmetic_matrix(F, alpha))
    eigs = sorted(np.linalg.eigvals(Nf), key=lambda w: (w.real, w.imag))
    images = sorted(emb.embed(alpha), key=lambda w: (w.real, w.imag))
    return float(max(abs(e - k) for e, k in zip(eigs, images)))
