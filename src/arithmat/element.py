"""Ring arithmetic on elements, on their integer multiplication matrices.

An element with coordinates x over the common denominator d has the matrix
N = A / d, with A the integer matrix of d*x (``field.integer_matrix``, built
in O(n^2) by running sums along its diagonals).  The numerators d*x and A are
built once per element and kept on it, so every operation below on the same
element shares them.  Each operation is integer linear algebra on A, divided
by a power of d once: mul applies A to the other element's column, trace is
the linear trace form on d*x, norm is det A by Bareiss elimination, inverse
is d * A^-1 e1 by a fraction-free solve, and char_poly is Le Verrier over the
integers.  Since A^k is the matrix of (d*alpha)^k, whose coordinates
A^(k-1) (d*x) cost one matrix-vector product, each power sum tr(A^k) is one
trace-form evaluation.  When the denominator is 1, mul and char_poly return
their integers as they are and inverse skips the scaling by d, so no Fraction
is made for an integral result.  An independent resultant-based norm is
provided as a cross-check oracle.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ZeroElementError
from .field import Element, NumberField, basis_change_matrix
from .field import integer_matrix, integer_trace, require_same_field
from .polyring import ExactMatrix, UniPoly, det_exact, exact, resultant


def add(F: NumberField, alpha: Element, beta: Element) -> Element:
    """Coordinate-wise sum."""
    require_same_field(F, alpha, beta)
    return Element(F, [a + b for a, b in zip(alpha.coords, beta.coords)])


def sub(F: NumberField, alpha: Element, beta: Element) -> Element:
    require_same_field(F, alpha, beta)
    return Element(F, [a - b for a, b in zip(alpha.coords, beta.coords)])


def scale(F: NumberField, c, alpha: Element) -> Element:
    require_same_field(F, alpha)
    return Element(F, [exact(c) * a for a in alpha.coords])


def mul(F: NumberField, alpha: Element, beta: Element) -> Element:
    """Exact product: alpha's matrix applied to beta's coordinate column."""
    require_same_field(F, alpha, beta)
    rows, d = integer_matrix(F, alpha)
    ys, e = beta.integer_coords()
    column = [sum(map(operator.mul, row, ys)) for row in rows]
    return Element(F, column if d * e == 1 else [Fraction(v, d * e) for v in column])


def trace(F: NumberField, alpha: Element) -> Fraction:
    """Trace of alpha: the trace of its multiplication matrix."""
    require_same_field(F, alpha)
    xs, d = alpha.integer_coords()
    return Fraction(integer_trace(F, xs), d)


def norm(F: NumberField, alpha: Element) -> Fraction:
    """Norm of alpha: the determinant of its multiplication matrix."""
    require_same_field(F, alpha)
    rows, d = integer_matrix(F, alpha)
    return Fraction(det_exact(rows), d**F.n)


def norm_resultant_oracle(F: NumberField, alpha: Element) -> Fraction:
    """Independent norm: express alpha as P(zeta) and take Res(f, P) / a1^deg P."""
    require_same_field(F, alpha)
    if alpha.is_zero():
        raise ZeroElementError("the zero element has no resultant norm")
    power_coeffs = basis_change_matrix(F).apply(list(alpha.coords))
    P = UniPoly(power_coeffs)
    f = F.pair.form.dehomogenized()
    return resultant(f, P) / Fraction(F.coeff(1)) ** P.degree


def inverse(F: NumberField, alpha: Element) -> Element:
    """Coordinates of 1/alpha: column 1 of the exact inverse matrix."""
    require_same_field(F, alpha)
    if alpha.is_zero():
        raise ZeroElementError("cannot invert the zero element")
    rows, d = integer_matrix(F, alpha)
    column = ExactMatrix.from_rows(rows).inverse(columns=(0,)).column(0)
    return Element(F, column if d == 1 else [d * c for c in column])


def char_poly(F: NumberField, alpha: Element) -> UniPoly:
    """Monic degree-n characteristic polynomial of alpha's matrix.

    Power sums p_k = tr(A^k), then Newton's identities, exact over the integers.
    """
    require_same_field(F, alpha)
    n = F.n
    rows, d = integer_matrix(F, alpha)
    power = alpha.integer_coords()[0]
    sums = [integer_trace(F, power)]
    for _ in range(n - 1):
        power = [sum(map(operator.mul, row, power)) for row in rows]
        sums.append(integer_trace(F, power))
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        coeffs[n - k] = -sum(map(operator.mul, coeffs[n - k + 1 :], sums)) // k
    return UniPoly(coeffs if d == 1 else [Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)])


def is_integral(F: NumberField, alpha: Element) -> bool:
    """True when every coordinate is a rational integer."""
    require_same_field(F, alpha)
    return all(c.denominator == 1 for c in alpha.coords)


def evaluate_poly_at(F: NumberField, p: UniPoly, alpha: Element) -> Element:
    """Evaluate a rational polynomial at an element via Horner over mul().

    Each step multiplies by alpha on the left, so alpha's kept matrix is
    built once, and adds the coefficient to coordinate 0 (the basis starts
    with omega_0 = 1)."""
    require_same_field(F, alpha)
    acc = F.zero()
    for c in reversed(p.coeffs):
        step = mul(F, alpha, acc).coords
        acc = Element(F, (step[0] + c,) + step[1:])
    return acc
