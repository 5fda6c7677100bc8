"""Plain-float embeddings: complex roots and the diagonalization certificate.

This module imports no numpy.  It holds what both float routes share: the
conversion of exact values to float64 (`_floats`), and the Newton polish and
tolerance check that every root passes (`polish`).  It also holds the route
for one certificate in one process, which `arithmat diag-check` runs:
`find_roots` takes its starting points from Aberth's simultaneous iteration
(Math. Comp. 27, 1973) instead of companion-matrix eigenvalues, and
`diagonalization_residual` builds Gamma, checks det(Gamma)^2 against the
field discriminant and measures max |Gamma N - Theta Gamma| in plain complex
arithmetic.  Both raise what their `numeric` namesakes raise, in the same
order and with the same messages: both routes run `check_det_squared` and
`fitting_residual`.  `numeric` keeps numpy for batches of certificates, where
its matrix products pay for the import.
"""

from __future__ import annotations

import cmath
import math

from .errors import ArithmatError, FloatRangeError, RootConvergenceError, ZeroDiscriminantError
from .field import Element, NumberField, arithmetic_matrix, basis_change_matrix
from .forms import BinaryForm, form_discriminant

_ROOT_TOL = 1e-10
_MAX_NEWTON = 60
_MAX_ABERTH = 100
# an Aberth correction this small, relative to its root, leaves the rest to the polish
_ABERTH_TOL = 2.0**-40


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


def form_floats(B: BinaryForm) -> list[float]:
    """B's coefficients as floats, leading first, after refusing a form with
    a repeated root, read from the discriminant the form keeps."""
    if form_discriminant(B) == 0:
        raise ZeroDiscriminantError("root finder requires distinct roots")
    return _floats(B.coeffs)


def _horner(coeffs: list[float], z: complex) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _newton(coeffs: list[float], z: complex) -> complex:
    """z after Newton's iteration on the polynomial with coefficients
    `coeffs` (leading first), stopped by a zero derivative, by a step at
    float64 resolution or after `_MAX_NEWTON` steps.

    A converged root can cycle between neighbouring floats without its step
    ever meeting the resolution test.  The map is a function of z alone, so
    once an iterate repeats, the one the last step would reach is read off
    the cycle.
    """
    n = len(coeffs) - 1
    slopes = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    iterates, seen = [z], {z: 0}
    for k in range(1, _MAX_NEWTON + 1):
        d = _horner(slopes, z)
        if d == 0:
            return z
        step = _horner(coeffs, z) / d
        z -= step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            return z
        first = seen.setdefault(z, k)
        if first < k:
            return iterates[first + (_MAX_NEWTON - first) % (k - first)]
        iterates.append(z)
    return z


def polish(coeffs: list[float], starts) -> list[complex]:
    """The roots that Newton's iteration reaches from `starts`, sorted by
    (real, imaginary), each residual checked against 1e-10 times
    sum |c_k| max(1, |z|)^k: relative to the root's size, with no fixed bound.

    The polish is what keeps the diagonalization certificate under its 1e-8
    bound at degrees 8-12: without it, the certificate misses of the
    benchmark's ring workload over seeds 1-12 doubled (44 to 88).  A root
    whose powers pass float64 range raises FloatRangeError, and one whose
    residual is above tolerance, or not a number, RootConvergenceError.
    """
    polished = []
    for z in starts:
        z = _newton(coeffs, complex(z))
        try:
            scale = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(reversed(coeffs)))
        except OverflowError:
            raise FloatRangeError(
                f"a root of about 10^{round(math.log10(abs(z)))} has powers beyond float64 range"
            ) from None
        residual = abs(_horner(coeffs, z))
        if not residual <= _ROOT_TOL * scale:
            raise RootConvergenceError(f"residual {residual:.3e} exceeds tolerance for root {z}")
        polished.append(z)
    return sorted(polished, key=lambda w: (w.real, w.imag))


def _newton_polygon_radii(coeffs: list[float]) -> list[float]:
    """log2 of a starting modulus for each root, from the upper convex hull of
    the points (i, log2 |a_i|), a_i the coefficient of x^i: an edge from i to
    j carries j - i roots of modulus near (|a_i| / |a_j|)^(1/(j - i)).  A
    binary form's end coefficients are nonzero, so the hull spans 0 .. n."""
    hull = []
    for p in [(i, math.log2(abs(c))) for i, c in enumerate(reversed(coeffs)) if c]:
        # drop the last corner while it lies on or below the chord to p
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(p)
    radii = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radii += [(li - lj) / (j - i)] * (j - i)
    return radii


def _aberth_starts(coeffs: list[float]) -> list[complex]:
    """Approximate roots of the polynomial with coefficients `coeffs`
    (leading first), by Aberth's iteration from points on the circles of
    its Newton polygon.

    It runs on the monic polynomial whose roots are the true ones over 2^e,
    2^e near the largest circle, the size of the largest roots.  Scaling by a
    power of two is exact, and no scaled coefficient passes 2^(k/2), so no
    evaluation overflows where a root of about 10^200 would.  Roots far
    below the largest keep starting points on their own circles, for the
    polish to finish.
    """
    n = len(coeffs) - 1
    radii = _newton_polygon_radii(coeffs)
    e = round(max(radii))
    g = [math.ldexp(c / coeffs[0], -e * k) for k, c in enumerate(coeffs)]
    # on each circle, points turned off the real axis that real polynomials are symmetric in
    ys = [cmath.rect(2.0 ** (r - e), 2 * math.pi * k / n + 0.4) for k, r in enumerate(radii)]
    for _ in range(_MAX_ABERTH):
        moved = False
        for i, y in enumerate(ys):
            p, dp = 1 + 0j, 0j
            for c in g[1:]:
                dp = dp * y + p
                p = p * y + c
            if p == 0 or dp == 0:
                continue
            ratio = p / dp
            denominator = 1 - ratio * sum(1 / (y - w) for w in ys if w != y)
            step = ratio / denominator if denominator else 0j
            # near points that underflowed to 0, 1 / (y - w) overflows: such a point stays
            if cmath.isfinite(step) and step:
                ys[i] = y - step
                moved = moved or abs(step) > _ABERTH_TOL * abs(ys[i])
        if not moved:
            break
    try:
        return [complex(math.ldexp(y.real, e), math.ldexp(y.imag, e)) for y in ys]
    except OverflowError:
        size = round(math.log10(max(map(abs, ys))) + e * math.log10(2))
        raise FloatRangeError(
            f"a root of about 10^{size} has powers beyond float64 range"
        ) from None


def find_roots(B: BinaryForm) -> list[complex]:
    """All n complex roots of B(x, 1), polished and sorted by (real,
    imaginary), from Aberth starting points; `numeric.find_roots` takes
    companion-matrix eigenvalues instead.  Raises on a zero discriminant and
    when a polished residual stays above tolerance."""
    coeffs = form_floats(B)
    return polish(coeffs, _aberth_starts(coeffs))


def _det_squared(roots: list[complex], diagonal: list[float]) -> complex:
    """det(Gamma)^2, Gamma the Vandermonde matrix of the roots times the
    triangular basis change with the given diagonal: the product of
    (z_j - z_i)^2 over i < j and of the diagonal squared, (a1/a0)^2 and
    a1^(2n-4).  The product runs on a mantissa and a power of two, so that no
    partial product over- or underflows; inf when the whole does not fit a
    float64."""
    factors = [w - z for i, z in enumerate(roots) for w in roots[i + 1 :]] + diagonal
    m, e = 1 + 0j, 0
    for w in factors * 2:
        m *= w
        k = math.frexp(abs(m))[1]
        m, e = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k)), e + k
    try:
        return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
    except OverflowError:
        return complex(math.inf)


def check_det_squared(F: NumberField, det2: complex) -> None:
    """Raise ArithmatError unless det(Gamma)^2 = det2 matches F's
    discriminant to 1e-6, relative to its size when that passes 1."""
    disc = _floats([F.disc])[0]
    if abs(det2 - disc) > 1e-6 * max(1.0, abs(disc)):
        raise ArithmatError(f"det(Gamma)^2 = {det2:.6g} does not match the discriminant {F.disc}")


def fitting_residual(residuals) -> float:
    """The largest of the residuals, after a FloatRangeError when one is
    not a finite float: an overflow past float64 leaves inf or nan."""
    if not all(map(math.isfinite, residuals)):
        raise FloatRangeError("the diagonalization residual does not fit a float64")
    return max(residuals)


def diagonalization_residual(F: NumberField, alpha: Element) -> float:
    """Max-norm of Gamma*N - Theta*Gamma, Theta the diagonal of embedded
    images, in plain floats; `numeric.diagonalization_residual` computes the
    same with numpy."""
    roots = find_roots(F.pair.form)
    B = basis_change_matrix(F)
    columns = [_floats(B.column(k)) for k in range(F.n)]
    gamma = []
    for z in roots:
        powers = [z**j for j in range(F.n)]
        gamma.append([sum(p * b for p, b in zip(powers, col)) for col in columns])
    check_det_squared(F, _det_squared(roots, [col[k] for k, col in enumerate(columns)]))
    M = arithmetic_matrix(F, alpha)
    N_columns = list(zip(*[_floats(M.row(i)) for i in range(M.rows)]))
    x = _floats(alpha.coords)
    residuals = []
    try:
        for row in gamma:
            theta = sum(g * c for g, c in zip(row, x))
            for j, col in enumerate(N_columns):
                residuals.append(abs(sum(g * c for g, c in zip(row, col)) - theta * row[j]))
    except OverflowError:  # finite parts whose modulus is not
        residuals.append(math.inf)
    return fitting_residual(residuals)
