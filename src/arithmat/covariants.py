"""Classical covariants of cubic and quartic forms, syzygies, norm equations.

For a quartic form with coefficients (a, b, c, d, e) the determinant of the
multiplication matrix, rewritten in terms of the trace t via
u = (t + b*x + 2*c*y + 3*d*z)/4 and scaled by 256, collapses to

    t^4 - 2*G*t^2 - 8*H*t + F

with G, H, F ternary forms in the coordinates (x, y, z) of degrees 2, 3, 4.
G has an explicit classical expression; H and F are defined operationally by
this expansion (the t^3 coefficient cancels identically, which is what makes
the trace substitution work).  G and H restrict to the classical quartic
covariants and satisfy the invariant-theory syzygy with I and J.

For a cubic form the analogous objects are the Hessian Q, the Jacobian F,
Cayley's syzygy F^2 + 27*D*C^2 = 4*Q^3, and the norm-one equation
t^3 - 3*t*Q + F = 27.

Each identity check, and `quartic_ghf`, takes a form or none: with the form
omitted it works over the generic coefficients a, b, ... as polynomial
identities.  The expansion of G, H, F (or of Q, F) is cached for the last
form, so checks on one form share it.

The cubic index form and the quartic subforms are read exactly off a field's
ring, by products of basis elements and the integer arithmetic matrices.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .element import char_poly, inverse, mul, norm
from .errors import ArithmatError, UnsupportedDegreeError
from .field import NumberField, integer_matrix, integer_trace
from .forms import BinaryForm, form_discriminant
from .polyring import ExactMatrix, _quartic_ij, coeffs_discriminant, exact_int, poly_discriminant
from .symbolic import MultiPoly, _symbolic_matrix, collect_coeffs, det_cofactor, generic_form_coeffs

_XYZ = ("x", "y", "z")
# the variables of a binary form
_X, _Y = MultiPoly.variables("x y")


class TernaryForm:
    """A MultiPoly homogeneous in (x, y, z) of a declared degree.

    Coefficients may involve further symbols (the generic quartic letters),
    so homogeneity is checked on the sum of each monomial's x, y and z
    exponents only.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MultiPoly, degree: int):
        for mono in poly.terms:
            d = sum(e for v, e in mono if v in _XYZ)
            if d != degree:
                raise ArithmatError(
                    f"term of (x,y,z)-degree {d} in a declared degree-{degree} form"
                )
        self.poly = poly
        self.degree = degree

    def __call__(self, x, y, z):
        """Substitute values (scalars or MultiPoly) for x, y, z."""
        return self.poly.subs({"x": x, "y": y, "z": z})

    def coefficient(self, i: int, j: int, k: int):
        """Coefficient of x^i y^j z^k (a MultiPoly in any remaining symbols)."""
        return _monomial_coefficient(self.poly, zip(_XYZ, (i, j, k)))

    def __eq__(self, other) -> bool:
        if isinstance(other, TernaryForm):
            return self.degree == other.degree and self.poly == other.poly
        return self.poly == other

    def __repr__(self) -> str:
        return f"TernaryForm(deg {self.degree}: {self.poly})"


def _monomial_coefficient(poly: MultiPoly, powers) -> MultiPoly:
    """Coefficient in poly of the product of v^e over the (v, e) in powers."""
    for v, e in powers:
        split = collect_coeffs(poly, v)
        poly = split[e] if e < len(split) else MultiPoly.const(0)
    return poly


def _coeffs(V: BinaryForm | None, n: int) -> tuple:
    """V's coefficients, or the generic symbols a, b, ... when V is None."""
    if V is None:
        return tuple(generic_form_coeffs(n))
    if V.degree != n:
        raise UnsupportedDegreeError(f"expected a degree-{n} form, got {V.degree}")
    return V.coeffs


def _binary_poly(coeffs) -> MultiPoly:
    """Binary form as a MultiPoly in (x, y); coefficients scalar or symbolic."""
    n = len(coeffs) - 1
    return sum(
        (c * _X ** (n + 1 - k) * _Y ** (k - 1) for k, c in enumerate(coeffs, start=1)),
        MultiPoly.const(0),
    )


def _scaled_norm(coeffs) -> tuple[MultiPoly, MultiPoly]:
    """n^n * det(N) on the coordinate symbols, and s with the trace t = n*u - s,
    read off N: u is N[0, 0], the first coordinate."""
    n = len(coeffs) - 1
    N = _symbolic_matrix(coeffs, 1)
    return n**n * det_cofactor(N), n * N[0, 0] - N.trace()


# ----------------------------------------------------------------------
# Quartic forms
# ----------------------------------------------------------------------


def quartic_invariants(V: BinaryForm) -> tuple[int, int]:
    """The classical degree-2 and degree-3 invariants of a quartic form."""
    return _quartic_ij(_coeffs(V, 4))


@functools.lru_cache(maxsize=1)
def _ghf_from_coeffs(coeffs: tuple):
    """G, H, F, 256*det(N) and s: expand 256*det(N) under u = (t + s)/4, collect t powers."""
    scaled, s = _scaled_norm(coeffs)
    t = MultiPoly.var("t")
    by_t = collect_coeffs(scaled.subs({"u": (t + s) * Fraction(1, 4)}), "t")
    by_t += [MultiPoly.const(0)] * (5 - len(by_t))
    if by_t[4] != 1 or by_t[3]:
        raise ArithmatError("trace substitution did not cancel as expected")
    g = -by_t[2] * Fraction(1, 2)
    h = -by_t[1] * Fraction(1, 8)
    f = by_t[0]
    return TernaryForm(g, 2), TernaryForm(h, 3), TernaryForm(f, 4), scaled, s


def quartic_ghf(V: BinaryForm | None = None) -> tuple[TernaryForm, TernaryForm, TernaryForm]:
    """The ternary forms G (deg 2), H (deg 3), F (deg 4) of a quartic form."""
    forms = _ghf_from_coeffs(_coeffs(V, 4))[:3]
    for form in forms:
        if not form.poly.is_integer_coefficients():
            raise ArithmatError("covariant with non-integer coefficients")
    return forms


def quartic_syzygy_check(V: BinaryForm | None = None) -> bool:
    """Exact check of g4^3 - 48*I*g4*v^2 - 64*J*v^3 = 27*g6^2 for this quartic."""
    coeffs = _coeffs(V, 4)
    g, h = _ghf_from_coeffs(coeffs)[:2]
    i_inv, j_inv = _quartic_ij(coeffs)
    g4 = g(_X * _X, _X, 1)
    g6 = h(_X * _X, _X, 1)
    v = _binary_poly(coeffs).subs({"y": 1})
    return (g4**3 - 48 * i_inv * g4 * v**2 - 64 * j_inv * v**3 - 27 * g6**2).is_zero()


def quartic_norm_equation_check(V: BinaryForm | None = None) -> bool:
    """Exact check that 256*det(N) = t^4 - 2*G*t^2 - 8*H*t + F with t the trace."""
    g, h, f, scaled, s = _ghf_from_coeffs(_coeffs(V, 4))
    t = 4 * MultiPoly.var("u") - s
    return (scaled - (t**4 - 2 * g.poly * t**2 - 8 * h.poly * t + f.poly)).is_zero()


def quartic_hessian_identity_check(V: BinaryForm | None = None) -> bool:
    """Exact check of G(x^2, x*y, y^2) = -det(Hessian of V)/3."""
    coeffs = _coeffs(V, 4)
    g = _ghf_from_coeffs(coeffs)[0]
    v = _binary_poly(coeffs)
    hess = v.diff("x").diff("x") * v.diff("y").diff("y") - v.diff("x").diff("y") ** 2
    return (g(_X * _X, _X * _Y, _Y * _Y) + hess * Fraction(1, 3)).is_zero()


# ----------------------------------------------------------------------
# Cubic forms
# ----------------------------------------------------------------------


def cubic_covariants(C: BinaryForm):
    """Hessian and Jacobian covariants of a cubic form, as coefficient tuples.

    Returned as plain tuples because either covariant can have a zero end
    coefficient, which the BinaryForm type (a field-defining datum) forbids.
    Normalizations are the classical ones making Cayley's syzygy hold as
    F^2 + 27*D*C^2 = 4*Q^3.
    """
    q_poly, f_poly = _cubic_covariant_polys(_coeffs(C, 3))
    return _poly_to_binary_coeffs(q_poly, 2), _poly_to_binary_coeffs(f_poly, 3)


@functools.lru_cache(maxsize=1)
def _cubic_covariant_polys(coeffs: tuple) -> tuple[MultiPoly, MultiPoly]:
    """Q and F as MultiPolys in (x, y), cached on the coefficient tuple."""
    a, b, c, d = coeffs
    q_poly = (
        (b * b - 3 * a * c) * _X * _X
        + (b * c - 9 * a * d) * _X * _Y
        + (c * c - 3 * b * d) * _Y * _Y
    )
    cpoly = _binary_poly(coeffs)
    f_poly = cpoly.diff("x") * q_poly.diff("y") - cpoly.diff("y") * q_poly.diff("x")
    return q_poly, f_poly


def _poly_to_binary_coeffs(poly: MultiPoly, degree: int) -> tuple:
    out = []
    for k in range(degree, -1, -1):
        coeff = _monomial_coefficient(poly, (("x", k), ("y", degree - k)))
        out.append(coeff.constant_value() if coeff.total_degree() == 0 else coeff)
    return tuple(out)


def cubic_syzygy_check(C: BinaryForm | None = None) -> bool:
    """Exact check of Cayley's syzygy F^2 + 27*D*C^2 = 4*Q^3 for this cubic."""
    coeffs = _coeffs(C, 3)
    q_poly, f_poly = _cubic_covariant_polys(coeffs)
    cpoly = _binary_poly(coeffs)
    return (f_poly**2 + 27 * coeffs_discriminant(coeffs) * cpoly**2 - 4 * q_poly**3).is_zero()


def cubic_norm_equation_check(C: BinaryForm | None = None) -> bool:
    """Exact check that 27*det(N) = t^3 - 3*t*Q + F with t the trace."""
    coeffs = _coeffs(C, 3)
    q_poly, f_poly = _cubic_covariant_polys(coeffs)
    scaled, s = _scaled_norm(coeffs)
    t = 3 * MultiPoly.var("u") - s
    return (scaled - (t**3 - 3 * t * q_poly + f_poly)).is_zero()


# ----------------------------------------------------------------------
# Forms read off the ring of a field
# ----------------------------------------------------------------------


def dh_cubic_form(F: NumberField) -> BinaryForm:
    """The index form of a cubic field's ring (Delone-Faddeev); disc = disc(F).

    With alpha = x*omega_1 + y*omega_2, it is the minor y*c_1 - x*c_2 of the
    coordinates c of alpha^2.  With p, q, r the coordinates of omega_1^2,
    omega_1*omega_2 and omega_2^2, its coefficients are -p_2, p_1 - 2*q_2,
    2*q_1 - r_2 and r_1.  The discriminant is rechecked exactly.
    """
    if F.n != 3:
        raise UnsupportedDegreeError("the cubic reconstruction needs degree 3")
    w1, w2 = F.basis_element(1), F.basis_element(2)
    _, p1, p2 = mul(F, w1, w1).coords
    _, q1, q2 = mul(F, w1, w2).coords
    _, r1, r2 = mul(F, w2, w2).coords
    out = BinaryForm([-p2, p1 - 2 * q2, 2 * q1 - r2, r1])
    if form_discriminant(out) != F.disc:
        raise ArithmatError(f"reconstructed discriminant {form_discriminant(out)} != {F.disc}")
    return out


def quartic_subform(F: NumberField, i: int, j: int) -> tuple[BinaryForm, int]:
    """The form disc * N(x*u - y*v), with the discriminant it should have.

    u and v are the elements i-1 and j-1 of the dual basis of the trace form
    T_ab = Tr(omega_a * omega_b): columns i-1 and j-1 of T^-1.  Since
    N(x*u - y*v) = N(u) * y^4 * chi_{v/u}(x/y), the form is disc * N(u) times
    the characteristic polynomial of v/u, from x^4 down.  Its discriminant,
    also returned, is that of the basis element complementary to {1, i, j}.
    """
    if F.n != 4:
        raise UnsupportedDegreeError("subforms are a quartic construction")
    if not ({i, j} <= {2, 3, 4}) or i == j:
        raise ArithmatError("need distinct i, j in {2, 3, 4}")
    # column b of omega_a's matrix holds omega_a * omega_b
    gram = [
        [integer_trace(F, col) for col in zip(*integer_matrix(F, F.basis_element(a))[0])]
        for a in range(4)
    ]
    dual = ExactMatrix.from_rows(gram).inverse(columns=(i - 1, j - 1))
    u, v = (F.element(dual.column(k)) for k in (0, 1))
    scale = F.disc * norm(F, u)
    chi = char_poly(F, mul(F, inverse(F, u), v))
    form = BinaryForm([scale * c for c in reversed(chi.coeffs)])
    q = ({2, 3, 4} - {i, j}).pop()
    claimed = poly_discriminant(char_poly(F, F.basis_element(q - 1)))
    return form, exact_int(claimed, "element discriminant")
