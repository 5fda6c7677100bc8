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

The cubic index form and the quartic subforms are read exactly off a field's
ring, by products of basis elements and the integer arithmetic matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .element import char_poly, inverse, mul, norm
from .errors import ArithmatError, UnsupportedDegreeError
from .field import NumberField, generic_form_coeffs, integer_matrix, integer_trace
from .field import matrix_from_coefficients
from .forms import BinaryForm, form_discriminant
from .polyring import ExactMatrix, MultiPoly, collect_coeffs, det_cofactor, exact_int
from .polyring import poly_discriminant

_XYZ = ("x", "y", "z")


class TernaryForm:
    """A MultiPoly homogeneous in (x, y, z) of a declared degree.

    Coefficients may involve further symbols (the generic quartic letters),
    so homogeneity is checked in the x, y, z exponents only.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MultiPoly, degree: int):
        idx = [poly.vars.index(v) for v in _XYZ if v in poly.vars]
        for expt in poly.terms:
            d = sum(expt[i] for i in idx)
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
        if v in poly.vars:
            split = collect_coeffs(poly, v)
            poly = split[e] if e < len(split) else MultiPoly.const(0)
        elif e:
            return MultiPoly.const(0)
    return poly


def _require_degree(V: BinaryForm, n: int) -> None:
    if V.degree != n:
        raise UnsupportedDegreeError(f"expected a degree-{n} form, got {V.degree}")


def _residuals_vanish(coeffs, build, *residuals) -> bool:
    """Whether each residual(coeffs, build(coeffs)) is zero, building once."""
    covariant_polys = build(coeffs)
    return all(residual(coeffs, covariant_polys).is_zero() for residual in residuals)


def _binary_poly(coeffs) -> MultiPoly:
    """Binary form as a MultiPoly in (x, y); coefficients scalar or symbolic."""
    n = len(coeffs) - 1
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    return sum(
        (c * x ** (n + 1 - k) * y ** (k - 1) for k, c in enumerate(coeffs, start=1)),
        MultiPoly.const(0),
    )


# ----------------------------------------------------------------------
# Quartic forms
# ----------------------------------------------------------------------


def _quartic_ij(coeffs):
    """I and J of the quartic with coefficients a..e (integers or symbolic).

    They satisfy 4*I^3 - J^2 = 27*disc, which the search solves on.
    """
    a, b, c, d, e = coeffs
    i_inv = 12 * a * e - 3 * b * d + c * c
    j_inv = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return i_inv, j_inv


def quartic_invariants(V: BinaryForm) -> tuple[int, int]:
    """The classical degree-2 and degree-3 invariants of a quartic form."""
    _require_degree(V, 4)
    return _quartic_ij(V.coeffs)


def _ghf_from_coeffs(coeffs) -> tuple[TernaryForm, TernaryForm, TernaryForm, MultiPoly]:
    """G, H, F and det(N): expand 256 * det(N) under the trace substitution, collect t powers."""
    a, b, c, d, e = coeffs
    N = matrix_from_coefficients([a, b, c, d, e])
    det = det_cofactor(N)
    t = MultiPoly.var("t")
    x, y, z = (MultiPoly.var(v) for v in _XYZ)
    u_image = (t + b * x + 2 * c * y + 3 * d * z) * Fraction(1, 4)
    expanded = (256 * det).subs({"u": u_image})
    by_t = collect_coeffs(expanded, "t")
    by_t += [MultiPoly.const(0)] * (5 - len(by_t))
    if by_t[4] != 1 or by_t[3]:
        raise ArithmatError("trace substitution did not cancel as expected")
    g = -by_t[2] * Fraction(1, 2)
    h = -by_t[1] * Fraction(1, 8)
    f = by_t[0]
    return TernaryForm(g, 2), TernaryForm(h, 3), TernaryForm(f, 4), det


def quartic_ghf(V: BinaryForm) -> tuple[TernaryForm, TernaryForm, TernaryForm]:
    """The ternary forms G (deg 2), H (deg 3), F (deg 4) of a quartic form."""
    _require_degree(V, 4)
    forms = _ghf_from_coeffs(V.coeffs)[:3]
    for form in forms:
        if not form.poly.is_integer_coefficients():
            raise ArithmatError("covariant with non-integer coefficients")
    return forms


def quartic_ghf_generic() -> tuple[TernaryForm, TernaryForm, TernaryForm]:
    """G, H, F over generic symbolic coefficients a..e."""
    return _ghf_from_coeffs(generic_form_coeffs(4))[:3]


def _quartic_syzygy_residual(coeffs, ghf) -> MultiPoly:
    g, h, _, _ = ghf
    i_inv, j_inv = _quartic_ij(coeffs)
    x = MultiPoly.var("x")
    g4 = g(x * x, x, 1)
    g6 = h(x * x, x, 1)
    v = _binary_poly(coeffs).subs({"y": 1})
    return g4**3 - 48 * i_inv * g4 * v**2 - 64 * j_inv * v**3 - 27 * g6**2


def quartic_syzygy_check(V: BinaryForm) -> bool:
    """Exact check of g4^3 - 48*I*g4*v^2 - 64*J*v^3 = 27*g6^2 for this quartic."""
    _require_degree(V, 4)
    return _residuals_vanish(V.coeffs, _ghf_from_coeffs, _quartic_syzygy_residual)


def quartic_syzygy_check_generic() -> bool:
    """The same syzygy as a polynomial identity in generic coefficients."""
    return _residuals_vanish(generic_form_coeffs(4), _ghf_from_coeffs, _quartic_syzygy_residual)


def _quartic_norm_equation_residual(coeffs, ghf) -> MultiPoly:
    _, b, c, d, _ = coeffs
    g, h, f, det = ghf
    u, x, y, z = (MultiPoly.var(v) for v in ("u", "x", "y", "z"))
    t_of_u = 4 * u - b * x - 2 * c * y - 3 * d * z
    rhs = t_of_u**4 - 2 * g.poly * t_of_u**2 - 8 * h.poly * t_of_u + f.poly
    return 256 * det - rhs


def quartic_norm_equation_check(V: BinaryForm) -> bool:
    """Exact check that 256*det(N) = t^4 - 2*G*t^2 - 8*H*t + F with t the trace."""
    _require_degree(V, 4)
    return _residuals_vanish(V.coeffs, _ghf_from_coeffs, _quartic_norm_equation_residual)


def quartic_norm_equation_check_generic() -> bool:
    return _residuals_vanish(
        generic_form_coeffs(4), _ghf_from_coeffs, _quartic_norm_equation_residual
    )


def quartic_identities_check(V: BinaryForm) -> bool:
    """The syzygy and norm-equation checks from one expansion of G, H, F."""
    _require_degree(V, 4)
    return _residuals_vanish(
        V.coeffs, _ghf_from_coeffs, _quartic_syzygy_residual, _quartic_norm_equation_residual
    )


def _quartic_hessian_residual(coeffs) -> MultiPoly:
    g = _ghf_from_coeffs(coeffs)[0]
    v = _binary_poly(coeffs)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    hess = v.diff("x").diff("x") * v.diff("y").diff("y") - v.diff("x").diff("y") ** 2
    return g(x * x, x * y, y * y) + hess * Fraction(1, 3)


def quartic_hessian_identity_check(V: BinaryForm) -> bool:
    """Exact check of G(x^2, x*y, y^2) = -det(Hessian of V)/3."""
    _require_degree(V, 4)
    return _quartic_hessian_residual(V.coeffs).is_zero()


def quartic_hessian_identity_check_generic() -> bool:
    return _quartic_hessian_residual(generic_form_coeffs(4)).is_zero()


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
    _require_degree(C, 3)
    q_poly, f_poly = _cubic_covariant_polys(C.coeffs)
    return _poly_to_binary_coeffs(q_poly, 2), _poly_to_binary_coeffs(f_poly, 3)


def _cubic_covariant_polys(coeffs) -> tuple[MultiPoly, MultiPoly]:
    a, b, c, d = coeffs
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    q_poly = (
        (b * b - 3 * a * c) * x * x
        + (b * c - 9 * a * d) * x * y
        + (c * c - 3 * b * d) * y * y
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


def _cubic_syzygy_residual(coeffs, covariant_polys) -> MultiPoly:
    a, b, c, d = coeffs
    q_poly, f_poly = covariant_polys
    disc = (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b * b * c * c
        - 4 * a * c**3
        - 27 * a * a * d * d
    )
    cpoly = _binary_poly(coeffs)
    return f_poly**2 + 27 * disc * cpoly**2 - 4 * q_poly**3


def cubic_syzygy_check(C: BinaryForm) -> bool:
    """Exact check of Cayley's syzygy F^2 + 27*D*C^2 = 4*Q^3 for this cubic."""
    _require_degree(C, 3)
    return _residuals_vanish(C.coeffs, _cubic_covariant_polys, _cubic_syzygy_residual)


def cubic_syzygy_check_generic() -> bool:
    return _residuals_vanish(
        generic_form_coeffs(3), _cubic_covariant_polys, _cubic_syzygy_residual
    )


def _cubic_norm_equation_residual(coeffs, covariant_polys) -> MultiPoly:
    a, b, c, d = coeffs
    q_poly, f_poly = covariant_polys
    N = matrix_from_coefficients([a, b, c, d])
    det = det_cofactor(N)
    u, x, y = (MultiPoly.var(v) for v in ("u", "x", "y"))
    t_of_u = 3 * u - b * x - 2 * c * y
    rhs = t_of_u**3 - 3 * t_of_u * q_poly + f_poly
    return 27 * det - rhs


def cubic_norm_equation_check(C: BinaryForm) -> bool:
    """Exact check that 27*det(N) = t^3 - 3*t*Q + F with t the trace."""
    _require_degree(C, 3)
    return _residuals_vanish(C.coeffs, _cubic_covariant_polys, _cubic_norm_equation_residual)


def cubic_norm_equation_check_generic() -> bool:
    return _residuals_vanish(
        generic_form_coeffs(3), _cubic_covariant_polys, _cubic_norm_equation_residual
    )


def cubic_identities_check(C: BinaryForm) -> bool:
    """Cayley's syzygy and the norm-equation check from one build of Q and F."""
    _require_degree(C, 3)
    return _residuals_vanish(
        C.coeffs, _cubic_covariant_polys, _cubic_syzygy_residual, _cubic_norm_equation_residual
    )


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
