"""Number-field contexts from essential pairs, and arithmetic matrices.

A field context is built from a pair (a0, B) where B is an irreducible
integer binary form of degree n whose discriminant equals a0^2 times the
field discriminant, with a0^2 | a1 and a0 | a2.  The context fixes the
integral basis

    omega_0 = 1,  omega_1 = (a1/a0) * zeta,
    omega_j = a1*zeta^j + a2*zeta^(j-1) + ... + aj*zeta   (j >= 2)

where zeta is a root of B(x, 1).  Multiplication by an element alpha with
coordinates (x0, ..., x_{n-1}) over this basis is encoded in an n x n matrix
whose first column is the coordinate vector; the remaining entries are
integer-coefficient polynomials in the coordinates.  Two constructions are
provided: the explicit entry formulas, and substitution of x1/a0 into the
a0 = 1 matrix followed by conjugation with diag(1, 1/a0, 1, ..., 1).  They
agree identically, and they are the symbolic path and the oracles of the
integer kernel (`integer_matrix`), which evaluates the same entries on integer
coordinates in O(n^2) by running sums along the matrix's diagonals.  Both
symbolic entry points are `matrix_from_coefficients` on the coordinate
symbols, behind one degree cap.  Every operation that takes an element
checks it with `require_same_field`, here and in `element` and `fastmul`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    DivisibilityError,
    FieldMismatchError,
    ReducibleFormError,
    ZeroDiscriminantError,
)
from .forms import BinaryForm, form_discriminant, irreducibility_certificate
from .polyring import (
    ExactMatrix,
    MultiPoly,
    UniPoly,
    exact,
    exact_int,
    format_rational,
    parse_rational,
    scaled_coords,
)

# Coordinate and coefficient letters used for symbolic displays of small
# degrees; higher degrees fall back to indexed names.
_COORD_LETTERS = ("u", "x", "y", "z", "w")
_COEFF_LETTERS = ("a", "b", "c", "d", "e", "f")

# Symbolic matrices use cofactor expansion downstream, so cap the degree.
SYMBOLIC_DEGREE_CAP = 16


class EssentialPair:
    """A scale factor a0 >= 1 together with a binary form."""

    __slots__ = ("a0", "form")

    def __init__(self, a0: int, form: BinaryForm):
        self.a0 = exact_int(a0, "a0")
        self.form = form

    @classmethod
    def from_text(cls, text: str) -> EssentialPair:
        """Parse the 'a0:a1,a2,...' wire format."""
        head, _, tail = text.partition(":")
        if not tail:
            raise ValueError("pair format is 'a0:a1,a2,...'")
        return cls(int(head), BinaryForm.from_text(tail))

    def text(self) -> str:
        return f"{self.a0}:{self.form.text()}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, EssentialPair):
            return NotImplemented
        return self.a0 == other.a0 and self.form == other.form

    def __hash__(self):
        return hash((self.a0, self.form))

    def __repr__(self) -> str:
        return f"EssentialPair({self.a0}, {self.form!r})"


class NumberField:
    """Validated field context: pair, degree, and trusted discriminant."""

    __slots__ = ("pair", "n", "disc", "embedding")

    def __init__(self, pair: EssentialPair, n: int, disc: int):
        self.pair = pair
        self.n = n
        self.disc = disc
        self.embedding = None  # numeric.EmbeddingData, kept once built

    @property
    def a0(self) -> int:
        return self.pair.a0

    def coeff(self, k: int) -> int:
        """Form coefficient a_k, 1-indexed as written."""
        return self.pair.form.coeffs[k - 1]

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.pair == other.pair

    def __hash__(self):
        return hash(self.pair)

    def __repr__(self) -> str:
        return f"NumberField(disc={self.disc}, n={self.n}, pair={self.pair.text()!r})"

    def element(self, coords) -> Element:
        return Element(self, coords)

    def one(self) -> Element:
        return Element(self, [1] + [0] * (self.n - 1))

    def zero(self) -> Element:
        return Element(self, [0] * self.n)

    def basis_element(self, j: int) -> Element:
        coords = [0] * self.n
        coords[j] = 1
        return Element(self, coords)


class Element:
    """Coordinate vector over the omega-basis of a field context.

    Each coordinate is stored by `polyring.exact` (an int when integral).
    Its integer form, the numerators xs over one common denominator d
    (`integer_coords`), and its integer matrix A (`integer_matrix`) are
    built on first use and kept, as tuples; equality and hashing see only
    the field and the coordinates.
    """

    __slots__ = ("field", "coords", "_scaled", "_rows")

    def __init__(self, field: NumberField, coords: Sequence):
        cs = tuple(exact(c) for c in coords)
        if len(cs) != field.n:
            raise DimensionMismatchError(
                f"expected {field.n} coordinates, got {len(cs)}"
            )
        self.field = field
        self.coords = cs
        self._scaled = self._rows = None

    def integer_coords(self) -> tuple[tuple[int, ...], int]:
        """The coordinates as integer numerators xs over their common denominator d."""
        if self._scaled is None:
            xs, d = scaled_coords(self.coords)
            self._scaled = (tuple(xs), d)
        return self._scaled

    @classmethod
    def from_text(cls, field: NumberField, text: str) -> Element:
        """Parse the 'x0,x1,...' wire format (entries int or p/q)."""
        return cls(field, [parse_rational(t) for t in text.split(",")])

    def text(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"Element({self.text()})"


def require_same_field(F: NumberField, *elements: Element) -> None:
    """Raise FieldMismatchError unless every element belongs to F."""
    for e in elements:
        if e.field != F:
            raise FieldMismatchError("element belongs to a different field")


def check_scale(pair: EssentialPair) -> None:
    """The discriminant-free conditions: a0 >= 1, a0^2 | a1 and a0 | a2."""
    a0 = pair.a0
    if a0 < 1:
        raise DivisibilityError("a0 must be a positive integer")
    a1, a2 = pair.form.coeffs[0], pair.form.coeffs[1]
    if a1 % (a0 * a0) != 0:
        raise DivisibilityError(f"a0^2 = {a0 * a0} does not divide a1 = {a1}")
    if a2 % a0 != 0:
        raise DivisibilityError(f"a0 = {a0} does not divide a2 = {a2}")


def field_with_discriminant(pair: EssentialPair, D: int) -> NumberField:
    """The field context of a pair that passed `check_scale` and whose form has
    discriminant D: D must be nonzero and divisible by a0^2, the form certified."""
    a0, form = pair.a0, pair.form
    if D == 0:
        raise ZeroDiscriminantError("form has a repeated root")
    if D % (a0 * a0) != 0:
        raise DivisibilityError(
            f"form discriminant {D} is not divisible by a0^2 = {a0 * a0}"
        )
    cert = irreducibility_certificate(form, D)
    if cert is False:
        raise ReducibleFormError("form is reducible over the rationals")
    if cert is None:
        raise ReducibleFormError("form could not be certified irreducible")
    return NumberField(pair, form.degree, D // (a0 * a0))


def make_field(pair: EssentialPair) -> NumberField:
    """Validate an essential pair and return the field context.

    Checks, in order: positivity of a0, the divisibility conditions
    a0^2 | a1 and a0 | a2, a nonzero form discriminant divisible by a0^2,
    and irreducibility of the form.  Each failure raises its own error type.
    Irreducibility is one `irreducibility_certificate` call, exact through
    degree 5; a form it cannot decide "could not be certified irreducible".
    """
    check_scale(pair)
    return field_with_discriminant(pair, form_discriminant(pair.form))


# ----------------------------------------------------------------------
# Matrix entry construction
# ----------------------------------------------------------------------


def _quotient(v, k: int):
    """v / k, kept an integer when k divides v (always so for a validated pair)."""
    if isinstance(v, int) and v % k == 0:
        return v // k
    return v * Fraction(1, k)


def _standard_entry(n: int, a, xs):
    """Entry function (i, j) -> N[i][j] for a0 = 1; a is 1-indexed (a[1]..a[n+1]), xs 0-indexed."""

    def entry(i, j):
        if j == 1:
            return xs[i - 1]
        if i == 1:
            return -a[n + 1] * sum(a[k] * xs[k + n - j] for k in range(1, j))
        if i > j:
            return sum(a[k] * xs[k + i - j - 1] for k in range(1, j))
        m = min(n - i + j, n + 1)
        acc = xs[0] if i == j else 0
        return acc - sum(a[k] * xs[k + i - j - 1] for k in range(j, m + 1))

    return entry


def _generalized_entry(n: int, a, a0: int, xs):
    """Explicit entries for a general pair; reduces to the standard ones at a0=1.

    The pair enters only through the exact quotients a1/a0, a1/a0^2, a2/a0
    and a1*a_{n+1}/a0, so integer coordinates give integer entries.
    """
    c1 = _quotient(a[1], a0)
    c11 = _quotient(a[1], a0 * a0)
    c2 = _quotient(a[2], a0)
    c1n = _quotient(a[1] * a[n + 1], a0)
    if n == 2:
        rows = [[xs[0], -(c11 * a[3]) * xs[1]], [xs[1], xs[0] - c2 * xs[1]]]
        return lambda i, j: rows[i - 1][j - 1]

    def entry(i, j):
        if j == 1:
            return xs[i - 1]
        if j == 2:
            if i == 1:
                return -c1n * xs[n - 1]
            if i == 2:
                return xs[0] - c2 * xs[1] - sum(a[k] * xs[k - 1] for k in range(3, n + 1))
            if i == 3:
                return c11 * xs[1]
            return c1 * xs[i - 2]
        # j >= 3
        if i == 1:
            if j == n:
                return -c1n * xs[1] - a[n + 1] * sum(a[k] * xs[k] for k in range(2, n))
            return -a[n + 1] * sum(a[k] * xs[k + n - j] for k in range(1, j))
        if i == 2:
            return -a[j] * xs[1] - a0 * sum(
                a[k] * xs[k + 1 - j] for k in range(j + 1, n + 2)
            )
        if j <= i - 2:
            return sum(a[k] * xs[k + i - j - 1] for k in range(1, j))
        if j == i - 1:
            return c1 * xs[1] + sum(a[k] * xs[k] for k in range(2, i - 1))
        m = min(n - i + j, n + 1)
        acc = xs[0] if i == j else 0
        return acc - sum(a[k] * xs[k + i - j - 1] for k in range(j, m + 1))

    return entry


def _entries_substitution(n: int, coeffs, a0: int, xs):
    """Generalized entries via x1 -> x1/a0 followed by diag(1, 1/a0, 1, ...) conjugation."""
    subbed = list(xs)
    subbed[1] = xs[1] * Fraction(1, a0)
    rows = _matrix_rows(n, coeffs, 1, subbed)
    for j in range(n):
        rows[1][j] = rows[1][j] * a0
    for i in range(n):
        rows[i][1] = rows[i][1] * Fraction(1, a0)
    return rows


def _check_method(method: str) -> None:
    if method not in ("explicit", "substitution"):
        raise ValueError(f"unknown construction method {method!r}")


def _matrix_rows(n: int, coeffs, a0: int, xs, method: str = "explicit"):
    _check_method(method)
    if a0 == 1 or method == "explicit":
        a = {k + 1: c for k, c in enumerate(coeffs)}
        entry = _standard_entry(n, a, xs) if a0 == 1 else _generalized_entry(n, a, a0, xs)
        return [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return _entries_substitution(n, coeffs, a0, xs)


def _flatten(rows) -> ExactMatrix:
    n = len(rows)
    return ExactMatrix(n, n, [e for row in rows for e in row])


def _diagonal_sums(n: int, a, xs) -> list[list[int]]:
    """The a0 = 1 matrix of integer coordinates xs by running sums along its diagonals.

    In 1-indexed terms, with t = i - j and a = (a1, ..., a_{n+1}): below the
    diagonal, entry (i, j) is L(t, j) = sum_{k<j} a_k x_{k+t-1}, and one step
    further the same sum gives row 1, -a_{n+1} L(n+1-j, j); on and above it,
    entry (i, j) is [i = j] x0 minus the suffix sum over k = j..min(n-t, n+1),
    built from j = n downwards.
    """
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][0] = xs[r]
    last = -a[n]
    for t in range(1, n):
        acc = 0
        for c in range(1, n - t):
            acc += a[c - 1] * xs[c + t - 1]
            rows[c + t][c] = acc
        rows[0][n - t] = last * (acc + a[n - t - 1] * xs[n - 1])
    for t in range(0, 1 - n, -1):
        acc = a[n] * xs[n + t] if t else 0
        base = xs[0] if t == 0 else 0
        for c in range(n - 1, -t, -1):
            acc += a[c] * xs[c + t]
            rows[c + t][c] = base - acc
    return rows


def integer_matrix(F: NumberField, alpha: Element) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Alpha's arithmetic matrix as integer rows over one common denominator d.

    The rows come from the running-sum kernel on alpha's integer numerators,
    in O(n^2); the explicit entry formulas and the substitution route are its
    oracles.  A general a0 follows the substitution identity: the kernel runs
    on (a0*x0, x1, a0*x2, ..., a0*x_{n-1}), and each entry is divided exactly
    by a0, by a0^2 in column 2 outside row 2, and not at all in row 2 outside
    column 2.  These divisions are exact when a0^2 | a1 and a0 | a2, so a pair
    that fails `check_scale` raises its `DivisibilityError` before any entry
    is built.  The rows are built on the first call and kept on the element,
    so later calls return the same tuples.
    """
    require_same_field(F, alpha)
    xs, d = alpha.integer_coords()
    if alpha._rows is None:
        a0, n = F.a0, F.n
        if a0 == 1:
            rows = _diagonal_sums(n, F.pair.form.coeffs, xs)
        else:
            check_scale(F.pair)
            scaled = [a0 * x for x in xs]
            scaled[1] = xs[1]
            rows = _diagonal_sums(n, F.pair.form.coeffs, scaled)
            outside = [a0] * n
            outside[1] = a0 * a0
            inside = [1] * n
            inside[1] = a0
            rows = [
                map(operator.floordiv, row, inside if r == 1 else outside)
                for r, row in enumerate(rows)
            ]
        alpha._rows = tuple(map(tuple, rows))
    return alpha._rows, d


def integer_trace(F: NumberField, xs: Sequence[int]) -> int:
    """Trace of the arithmetic matrix on integer coordinates:
    n*x0 - (a2/a0)*x1 - sum_{j>=2} j*a_{j+1}*x_j, with a0 | a2."""
    a = F.pair.form.coeffs
    return F.n * xs[0] - a[1] // F.a0 * xs[1] - sum(j * a[j] * xs[j] for j in range(2, F.n))


def arithmetic_matrix(F: NumberField, alpha: Element, method: str = "explicit") -> ExactMatrix:
    """The n x n multiplication matrix of alpha over the omega-basis.

    Column 1 carries alpha's coordinates; integer coordinates give integer
    entries and conversely.  The explicit route divides the integer matrix
    (`integer_matrix`) by its common denominator; the substitution route is
    an independent oracle.
    """
    require_same_field(F, alpha)
    _check_method(method)
    if method == "explicit" or F.a0 == 1:
        rows, d = integer_matrix(F, alpha)
        entries = [v for row in rows for v in row]
        return ExactMatrix(F.n, F.n, entries if d == 1 else [Fraction(v, d) for v in entries])
    return _flatten(_matrix_rows(F.n, F.pair.form.coeffs, F.a0, alpha.coords, method))


def symbolic_coords(n: int) -> list[MultiPoly]:
    """Coordinate symbols: u, x, y, z, w for n <= 5, else x0..x_{n-1}."""
    if n <= len(_COORD_LETTERS):
        names = _COORD_LETTERS[:n]
    else:
        names = [f"x{i}" for i in range(n)]
    return [MultiPoly.var(nm) for nm in names]


def generic_form_coeffs(n: int) -> list[MultiPoly]:
    """Coefficient symbols a..f for n <= 5, else a1..a_{n+1}."""
    if n + 1 <= len(_COEFF_LETTERS):
        names = _COEFF_LETTERS[: n + 1]
    else:
        names = [f"a{k}" for k in range(1, n + 2)]
    return [MultiPoly.var(nm) for nm in names]


def _symbolic_matrix(coeffs, a0: int, method: str) -> ExactMatrix:
    """`matrix_from_coefficients` on the coordinate symbols, up to the degree cap."""
    if len(coeffs) - 1 > SYMBOLIC_DEGREE_CAP:
        raise DimensionMismatchError(f"symbolic mode supports degree <= {SYMBOLIC_DEGREE_CAP}")
    return matrix_from_coefficients(coeffs, a0, method=method)


def symbolic_arithmetic_matrix(F: NumberField, method: str = "explicit") -> ExactMatrix:
    """Arithmetic matrix of F with symbolic coordinates (concrete coefficients)."""
    return _symbolic_matrix(F.pair.form.coeffs, F.a0, method)


def generic_arithmetic_matrix(n: int, a0: int = 1, method: str = "explicit") -> ExactMatrix:
    """Fully symbolic arithmetic matrix: generic coefficients and coordinates."""
    return _symbolic_matrix(generic_form_coeffs(n), a0, method)


def matrix_from_coefficients(coeffs, a0: int = 1, coords=None, method: str = "explicit") -> ExactMatrix:
    """Arithmetic matrix for raw coefficient values, without field validation.

    Useful for polynomial identities that hold for arbitrary forms (covariant
    derivations run here with symbolic or concrete coefficients alike).
    Coordinates default to the symbolic letters.
    """
    n = len(coeffs) - 1
    if coords is None:
        coords = symbolic_coords(n)
    if len(coords) != n:
        raise DimensionMismatchError(f"expected {n} coordinates")
    return _flatten(_matrix_rows(n, list(coeffs), a0, list(coords), method))


# ----------------------------------------------------------------------
# Basis data
# ----------------------------------------------------------------------


def basis_change_matrix(F: NumberField) -> ExactMatrix:
    """Integer matrix sending omega-basis coordinates to zeta-power coefficients.

    Row 1 is e1; for i >= 2 the (i, j) entry is a_{j-i+1}, with the (2, 2)
    entry scaled to a1/a0, an integer because a0^2 | a1.  The matrix is upper
    triangular and invertible.
    """
    n = F.n
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            rows[i - 1][j - 1] = F.coeff(j - i + 1)
    if n >= 2:
        rows[1][1] = F.coeff(1) // F.a0
    return ExactMatrix.from_rows(rows)


def integral_basis_description(F: NumberField) -> list[UniPoly]:
    """The basis elements written as exact polynomials in zeta."""
    M = basis_change_matrix(F)
    return [UniPoly(M.column(j), "zeta") for j in range(F.n)]
