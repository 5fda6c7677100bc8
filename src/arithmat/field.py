"""Number-field contexts from essential pairs, and arithmetic matrices.

A field context is built from a pair (a0, B) where B is an irreducible
integer binary form of degree n whose discriminant equals a0^2 times the
field discriminant, with a0^2 | a1 and a0 | a2; `NumberField` checks the
last two itself, so a1/a0, a1/a0^2 and a2/a0 are integers in every field.
The context fixes the integral basis

    omega_0 = 1,  omega_1 = (a1/a0) * zeta,
    omega_j = a1*zeta^j + a2*zeta^(j-1) + ... + aj*zeta   (j >= 2)

where zeta is a root of B(x, 1).  This module is the basis's one home: the
basis change to the coefficients of zeta^0 .. zeta^(n-1), `to_power_basis`,
its exact inverse `from_power_basis` and `basis_change_matrix` share one set
of rows, kept on the field once built.  Multiplication by an element alpha
with coordinates (x0, ..., x_{n-1}) over this basis is encoded in an n x n
matrix whose first column is the coordinate vector; the remaining entries are
integer-coefficient polynomials in the coordinates.  The integer kernel
(`integer_matrix`) evaluates those entries on integer coordinates in O(n^2)
by running sums along the matrix's diagonals, in one pass for every a0;
`symbolic` runs the same kernel on symbols.  The trace is linear: the
traces of the basis elements are kept on the field beside the basis rows,
built on first use and never by `make_field`.  The paper's explicit entry
formulas and the substitution route, the kernel's oracles, live there.  Each
operand is checked for its field once: by `integer_matrix` if it builds the
operand's matrix, else by the operation itself (`require_same_field`).
"""

from __future__ import annotations

import operator
from math import lcm
from typing import Sequence

from .errors import (
    ArithmatError,
    DimensionMismatchError,
    DivisibilityError,
    FieldMismatchError,
    ReducibleFormError,
    ZeroDiscriminantError,
)
from .forms import BinaryForm, form_discriminant, irreducibility_certificate
from .polyring import (
    ExactMatrix,
    UniPoly,
    _quotient,
    exact,
    exact_int,
    format_rational,
    parse_rational,
    reduced,
    scaled_coords,
    values,
)


class EssentialPair:
    """An integer scale factor a0 >= 1 together with a binary form."""

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
    """Field context: pair (its scale checked here) and the form's degree."""

    __slots__ = ("pair", "n", "embedding", "_basis", "_trace")

    def __init__(self, pair: EssentialPair):
        check_scale(pair)
        self.pair = pair
        self.n = pair.form.degree
        self.embedding = None  # numeric.EmbeddingData, kept once built
        self._basis = None  # `_basis_rows`, kept once built
        self._trace = None  # the traces of the basis, kept by `integer_trace`

    @property
    def a0(self) -> int:
        return self.pair.a0

    @property
    def disc(self) -> int:
        """The field discriminant: the one the form keeps, over a0^2."""
        # exact: disc B = a2^2 disc(a2, ..., a_{n+1}) (mod a1), so a0^2 | a1
        # and a0 | a2, checked when the field was built, give a0^2 | disc B
        return form_discriminant(self.pair.form) // (self.a0 * self.a0)

    def coeff(self, k: int) -> int:
        """Form coefficient a_k, 1-indexed as written."""
        if not 1 <= k <= self.n + 1:
            raise IndexError(f"coefficient index {k} out of range for a degree-{self.n} field")
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
        if not 0 <= j < self.n:
            raise IndexError(f"basis index {j} out of range for a degree-{self.n} field")
        coords = [0] * self.n
        coords[j] = 1
        return Element(self, coords)


class Element:
    """Coordinate vector over the omega-basis of a field context.

    Stored as integer numerators `num` over one denominator `den` >= 1 with
    gcd(den, *num) = 1, the one form of each value, which equality and hashing
    use; the read-only `coords` builds the exact values on demand.
    `Element(F, coords)` checks outside values, and operations build results
    with `Element.over`.
    The integer matrix (`integer_matrix`) is built on first use and kept.
    """

    __slots__ = ("field", "num", "den", "_rows")

    def __init__(self, field: NumberField, coords: Sequence):
        self._hold(field, *scaled_coords([exact(c) for c in coords]))

    @classmethod
    def over(cls, field: NumberField, num: Sequence[int], den: int) -> Element:
        """The element num / den, den != 0, in lowest terms (`polyring.reduced`)."""
        alpha = cls.__new__(cls)
        alpha._hold(field, *reduced(num, den))
        return alpha

    def _hold(self, field: NumberField, num: Sequence[int], den: int) -> None:
        if len(num) != field.n:
            raise DimensionMismatchError(f"expected {field.n} coordinates, got {len(num)}")
        self.field = field
        self.num = tuple(num)
        self.den = den
        self._rows = None

    @property
    def coords(self) -> tuple:
        """The exact coordinates: ints where integral, else Fractions."""
        return values(self.num, self.den)

    @classmethod
    def from_text(cls, field: NumberField, text: str) -> Element:
        """Parse the 'x0,x1,...' wire format (entries int or p/q)."""
        return cls(field, [parse_rational(t) for t in text.split(",")])

    def text(self) -> str:
        return ",".join(format_rational(c) for c in self.coords)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self) -> str:
        return f"Element({self.text()})"


def common_numerators(elements: Sequence[Element]) -> tuple[list[tuple[int, ...]], int]:
    """The elements' numerators over their least common denominator e."""
    e = lcm(*(alpha.den for alpha in elements))
    return [tuple(x * (e // alpha.den) for x in alpha.num) for alpha in elements], e


def require_same_field(F: NumberField, *elements: Element) -> None:
    """Raise FieldMismatchError unless every element belongs to F."""
    for e in elements:
        if e.field != F:
            raise FieldMismatchError("element belongs to a different field")


def check_scale(pair: EssentialPair) -> None:
    """The discriminant-free conditions, a DivisibilityError each: a0 >= 1,
    a0^2 | a1 and a0 | a2."""
    a0 = pair.a0
    if a0 < 1:
        raise DivisibilityError("a0 must be a positive integer")
    a1, a2 = pair.form.coeffs[0], pair.form.coeffs[1]
    if a1 % (a0 * a0) != 0:
        raise DivisibilityError(f"a0^2 = {a0 * a0} does not divide a1 = {a1}")
    if a2 % a0 != 0:
        raise DivisibilityError(f"a0 = {a0} does not divide a2 = {a2}")


def make_field(pair: EssentialPair) -> NumberField:
    """Validate an essential pair and return the field context.

    Checks, in order: positivity of a0, the divisibility conditions
    a0^2 | a1 and a0 | a2 (`check_scale`, run by `NumberField`), a nonzero
    form discriminant, and irreducibility of the form.  Each failure raises
    its own error type.  Irreducibility is one `irreducibility_certificate`
    call, exact through degree 5; a form it cannot decide "could not be
    certified irreducible".  This is the one validity decision: table
    verification and the CLI build their fields here too.
    """
    F = NumberField(pair)
    if form_discriminant(pair.form) == 0:
        raise ZeroDiscriminantError("form has a repeated root")
    cert = irreducibility_certificate(pair.form)
    if cert is False:
        raise ReducibleFormError("form is reducible over the rationals")
    if cert is None:
        raise ReducibleFormError("form could not be certified irreducible")
    return F


# ----------------------------------------------------------------------
# Arithmetic matrices
# ----------------------------------------------------------------------


def _diagonal_sums(n: int, a, a0: int, xs) -> list[list[int]]:
    """The matrix of coordinates xs at scale a0 by running sums along its diagonals.

    In 1-indexed terms, with t = i - j, a = (a1, ..., a_{n+1}), c1 = a1/a0,
    c11 = a1/a0^2 and c2 = a2/a0: below the diagonal, entry (i, j) is
    L(t, j) = sum_{k<j} a_k x_{k+t-1} with c1 for a1 at t = 1, but column 2
    is L(t, 2) = c1 x_t (c11 x1 at t = 1); one step further the same sum
    gives row 1, -a_{n+1} L(n+1-j, j).  On and above it, entry (i, j) is
    [i = j] x0 minus the suffix sum over k = j..min(n-t, n+1), built from
    j = n downwards; off the diagonal, row 2 multiplies all its terms but
    a_j x1 by a0, and (2, 2) takes c2 for a2.  These are the paper's explicit
    entries (`symbolic`); `_quotient` takes the quotients, so every symbolic
    matrix is built here too.
    """
    c1 = _quotient(a[0], a0)
    c11 = _quotient(a[0], a0 * a0)
    c2 = _quotient(a[1], a0)
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][0] = xs[r]
    last = -a[n]
    rows[0][1] = last * (c11 if n == 2 else c1) * xs[n - 1]
    for t in range(1, n - 1):
        acc = (c1 if t == 1 else a[0]) * xs[t]
        rows[t + 1][1] = (c11 if t == 1 else c1) * xs[t]
        for c in range(2, n - t):
            acc += a[c - 1] * xs[c + t - 1]
            rows[c + t][c] = acc
        rows[0][n - t] = last * (acc + a[n - t - 1] * xs[n - 1])
    for t in range(0, 1 - n, -1):
        acc = a[n] * xs[n + t] if t else 0
        base = xs[0] if t == 0 else 0
        for c in range(n - 1, 1 - t, -1):
            acc += a[c] * xs[c + t]
            rows[c + t][c] = base - acc
        if t == 0:
            rows[1][1] = base - (c2 * xs[1] + acc)
        else:
            rows[1][1 - t] = -(a[1 - t] * xs[1] + a0 * acc)
    return rows


def integer_matrix(F: NumberField, alpha: Element) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Alpha's arithmetic matrix as integer rows over one common denominator d.

    The rows come from the running-sum kernel on alpha's integer numerators,
    in O(n^2) and in one pass for every a0: the pair enters through the exact
    quotients a1/a0, a1/a0^2 and a2/a0, which the field's construction
    checked.  The explicit entry formulas and the substitution route are its
    oracles.  The rows are built on the first call and kept on the element,
    so later calls return the same tuples.  Alpha's field is checked here.
    """
    require_same_field(F, alpha)
    if alpha._rows is None:
        rows = _diagonal_sums(F.n, F.pair.form.coeffs, F.a0, alpha.num)
        alpha._rows = tuple(map(tuple, rows))
    return alpha._rows, alpha.den


def integer_trace(F: NumberField, xs: Sequence[int]) -> int:
    """Trace of the arithmetic matrix on integer coordinates: xs dotted with
    the traces of omega_0 .. omega_{n-1}, which are n, -a2/a0 (a0 | a2
    checked by F) and -j*a_{j+1} for j >= 2, kept on F once built."""
    if F._trace is None:
        a = F.pair.form.coeffs
        F._trace = (F.n, -(a[1] // F.a0)) + tuple(-j * a[j] for j in range(2, F.n))
    return sum(map(operator.mul, F._trace, xs))


def arithmetic_matrix(F: NumberField, alpha: Element, method: str = "explicit") -> ExactMatrix:
    """The n x n multiplication matrix of alpha over the omega-basis.

    Column 1 carries alpha's coordinates; integer coordinates give integer
    entries and conversely.  The default "explicit" is the integer kernel: it
    divides `integer_matrix` by its common denominator.  The "substitution"
    route, which imports `symbolic`, is an independent oracle at every a0 (at
    a0 = 1 it evaluates the paper's formula, which
    `symbolic.matrix_from_coefficients(..., "explicit")` builds at any a0).
    """
    if method != "explicit":
        require_same_field(F, alpha)
        from .symbolic import matrix_from_coefficients

        return matrix_from_coefficients(F.pair.form.coeffs, F.a0, alpha.coords, method)
    rows, d = integer_matrix(F, alpha)
    return ExactMatrix.over(F.n, F.n, [v for row in rows for v in row], d)


# ----------------------------------------------------------------------
# Basis data
# ----------------------------------------------------------------------


def _basis_rows(F: NumberField) -> list[tuple[int, ...]]:
    """Rows 2 .. n of the basis change, row i from its diagonal on:
    a_1, ..., a_{n-i+1}, with a1/a0 for a1 in row 2, an integer because F
    checked a0^2 | a1.  Row 1 is e1: omega_0 = 1, and no other omega_j has a
    constant term.  Built on the first call and kept on F."""
    if F._basis is None:
        a, n = F.pair.form.coeffs, F.n
        F._basis = [(a[0] // F.a0,) + a[1 : n - 1]] + [(a[0],) + a[1 : n - i] for i in range(2, n)]
    return F._basis


def to_power_basis(F: NumberField, xs: Sequence) -> list:
    """The zeta^0 .. zeta^(n-1) coefficients of the element with
    omega-coordinates xs (ints or Fractions): `basis_change_matrix` times xs."""
    rows = _basis_rows(F)
    return [xs[0]] + [sum(map(operator.mul, row, xs[i:])) for i, row in enumerate(rows, 1)]


def from_power_basis(F: NumberField, ys: Sequence[int]) -> list[int]:
    """The integer omega-coordinates of the element with zeta-power
    coefficients ys, by exact back substitution through the triangular basis
    change; ArithmatError when they are not integers."""
    rows, xs = _basis_rows(F), list(ys)
    for i in range(F.n - 1, 0, -1):
        row = rows[i - 1]
        xs[i], rem = divmod(xs[i] - sum(map(operator.mul, row[1:], xs[i + 1 :])), row[0])
        if rem:
            raise ArithmatError("the basis change back to omega-coordinates was not exact")
    return xs


def basis_change_matrix(F: NumberField) -> ExactMatrix:
    """Integer matrix sending omega-basis coordinates to zeta-power coefficients.

    Row 1 is e1; for i >= 2 the (i, j) entry is a_{j-i+1}, with the (2, 2)
    entry scaled to a1/a0 (`_basis_rows`).  The matrix is upper triangular
    and invertible.
    """
    rows = [(0,) * i + row for i, row in enumerate(_basis_rows(F), 1)]
    return ExactMatrix.from_rows([(1,) + (0,) * (F.n - 1)] + rows)


def integral_basis_description(F: NumberField) -> list[UniPoly]:
    """The basis elements written as exact polynomials in zeta."""
    M = basis_change_matrix(F)
    return [UniPoly(M.column(j), "zeta") for j in range(F.n)]
