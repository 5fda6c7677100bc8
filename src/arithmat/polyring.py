"""Exact polynomial arithmetic and exact linear algebra.

Univariate polynomials (UniPoly) are dense coefficient lists.  Every exact
scalar they store passes through `exact`: an integral value is an int, and a
Fraction is made only when a division leaves a remainder; `exact_int` is the
same rule for a value that must be an integer, and raises
NonIntegerEntryError otherwise.  `_Polynomial` gives UniPoly and
`symbolic.MultiPoly` truthiness, `-`, the reflected `+`, `-` and `*`, and
powers by squaring, from each one's own `is_zero`, `+`, unary `-`, `*` and
`_coerce`.  Polynomials display their signed terms through one renderer,
which `symbolic` shares.  ExactMatrix is stored as
field elements are: integer numerators over one denominator, put in lowest
terms by `reduced`, with the exact entries built on demand by `values`.  Its
determinant, inverse and products (`@` and the `fastmul` strategies) run on
the numerators and divide by a power of the denominator once.  A symbolic
matrix holds `SymbolicEntry` values (`symbolic.MultiPoly`, which this module
never imports) over denominator 1; its determinant, inverse and
`fastmul.ww_multiply` raise NonIntegerEntryError naming the operation, and
`symbolic.det_cofactor` expands the determinant.
A product with a symbolic factor multiplies the values, which may then meet
a rational factor's Fractions.  Matrix products and traces add their terms
with plain `sum`, which symbolic entries join through `0 + p`.
Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between threads.  Determinants
and inverses share one fraction-free (Bareiss) elimination over the integers,
and resultants one Bezout determinant; `coeffs_discriminant` picks a form's
discriminant route by degree.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import (
    ArithmatError,
    DimensionMismatchError,
    NonIntegerEntryError,
    NonSquareMatrixError,
    SingularMatrixError,
    UnsupportedDegreeError,
    ZeroPolynomialError,
)

Scalar = Union[int, Fraction]


def _all_int(values) -> bool:
    """True when every value is an int, so none needs normalising or scaling."""
    return {*map(type, values)} <= {int}


def exact(x) -> Scalar:
    """The stored form of an exact value: an int when integral, else a Fraction of ints.

    Any other input (a float, a str such as '3/4', a numpy integer) converts
    exactly through Fraction first.  Fraction keeps a numpy integer's type,
    whose arithmetic overflows silently, so such parts become ints.
    """
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if type(num) is int is type(den):
        return num if den == 1 else x
    return exact(Fraction(int(num), int(den)))


def exact_int(x, what: str) -> int:
    """x as an int; NonIntegerEntryError when its exact value is not an integer."""
    if type(x) is int:
        return x
    v = exact(x)
    if isinstance(v, Fraction):
        raise NonIntegerEntryError(f"{what} {x} is not an integer")
    return v


def _quotient(v, k: int):
    """v / k: an int divided exactly when k divides it (always so for a field's
    pair), else v times Fraction(1, k), so a symbolic v stays exact."""
    if isinstance(v, int) and v % k == 0:
        return v // k
    return v * Fraction(1, k)


def reduced(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den in lowest terms, den != 0: divided by one gcd that takes den's sign."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    return tuple(x // g for x in num) if g != 1 else tuple(num), den // g


def values(num: Sequence, den: int) -> tuple:
    """The values num / den: ints where integral, else Fractions; num itself at den = 1."""
    if den == 1:
        return tuple(num)
    return tuple(Fraction(x, den) if x % den else x // den for x in num)


def parse_rational(text: str) -> Fraction:
    """Parse an integer or 'p/q' token into a Fraction (ValueError when malformed)."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(x: Scalar) -> str:
    """Render an exact value as 'n' or 'p/q'."""
    return str(exact(x))


# ----------------------------------------------------------------------
# Univariate polynomials
# ----------------------------------------------------------------------


class _Polynomial:
    """The ring operators both polynomial types share; a negative power is a ValueError."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        out, base = self._coerce(1), self
        while k > 0:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


class UniPoly(_Polynomial):
    """Dense univariate `_Polynomial` with exact rational coefficients.

    Coefficients are stored low-to-high; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar], var: str = "x"):
        cs = [exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def zero(cls, var: str = "x") -> UniPoly:
        return cls((), var)

    @classmethod
    def constant(cls, c: Scalar, var: str = "x") -> UniPoly:
        return cls((c,), var)

    @classmethod
    def from_text(cls, text: str, var: str = "x") -> UniPoly:
        """Parse the 'c0,c1,...,cd' wire format."""
        return cls([parse_rational(t) for t in text.split(",")], var)

    def text(self) -> str:
        """Serialize as 'c0,c1,...,cd' (low-to-high); zero is '0'."""
        if not self.coeffs:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other, self.var)
        return NotImplemented

    def __hash__(self):
        if self.degree < 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other) -> UniPoly:
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(k) + other.coeff(k) for k in range(n)], self.var
        )

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs], self.var)

    def __mul__(self, other) -> UniPoly:
        other = self._coerce(other)
        return poly_mul_schoolbook(self, other)

    def _coerce(self, other) -> UniPoly:
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other, self.var)

    def __call__(self, x: Scalar):
        """Horner evaluation; works for any value supporting + and *."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return 0 if acc is None else acc

    def derivative(self) -> UniPoly:
        return UniPoly(
            [k * c for k, c in enumerate(self.coeffs)][1:], self.var
        )

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Exact rational division with remainder."""
        if other.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(self.var), self
        quo = [0] * (dq + 1)
        lead = Fraction(other.coeffs[-1])
        for k in range(dq, -1, -1):
            c = exact(rem[k + other.degree] / lead)
            quo[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return UniPoly(quo, self.var), UniPoly(rem, self.var)

    def __repr__(self) -> str:
        return _signed_terms(
            (c, [_power(self.var, k)] if k else [])
            for k, c in reversed(list(enumerate(self.coeffs))) if c
        )


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _signed_terms(terms) -> str:
    """Display nonzero (coefficient, factor names) terms as 'c*f - c*g + ...',
    a unit coefficient left out before factors; no terms display as '0'."""
    parts = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join(factors if mag == 1 and factors else [format_rational(mag), *factors])
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def poly_mul_schoolbook(p: UniPoly, q: UniPoly) -> UniPoly:
    """Exact convolution of coefficient sequences (the quadratic algorithm)."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(out, p.var)


# ----------------------------------------------------------------------
# Exact matrices
# ----------------------------------------------------------------------


class SymbolicEntry(_Polynomial):
    """Base class of the symbolic matrix entries, `symbolic.MultiPoly`."""

    __slots__ = ()


class ExactMatrix:
    """Dense matrix held, row by row, as integer numerators `num` over one
    denominator `den` >= 1 with gcd(den, *num) = 1, which equality and hashing
    use; `entries`, `row`, `column` and `[i, j]` build the values on demand.  A
    symbolic matrix keeps its entries, MultiPoly or exact scalars, over den = 1.
    `ExactMatrix(rows, cols, entries)` checks outside values; integer
    operations build their results with `ExactMatrix.over`."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        den = 1
        if not _all_int(entries):
            entries = [e if isinstance(e, SymbolicEntry) else exact(e) for e in entries]
            if not any(isinstance(e, SymbolicEntry) for e in entries):
                entries, den = scaled_coords(entries)
        self.rows, self.cols, self.num, self.den = rows, cols, tuple(entries), den

    @classmethod
    def over(cls, rows: int, cols: int, num: Sequence[int], den: int) -> ExactMatrix:
        """The rows x cols matrix of integer numerators num / den, den != 0."""
        M = cls.__new__(cls)
        M.rows, M.cols, (M.num, M.den) = rows, cols, reduced(num, den)
        return M

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> ExactMatrix:
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatchError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    def _index_error(self, index: str) -> IndexError:
        return IndexError(f"{index} out of range for a {self.rows}x{self.cols} matrix")

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise self._index_error(f"index ({i}, {j})")
        return self.row(i)[j]

    @property
    def entries(self) -> tuple:
        """The exact entries, row by row."""
        return values(self.num, self.den)

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise self._index_error(f"row {i}")
        return values(self.num[i * self.cols : (i + 1) * self.cols], self.den)

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise self._index_error(f"column {j}")
        return values(self.num[j :: self.cols], self.den)

    @property
    def symbolic(self) -> bool:
        """Whether an entry is symbolic (or a Fraction beside one), so den = 1."""
        return not _all_int(self.num)

    def integer_rows(self, operation: str) -> list[list[int]]:
        """The numerators as rows: the integer matrix A of self = A / den."""
        if self.symbolic:
            raise NonIntegerEntryError(f"symbolic {operation} is not supported")
        return [list(self.num[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.num, self.den) == (other.rows, other.cols, other.num, other.den)

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def _entrywise(self, op, other: ExactMatrix, name: str) -> ExactMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(f"matrix {name} shape mismatch")
        return ExactMatrix(self.rows, self.cols, list(map(op, self.entries, other.entries)))

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        return self._entrywise(operator.add, other, "addition")

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        return self._entrywise(operator.sub, other, "subtraction")

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        """(A / d)(B / e) = AB / (d e), on the numerators; a symbolic factor
        has d = 1 but may meet a rational one, so it multiplies the values."""
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix product shape mismatch")
        symbolic = self.symbolic or other.symbolic
        a, b = (self.entries, other.entries) if symbolic else (self.num, other.num)
        n, p = self.cols, other.cols
        cols = [b[j::p] for j in range(p)]
        out = [sum(map(operator.mul, a[i * n : (i + 1) * n], col)) for i in range(self.rows) for col in cols]
        if symbolic:
            return ExactMatrix(self.rows, p, out)
        return ExactMatrix.over(self.rows, p, out, self.den * other.den)

    def __mul__(self, scalar) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, [e * scalar for e in self.entries])

    __rmul__ = __mul__

    def apply(self, vector: Sequence) -> list:
        """Matrix times column vector, returned as a list."""
        if len(vector) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        return [sum(map(operator.mul, self.row(i), vector)) for i in range(self.rows)]

    def inverse(self, columns: Sequence[int] | None = None) -> ExactMatrix:
        """Exact inverse, or only the listed columns of it, by fraction-free elimination."""
        if not self.is_square():
            raise NonSquareMatrixError("inverse of a non-square matrix")
        rows = self.integer_rows("inverse")
        n = self.rows
        cols = range(n) if columns is None else columns
        for j in cols:
            if not 0 <= j < n:
                raise self._index_error(f"column {j}")
        a = [row + [int(i == j) for j in cols] for i, row in enumerate(rows)]
        if n and _eliminate(a, n) == 0:
            raise SingularMatrixError("matrix is singular")
        det = a[n - 1][n - 1] if n else 1
        # back substitution for det * x, exact in integers (Cramer)
        solutions = []
        for c in range(n, n + len(cols)):
            x = [row[c] for row in a]
            for i in range(n - 1, -1, -1):
                row = a[i]
                x[i] = (det * x[i] - sum(map(operator.mul, row[i + 1 : n], x[i + 1 :]))) // row[i]
            solutions.append(x)
        # self = A / den has the inverse den * A^-1, and each x is det * A^-1 e_j
        return ExactMatrix.over(n, len(cols), [self.den * x[i] for i in range(n) for x in solutions], det)

    def trace(self):
        if not self.is_square():
            raise NonSquareMatrixError("trace of a non-square matrix")
        return sum(self.entries[:: self.cols + 1])

    def __repr__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )


def scaled_coords(coords) -> tuple[list[int], int]:
    """Integer numerators of rational values over their common denominator d."""
    if _all_int(coords):
        return list(coords), 1
    d = lcm(*(c.denominator for c in coords))
    return [c.numerator * (d // c.denominator) for c in coords], d


def _eliminate(a: list[list[int]], n: int) -> int:
    """Bareiss elimination in place on n integer rows, possibly augmented; every
    division is exact.  Returns the determinant of the leading n x n block."""
    sign = 1
    prev = 1
    width = len(a[0]) if a else 0
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rowk = a[k]
        akk = rowk[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, width):
                rowi[j] = (rowi[j] * akk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


_BEZOUT_PLANS: dict[int, list[list[tuple[int, int, int]]]] = {}


def _bezout_plan(m: int) -> list[list[tuple[int, int, int]]]:
    """For each anti-diagonal s of an m x m Bezout matrix, the triples
    (q, s + 1 - q, s - q) over max(0, s - m + 1) <= q <= s // 2: entry
    (q, s - q) takes the q-th term of the running sum, which reads the
    coefficients q and s + 1 - q.  Built once per m."""
    plan = _BEZOUT_PLANS.get(m)
    if plan is None:
        plan = _BEZOUT_PLANS[m] = [
            [(q, s + 1 - q, s - q) for q in range(max(0, s - m + 1), s // 2 + 1)]
            for s in range(2 * m - 1)
        ]
    return plan


def _bezout_det(f, g) -> int:
    """Determinant of the m x m Bezout matrix of integer coefficient lists f
    and g of length m + 1, low-to-high: (-1)^(m(m - 1)/2) lc(f)^(m - k)
    Res(f, g) for deg f = m >= k = deg g (Gelfand, Kapranov and Zelevinsky,
    1994, ch. 12).  Entry (i, j) sums f_{i+j+1-q} g_q - f_q g_{i+j+1-q} over
    q <= min(i, j), a running sum along each anti-diagonal (`_bezout_plan`)."""
    m = len(f) - 1
    rows = [[0] * m for _ in range(m)]
    for diagonal in _bezout_plan(m):
        acc = 0
        for q, r, c in diagonal:
            acc += f[r] * g[q] - f[q] * g[r]
            rows[q][c] = rows[c][q] = acc
    return det_bareiss(rows)


def _subresultant(a, b) -> int:
    """Res(A, B) of integer coefficient lists a and b, highest degree first,
    with nonzero leads and deg A > deg B, by the subresultant PRS (Cohen,
    GTM 138, Alg. 3.3.7, without its content step).  A step of degree drop 1
    forms lb^2 A - (lb a_0 x + c) B, for lb = lc(B) and c = lb a_1 - a_0 b_1,
    and its division by g h in one pass."""
    s = g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        lb = b[0]
        if delta == 1:
            a0 = a[0]
            c, lb2, lba0, gh = lb * a[1] - a0 * b[1], lb * lb, lb * a0, g * h
            b2 = b[2:]
            b2.append(0)
            r = [(lb2 * x - lba0 * y - c * z) // gh for x, y, z in zip(a[2:], b2, b[1:])]
            g = h = lb
        else:  # the pseudo-remainder lb^(delta + 1) A mod B, term by term
            r = list(a)
            for k in range(delta + 1):
                q = r[k]
                r[k + 1 :] = [lb * x - q * y for x, y in zip(r[k + 1 :], b[1:] + [0] * (delta - k))]
            r = [x // (g * h**delta) for x in r[delta + 1 :]]
            g, h = lb, lb**delta // h ** (delta - 1)
        while r and not r[0]:
            r.pop(0)
        if not r:
            return 0
        a, b = b, r
    da = len(a) - 1
    return s * b[0] ** da // h ** (da - 1)


def _quartic_ij(coeffs):
    """I and J of the quartic with coefficients a..e (integers or symbolic).

    They satisfy 4*I^3 - J^2 = 27*disc, which the search solves on; this is
    their one definition, which `covariants` imports.
    """
    a, b, c, d, e = coeffs
    i_inv = 12 * a * e - 3 * b * d + c * c
    j_inv = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return i_inv, j_inv


def coeffs_discriminant(coeffs) -> int:
    """Discriminant of the form F with integer coefficients (a1, ..., a_{n+1}).

    The route depends on the degree n.  Degree 1 gives 1, and degrees
    2 to 4 closed forms, the quartic's (4 I^3 - J^2) / 27; degree 0 or
    none raises `UnsupportedDegreeError`.  From degree 9,
    with a1 != 0, it is (-1)^(n(n - 1)/2) Res(f, f') / a1 for f = F(x, 1).
    Otherwise Res(F_x, F_y) = +-n^(n - 2) disc F for a binary form of degree
    n (Gelfand, Kapranov and Zelevinsky, 1994, ch. 12): `_bezout_det` of
    f = F_x(x, 1) and g = F_y(x, 1), both of length n (the lead of g, a2,
    may be 0), is (-1)^(n - 1) n^(n - 2) disc F.  Degrees 5 to 8 stay on
    this kernel because the traced benchmark reads `det_bareiss` through
    this call (ROADMAP item 17).  The divisions by a1 and
    by n^(n - 2) are always exact, and raise if they are not.
    """
    n = len(coeffs) - 1
    if n == 1:
        return 1
    if n == 2:
        a, b, c = coeffs
        return b * b - 4 * a * c
    if n == 3:
        a, b, c, d = coeffs
        return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if n == 4:
        i_inv, j_inv = _quartic_ij(coeffs)
        return (4 * i_inv**3 - j_inv * j_inv) // 27
    if n >= 9 and coeffs[0]:
        res = _subresultant(coeffs, [(n - k) * a for k, a in enumerate(coeffs[:n])])
        value, rem = divmod(res, coeffs[0])
        if rem:
            raise ArithmatError("discriminant division by a1 was not exact")
        return -value if n * (n - 1) // 2 % 2 else value
    if n < 1:
        raise UnsupportedDegreeError("discriminant needs degree >= 1")
    f = [(n - k) * a for k, a in enumerate(coeffs[:n])][::-1]
    g = [k * a for k, a in enumerate(coeffs) if k][::-1]
    value, rem = divmod(_bezout_det(f, g), n ** (n - 2))
    if rem:
        raise ArithmatError("discriminant division by n^(n-2) was not exact")
    return -value if n % 2 == 0 else value


def det_bareiss(M):
    """Fraction-free determinant of square integer rows (an int; ragged rows
    raise DimensionMismatchError) or of a rational ExactMatrix A / den, which
    is det A / den^n (a Fraction)."""
    if isinstance(M, ExactMatrix):
        if not M.is_square():  # a 0 x k matrix has no row to show its width
            raise NonSquareMatrixError("determinant of a non-square matrix")
        return Fraction(det_bareiss(M.integer_rows("determinant")), M.den**M.rows)
    n = len(M)
    if len({len(row) for row in M}) > 1:
        raise DimensionMismatchError("ragged rows")
    if n and len(M[0]) != n:
        raise NonSquareMatrixError("determinant of a non-square matrix")
    return _eliminate([list(row) for row in M], n)


def det_exact(M):
    """Exact determinant of integer rows or a rational ExactMatrix: `det_bareiss`."""
    return det_bareiss(M)


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of two nonzero polynomials: for deg p = m >= k = deg q (else
    they swap, at the sign (-1)^(m k)) and integral P = c p, Q = e q, it is
    (-1)^(m(m - 1)/2) `_bezout_det`(P, Q) / (lc(P)^(m - k) c^k e^m)."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("resultant needs nonzero polynomials")
    m, k = p.degree, q.degree
    if k > m:
        return (-1) ** (m * k) * resultant(q, p)
    (P, c), (Q, e) = scaled_coords(p.coeffs), scaled_coords(q.coeffs)
    det = _bezout_det(P, Q + [0] * (m - k))
    return Fraction((-1) ** (m * (m - 1) // 2) * det, P[-1] ** (m - k) * c**k * e**m)


def poly_discriminant(p: UniPoly) -> Fraction:
    """Discriminant of a univariate polynomial: that of d*p over d^(2n - 2),
    where d clears the denominators (the discriminant has degree 2n - 2)."""
    n = p.degree
    if p.is_zero():
        raise ZeroPolynomialError("discriminant of the zero polynomial")
    scaled, d = scaled_coords(p.coeffs[::-1])
    return Fraction(coeffs_discriminant(scaled), d ** (2 * n - 2))
