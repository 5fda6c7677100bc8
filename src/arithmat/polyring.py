"""Exact polynomial arithmetic and exact linear algebra.

Univariate polynomials (UniPoly) are dense coefficient lists, multivariate
polynomials (MultiPoly) are sparse maps from exponent tuples to
coefficients, and ExactMatrix is a dense matrix whose entries are exact
scalars or MultiPoly values (symbolic mode).  Every stored exact value
passes through `exact`: an integral value is an int, and a Fraction is made
only when a division leaves a remainder.  Integer inputs therefore stay in
int arithmetic throughout, and the only true divisions (`UniPoly.divmod`,
`MultiPoly.__truediv__`) divide as Fractions before normalising; `exact_int`
is the same rule for a value that must be an integer, and raises
NonIntegerEntryError otherwise.  Both polynomial kinds display their signed
terms through one renderer, and matrix products, traces and cofactor
determinants add their terms with plain `sum`, which MultiPoly entries join
through `0 + p`.
Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between threads.
Determinants and inverses share one fraction-free (Bareiss) elimination
over the integers; the integer discriminant is the determinant of the n x n
Bezout matrix of f and f', and the Sylvester matrix serves `resultant`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ArithmatError,
    DimensionMismatchError,
    NonIntegerEntryError,
    NonSquareMatrixError,
    SingularMatrixError,
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


class UniPoly:
    """Dense univariate polynomial with exact rational coefficients.

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
    def x(cls, var: str = "x") -> UniPoly:
        return cls((0, 1), var)

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other, self.var)
        return NotImplemented

    def __hash__(self):
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

    def __radd__(self, other) -> UniPoly:
        return self + other

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other) -> UniPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> UniPoly:
        return (-self) + other

    def __mul__(self, other) -> UniPoly:
        other = self._coerce(other)
        return poly_mul_schoolbook(self, other)

    def __rmul__(self, other) -> UniPoly:
        return self * other

    def __pow__(self, k: int) -> UniPoly:
        out = UniPoly.constant(1, self.var)
        for _ in range(k):
            out = out * self
        return out

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
    if p.is_zero() or q.is_zero():
        return UniPoly.zero(p.var)
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(out, p.var)


# ----------------------------------------------------------------------
# Multivariate polynomials
# ----------------------------------------------------------------------


def _grlex_key(expt: tuple[int, ...]):
    # graded lexicographic, largest first
    return (-sum(expt), tuple(-e for e in expt))


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients.

    Variables are kept as a sorted tuple of names; terms map exponent tuples
    (aligned with the variable tuple) to nonzero coefficients.  Binary
    operations align the two variable sets by union, so polynomials over
    different variables combine transparently.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Scalar]):
        vs = tuple(sorted(variables))
        clean: dict[tuple[int, ...], Scalar] = {}
        for expt, c in terms.items():
            c = exact(c)
            if c == 0:
                continue
            expt = tuple(expt)
            if len(expt) != len(vs):
                raise DimensionMismatchError(
                    f"exponent tuple {expt} does not match variables {vs}"
                )
            clean[expt] = c
        self.vars = vs
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, c: Scalar, variables: Iterable[str] = ()) -> MultiPoly:
        vs = tuple(sorted(variables))
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        return cls((name,), {(1,): 1})

    @classmethod
    def variables(cls, names: str | Iterable[str]) -> list[MultiPoly]:
        """Convenience: MultiPoly.variables('a b c') -> [a, b, c]."""
        if isinstance(names, str):
            names = names.split()
        return [cls.var(n) for n in names]

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.terms:
            return 0
        if self.total_degree() > 0:
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def is_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def _aligned(self, other: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
        if self.vars == other.vars:
            return self, other
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return self._embed(union), other._embed(union)

    def _embed(self, union: tuple[str, ...]) -> MultiPoly:
        if self.vars == union:
            return self
        pos = [union.index(v) for v in self.vars]
        terms = {}
        for expt, c in self.terms.items():
            new = [0] * len(union)
            for p, e in zip(pos, expt):
                new[p] = e
            terms[tuple(new)] = c
        return MultiPoly(union, terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(other, self.vars)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        stripped = self.strip_unused()
        return hash((stripped.vars, tuple(sorted(stripped.terms.items()))))

    def __add__(self, other) -> MultiPoly:
        a, b = self._aligned(self._coerce(other))
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly(a.vars, terms)

    def __radd__(self, other) -> MultiPoly:
        return self + other

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        a, b = self._aligned(other)
        terms: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(a.vars, terms)

    def __rmul__(self, other) -> MultiPoly:
        return self * other

    def __truediv__(self, scalar) -> MultiPoly:
        s = Fraction(scalar)
        return MultiPoly(self.vars, {e: c / s for e, c in self.terms.items()})

    def __pow__(self, k: int) -> MultiPoly:
        out = MultiPoly.const(1, self.vars)
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a rational point; every variable must be assigned."""
        vals = [exact(point[v]) for v in self.vars]
        total = 0
        for expt, c in self.terms.items():
            term = c
            for v, e in zip(vals, expt):
                if e:
                    term *= v**e
            total += term
        return exact(total)

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> MultiPoly:
        """Substitute polynomials (or scalars) for some of the variables."""
        images = {
            name: (val if isinstance(val, MultiPoly) else MultiPoly.const(val))
            for name, val in mapping.items()
        }
        keep = [v for v in self.vars if v not in images]
        out = MultiPoly.const(0, keep)
        for expt, c in self.terms.items():
            term = MultiPoly.const(c, keep)
            for v, e in zip(self.vars, expt):
                if not e:
                    continue
                factor = images.get(v, MultiPoly.var(v))
                term = term * factor**e
            out = out + term
        return out

    def diff(self, name: str) -> MultiPoly:
        """Partial derivative with respect to one variable."""
        if name not in self.vars:
            return MultiPoly.const(0, self.vars)
        i = self.vars.index(name)
        terms = {}
        for expt, c in self.terms.items():
            if expt[i] == 0:
                continue
            new = list(expt)
            new[i] -= 1
            terms[tuple(new)] = c * expt[i]
        return MultiPoly(self.vars, terms)

    def strip_unused(self) -> MultiPoly:
        """Drop variables that appear in no term."""
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        vs = tuple(self.vars[i] for i in used)
        return MultiPoly(vs, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    # -- rendering -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms in graded-lexicographic order, largest first."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def serialize(self) -> str:
        """Canonical wire format: sorted 'coeff*v^e*...' terms joined by '+'."""
        if not self.terms:
            return "0"
        parts = []
        for expt, c in self.sorted_terms():
            factors = [format_rational(c)]
            factors += [f"{v}^{e}" for v, e in zip(self.vars, expt) if e]
            parts.append("*".join(factors))
        return "+".join(parts)

    def __repr__(self) -> str:
        return _signed_terms(
            (c, [_power(v, e) for v, e in zip(self.vars, expt) if e])
            for expt, c in self.sorted_terms()
        )


def collect_coeffs(p: MultiPoly, var: str) -> list[MultiPoly]:
    """Split p into coefficients of powers of var: p = sum c_i * var^i.

    The returned polynomials no longer mention var.  Raises on an unknown
    variable name.
    """
    if var not in p.vars:
        raise DimensionMismatchError(f"unknown variable {var!r}")
    i = p.vars.index(var)
    rest = tuple(v for v in p.vars if v != var)
    d = p.degree_in(var)
    buckets: list[dict[tuple[int, ...], Scalar]] = [dict() for _ in range(d + 1)]
    for expt, c in p.terms.items():
        stripped = tuple(e for j, e in enumerate(expt) if j != i)
        buckets[expt[i]][stripped] = c
    return [MultiPoly(rest, b) for b in buckets]


# ----------------------------------------------------------------------
# Exact matrices
# ----------------------------------------------------------------------


class ExactMatrix:
    """Dense matrix of exact scalars, or of MultiPoly entries in symbolic mode."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        if _all_int(entries):
            self.entries = tuple(entries)
        else:
            self.entries = tuple(
                e if isinstance(e, MultiPoly) else exact(e) for e in entries
            )

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

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_symbolic(self) -> bool:
        return any(isinstance(e, MultiPoly) for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix addition shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix subtraction shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix product shape mismatch")
        cols = [other.column(j) for j in range(other.cols)]
        out = [sum(map(operator.mul, self.row(i), col)) for i in range(self.rows) for col in cols]
        return ExactMatrix(self.rows, other.cols, out)

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
        if self.is_symbolic():
            raise NonSquareMatrixError("symbolic inverse is not supported")
        n = self.rows
        cols = range(n) if columns is None else columns
        rows, scales = _integer_rows(self)
        # with S = diag(scales), A^-1 e_j = (S A)^-1 (scales[j] e_j)
        a = [row + [scales[i] * (i == j) for j in cols] for i, row in enumerate(rows)]
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
        return ExactMatrix(n, len(cols), [Fraction(x[i], det) for i in range(n) for x in solutions])

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


def _integer_rows(M: ExactMatrix) -> tuple[list[list[int]], list[int]]:
    """Rows scaled to integers by the lcm of their denominators, and the scales."""
    rows, scales = [], []
    for i in range(M.rows):
        row, scale = scaled_coords(M.row(i))
        rows.append(row)
        scales.append(scale)
    return rows, scales


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


def _sylvester_rows(pc: list, qc: list) -> list[list]:
    """The Sylvester rows of two coefficient lists, highest degree first:
    deg q shifted copies of pc, then deg p shifted copies of qc."""
    m, l = len(pc) - 1, len(qc) - 1
    return [[0] * i + pc + [0] * (l - 1 - i) for i in range(l)] + [
        [0] * i + qc + [0] * (m - 1 - i) for i in range(m)
    ]


def coeffs_discriminant(coeffs) -> int:
    """Discriminant of the form with integer coefficients (a1, ..., a_{n+1}).

    The determinant of the n x n Bezout matrix of f = B(x, 1) and g = f',
    which is a1^2 times the discriminant; that division is always exact, and
    raises if it is not.  With f_k, g_k the coefficients of x^k, entry (i, j)
    sums f_{i+j+1-q} g_q - f_q g_{i+j+1-q} over q <= min(i, j), so each
    anti-diagonal i + j = s is one running sum over q.
    """
    n = len(coeffs) - 1
    f = coeffs[::-1]
    g = [(k + 1) * c for k, c in enumerate(f[1:])] + [0]
    rows = [[0] * n for _ in range(n)]
    for s in range(2 * n - 1):
        acc = 0
        for q in range(max(0, s - n + 1), s // 2 + 1):
            acc += f[s + 1 - q] * g[q] - f[q] * g[s + 1 - q]
            rows[q][s - q] = rows[s - q][q] = acc
    value, rem = divmod(det_bareiss(rows), coeffs[0] ** 2)
    if rem:
        raise ArithmatError("discriminant division by a1^2 was not exact")
    return value


def det_bareiss(M):
    """Fraction-free determinant of square integer rows (an int) or of a
    rational ExactMatrix, whose rows are scaled to integers first (a Fraction)."""
    if not isinstance(M, ExactMatrix):
        return _eliminate([list(row) for row in M], len(M))
    if not M.is_square():
        raise NonSquareMatrixError("determinant of a non-square matrix")
    rows, scales = _integer_rows(M)
    return Fraction(_eliminate(rows, M.rows), prod(scales))


def det_cofactor(M: ExactMatrix):
    """Cofactor-expansion determinant; works for symbolic (MultiPoly) entries."""
    if not M.is_square():
        raise NonSquareMatrixError("determinant of a non-square matrix")
    n = M.rows
    rows = [list(M.row(i)) for i in range(n)]

    def det(cols: tuple[int, ...], r: int):
        if not cols:
            return 1
        return sum(
            (-1) ** pos * (e * det(cols[:pos] + cols[pos + 1 :], r + 1))
            for pos, c in enumerate(cols) if (e := rows[r][c])
        )

    return det(tuple(range(n)), 0)


def det_exact(M):
    """Exact determinant: Bareiss for integer rows or rational entries, cofactor for symbolic."""
    if isinstance(M, ExactMatrix) and M.is_symbolic():
        return det_cofactor(M)
    return det_bareiss(M)


def sylvester_matrix(p: UniPoly, q: UniPoly) -> ExactMatrix:
    """Sylvester matrix of two nonzero polynomials.

    The matrix is (deg p + deg q) square: deg q shifted rows of p's
    coefficients (highest first) followed by deg p shifted rows of q's.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("Sylvester matrix needs nonzero polynomials")
    pc, qc = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    return ExactMatrix.from_rows(_sylvester_rows(pc, qc))


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of p and q, the exact determinant of their Sylvester matrix."""
    return det_bareiss(sylvester_matrix(p, q))


def poly_discriminant(p: UniPoly) -> Fraction:
    """Discriminant of a univariate polynomial: that of d*p over d^(2n - 2),
    where d clears the denominators (the discriminant has degree 2n - 2)."""
    n = p.degree
    if n < 1:
        raise ZeroPolynomialError("discriminant needs degree >= 1")
    scaled, d = scaled_coords(p.coeffs[::-1])
    return Fraction(coeffs_discriminant(scaled), d ** (2 * n - 2))
