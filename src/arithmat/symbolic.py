"""Symbolic exact algebra: multivariate polynomials and the paper's entry formulas.

MultiPoly (sparse, with exact coefficients) is the entry type of a symbolic
ExactMatrix, whose determinant is a cofactor expansion.  The paper's explicit
entry formulas and the substitution route (x1 -> x1/a0 in the a0 = 1 matrix,
then conjugation by diag(1, 1/a0, 1, ..., 1)) agree identically: on symbols
they give the symbolic matrices, on numbers the oracles of
`field.integer_matrix`.  The integer path imports this module only on
symbolic use, and polyring sees MultiPoly only through `SymbolicEntry`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import DimensionMismatchError, NonSquareMatrixError, UnsupportedDegreeError
from .polyring import ExactMatrix, Scalar, SymbolicEntry, _power, _quotient, _signed_terms, exact, format_rational

if TYPE_CHECKING:
    from .field import NumberField

# Symbolic matrices use cofactor expansion downstream, so cap the degree.
SYMBOLIC_DEGREE_CAP = 16


def _grlex_key(expt: tuple[int, ...]):
    # graded lexicographic, largest first
    return (-sum(expt), tuple(-e for e in expt))


class MultiPoly(SymbolicEntry):
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


# ----------------------------------------------------------------------
# Matrix entry construction
# ----------------------------------------------------------------------


def _explicit_entry(n: int, a, a0: int, xs):
    """The paper's explicit entries (i, j) -> N[i][j] for any a0; a is 1-indexed, xs 0-indexed.

    The pair enters only through the exact quotients a1/a0, a1/a0^2, a2/a0 and
    a1*a_{n+1}/a0 (a1, a1, a2, a1*a_{n+1} at a0 = 1), so integer coordinates
    give integer entries.
    """
    c1 = _quotient(a[1], a0)
    c11 = _quotient(a[1], a0 * a0)
    c2 = _quotient(a[2], a0)
    c1n = _quotient(a[1] * a[n + 1], a0)

    def entry(i, j):
        if j == 1:
            return xs[i - 1]
        if j == 2:
            if i == 1:
                # at n = 2, x_{n-1} is x1, which the substitution x1 -> x1/a0 also divides
                return -(c11 * a[3] if n == 2 else c1n) * xs[n - 1]
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
        entry = _explicit_entry(n, {k + 1: c for k, c in enumerate(coeffs)}, a0, xs)
        return [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return _entries_substitution(n, coeffs, a0, xs)


def _symbols(count: int, letters: str, prefix: str, first: int) -> list[MultiPoly]:
    """The first `count` letters if there are enough, else indexed names from prefix + first."""
    names = letters[:count] if count <= len(letters) else [f"{prefix}{first + i}" for i in range(count)]
    return [MultiPoly.var(name) for name in names]


def symbolic_coords(n: int) -> list[MultiPoly]:
    """Coordinate symbols: u, x, y, z, w for n <= 5, else x0..x_{n-1}."""
    return _symbols(n, "uxyzw", "x", 0)


def generic_form_coeffs(n: int) -> list[MultiPoly]:
    """Coefficient symbols a..f for n <= 5, else a1..a_{n+1}."""
    return _symbols(n + 1, "abcdef", "a", 1)


def _symbolic_matrix(coeffs, a0: int, method: str) -> ExactMatrix:
    """`matrix_from_coefficients` on the coordinate symbols, up to the degree cap."""
    if len(coeffs) - 1 > SYMBOLIC_DEGREE_CAP:
        raise UnsupportedDegreeError(f"symbolic mode supports degree <= {SYMBOLIC_DEGREE_CAP}")
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
    return ExactMatrix.from_rows(_matrix_rows(n, list(coeffs), a0, list(coords), method))
