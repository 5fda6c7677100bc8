"""Symbolic exact algebra: multivariate polynomials, symbolic matrices and the paper's entry formulas.

MultiPoly (sparse, with exact coefficients) is the entry type of a symbolic
ExactMatrix, whose determinant is a cofactor expansion.  It has one stored
form, known only to this module: its terms are keyed by monomials, name-sorted
tuples of (name, exponent) pairs with positive exponents, so equal polynomials
are stored alike whatever variables built them.  The symbolic matrices are
`field`'s running-sum kernel on symbols.  The paper's explicit entry formulas
and the substitution route are only its oracles, `matrix_from_coefficients`
is the one entry to both, and polyring never imports this module.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import DimensionMismatchError, NonSquareMatrixError, UnsupportedDegreeError
from .polyring import ExactMatrix, Scalar, SymbolicEntry, _power, _quotient, _signed_terms, exact, format_rational

if TYPE_CHECKING:
    from .field import NumberField

# Symbolic matrices use cofactor expansion downstream, so cap the degree.
SYMBOLIC_DEGREE_CAP = 16

# A monomial: name-sorted (name, exponent) pairs, every exponent > 0; () is 1.
Monomial = tuple[tuple[str, int], ...]


def _monomial_product(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1 or not m2:
        return m1 or m2
    powers = dict(m1)
    for v, e in m2:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items()))


class MultiPoly(SymbolicEntry):
    """Sparse multivariate `polyring._Polynomial` with exact coefficients.

    `terms` maps each monomial (a name-sorted tuple of (name, exponent)
    pairs, exponents > 0, and () for the constant) to its nonzero
    coefficient.  That is the one stored form: equal polynomials have equal
    `terms` and hashes (a constant hashes as its value) whatever variables
    built them, so polynomials over different variables combine with no
    alignment, and `vars` lists the names that occur.  The constructor's input
    format is exponent tuples aligned to `variables`.
    """

    __slots__ = ("terms",)

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Scalar]):
        vs = tuple(variables)
        clean: dict[Monomial, Scalar] = {}
        for expt, c in terms.items():
            expt = tuple(expt)
            if len(expt) != len(vs):
                raise DimensionMismatchError(
                    f"exponent tuple {expt} does not match variables {vs}"
                )
            if min(expt, default=0) < 0:
                raise ValueError(f"negative exponent in {expt}")
            mono: Monomial = ()
            for v, e in zip(vs, expt):
                if e:
                    mono = _monomial_product(mono, ((v, e),))
            clean[mono] = clean.get(mono, 0) + exact(c)
        self.terms = {m: exact(c) for m, c in clean.items() if c}

    @classmethod
    def _of(cls, terms: Mapping[Monomial, Scalar]) -> MultiPoly:
        """The polynomial with these monomial-keyed terms; zero coefficients are dropped."""
        p = object.__new__(cls)
        p.terms = {m: exact(c) for m, c in terms.items() if c}
        return p

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> MultiPoly:
        return cls._of({(): c})

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        return cls._of({((name, 1),): 1})

    @classmethod
    def variables(cls, names: str | Iterable[str]) -> list[MultiPoly]:
        """Convenience: MultiPoly.variables('a b c') -> [a, b, c]."""
        if isinstance(names, str):
            names = names.split()
        return [cls.var(n) for n in names]

    # -- structure -----------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        """The sorted names that occur in some term."""
        return tuple(sorted({v for m in self.terms for v, _ in m}))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        return max((e for m in self.terms for v, e in m if v == name), default=0)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial (raises if non-constant)."""
        if self.terms.keys() - {()}:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def is_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() - {()}:
            return hash(frozenset(self.terms.items()))
        return hash(self.constant_value())

    def __add__(self, other) -> MultiPoly:
        terms = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return MultiPoly._of(terms)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = exact(other)
            return MultiPoly._of({m: c * other for m, c in self.terms.items()})
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _monomial_product(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return MultiPoly._of(terms)

    def __truediv__(self, scalar) -> MultiPoly:
        s = Fraction(scalar)
        return MultiPoly._of({m: c / s for m, c in self.terms.items()})

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a rational point; every variable that occurs must be assigned."""
        vals = {v: exact(point[v]) for v in self.vars}
        return exact(sum(c * prod(vals[v] ** e for v, e in m) for m, c in self.terms.items()))

    def subs(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> MultiPoly:
        """Substitute polynomials (or scalars) for some of the variables."""
        images = {
            name: (val if isinstance(val, MultiPoly) else MultiPoly.const(val))
            for name, val in mapping.items()
        }
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            term = MultiPoly._of({tuple(f for f in m if f[0] not in images): c})
            for v, e in m:
                if v in images:
                    term = term * images[v] ** e
            for mono, coeff in term.terms.items():
                out[mono] = out.get(mono, 0) + coeff
        return MultiPoly._of(out)

    def diff(self, name: str) -> MultiPoly:
        """Partial derivative with respect to one variable."""
        terms = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == name:
                    lowered = ((v, e - 1),) if e > 1 else ()
                    terms[m[:i] + lowered + m[i + 1 :]] = c * e
        return MultiPoly._of(terms)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in graded-lexicographic order over the sorted names that occur, largest first."""
        names = self.vars

        def key(item):
            powers = dict(item[0])
            return (-sum(powers.values()), tuple(-powers.get(v, 0) for v in names))

        return sorted(self.terms.items(), key=key)

    def serialize(self) -> str:
        """Canonical wire format: sorted 'coeff*v^e*...' terms joined by '+'."""
        if not self.terms:
            return "0"
        return "+".join(
            "*".join([format_rational(c)] + [f"{v}^{e}" for v, e in m])
            for m, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return _signed_terms(
            (c, [_power(v, e) for v, e in m]) for m, c in self.sorted_terms()
        )


def collect_coeffs(p: MultiPoly, var: str) -> list[MultiPoly]:
    """Split p into coefficients of powers of var: p = sum c_i * var^i.

    The returned polynomials no longer mention var; a p without var is [p].
    """
    buckets: list[dict[Monomial, Scalar]] = [{} for _ in range(p.degree_in(var) + 1)]
    for m, c in p.terms.items():
        buckets[dict(m).get(var, 0)][tuple(f for f in m if f[0] != var)] = c
    return [MultiPoly._of(b) for b in buckets]


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


def _symbolic_matrix(coeffs, a0: int) -> ExactMatrix:
    """The running-sum kernel on the coordinate symbols, up to the degree cap."""
    from .field import _diagonal_sums

    n = len(coeffs) - 1
    if n > SYMBOLIC_DEGREE_CAP:
        raise UnsupportedDegreeError(f"symbolic mode supports degree <= {SYMBOLIC_DEGREE_CAP}")
    return ExactMatrix.from_rows(_diagonal_sums(n, coeffs, a0, symbolic_coords(n)))


def symbolic_arithmetic_matrix(F: NumberField) -> ExactMatrix:
    """Arithmetic matrix of F with symbolic coordinates (concrete coefficients)."""
    return _symbolic_matrix(F.pair.form.coeffs, F.a0)


def generic_arithmetic_matrix(n: int, a0: int = 1) -> ExactMatrix:
    """Fully symbolic arithmetic matrix: generic coefficients and coordinates."""
    return _symbolic_matrix(generic_form_coeffs(n), a0)


def matrix_from_coefficients(coeffs, a0: int = 1, coords=None, method: str = "explicit") -> ExactMatrix:
    """The oracle entry: a matrix for raw coefficient values, without field validation.

    "explicit" runs the paper's entry formulas at a0, "substitution" runs them
    at a0 = 1 on x1/a0 and conjugates by diag(1, 1/a0, 1, ..., 1); never the
    kernel, on numbers or symbols alike.  Coordinates default to the symbols.
    """
    n = len(coeffs) - 1
    if coords is None:
        coords = symbolic_coords(n)
    if len(coords) != n:
        raise DimensionMismatchError(f"expected {n} coordinates")
    if method not in ("explicit", "substitution"):
        raise ValueError(f"unknown construction method {method!r}")
    xs = list(coords)
    substitute = method == "substitution" and a0 != 1
    if substitute:
        xs[1] = xs[1] * Fraction(1, a0)
    entry = _explicit_entry(n, {k + 1: c for k, c in enumerate(coeffs)}, 1 if substitute else a0, xs)
    rows = [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    if substitute:
        rows[1] = [v * a0 for v in rows[1]]
        for row in rows:
            row[1] = row[1] * Fraction(1, a0)
    return ExactMatrix.from_rows(rows)
