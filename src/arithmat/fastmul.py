"""Fast multiplication: counted matrix products and exact convolution.

The even-dimension matrix algorithm computes AB in m^3/2 + m^2 - m/2 scalar
multiplications by forming, for row i and column j,

    X[i][j] = sum_k (a[i][2k-1] + b[2k][j]) * (a[i][2k] + b[2k-1][j])
    Z[i][j] = sum_k (a[i][2k-1] - b[2k][j]) * (a[i][2k] - b[2k-1][j])

so that X + Z is twice a rank-one correction R_i + S_j and X - (X+Z)/2
recovers AB.  Z is only needed for j in {1, i}; the remaining corrections
follow from Y[i][j] = Y[i][1] + Y[1][j] - Y[1][1].  The recursive variant
splits into half-size blocks and uses the seven-product scheme, padding to an
even dimension at every level.

Polynomial products are exact integer convolutions by Kronecker
substitution: each coefficient sequence is packed into one integer, the two
integers are multiplied once, and the coefficients are read back as signed
digits.  The transform multiplication route maps elements to the power
basis, convolves, pseudo-divides by the defining polynomial and maps back,
all in integers.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ArithmatError, DimensionMismatchError, NonIntegerEntryError
from .field import Element, NumberField, integer_matrix, require_same_field
from .polyring import ExactMatrix, scaled_coords


class MulCounter:
    """Running totals of scalar multiplications and additions."""

    __slots__ = ("scalar_mults", "scalar_adds")

    def __init__(self):
        self.scalar_mults = 0
        self.scalar_adds = 0

    def tally(self, mults: int = 0, adds: int = 0) -> None:
        self.scalar_mults += mults
        self.scalar_adds += adds

    def __repr__(self) -> str:
        return f"MulCounter(mults={self.scalar_mults}, adds={self.scalar_adds})"


def _as_int(v) -> int:
    """An integer entry itself; stored fractions and symbolic entries raise."""
    if type(v) is int:
        return v
    raise NonIntegerEntryError(f"integer algorithm fed the non-integer entry {v!r}")


def _int_rows(M: ExactMatrix) -> list[list[int]]:
    return [[_as_int(e) for e in M.row(i)] for i in range(M.rows)]


def schoolbook_multiply(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Plain cubic matrix product with exact counting (m*n*p multiplications)."""
    if A.cols != B.rows:
        raise DimensionMismatchError("matrix product shape mismatch")
    C = A @ B
    if counter is not None:
        counter.tally(
            mults=A.rows * A.cols * B.cols,
            adds=A.rows * (A.cols - 1) * B.cols,
        )
    return C


def ww_multiply(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Counted even-dimension product; exact on integer matrices.

    The division in the correction step is an exact shift: X + Z is always
    even because the cross terms cancel.  Odd dimensions must be padded by
    the caller.
    """
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DimensionMismatchError("need square matrices of equal dimension")
    m = A.rows
    if m % 2:
        raise DimensionMismatchError("dimension must be even; pad before calling")
    a = _int_rows(A)
    b = _int_rows(B)
    if counter is None:
        counter = MulCounter()
    h = m // 2

    def x_entry(i, j):
        acc = 0
        for k in range(h):
            acc += (a[i][2 * k] + b[2 * k + 1][j]) * (a[i][2 * k + 1] + b[2 * k][j])
        counter.tally(mults=h, adds=3 * h - 1)
        return acc

    def z_entry(i, j):
        acc = 0
        for k in range(h):
            acc += (a[i][2 * k] - b[2 * k + 1][j]) * (a[i][2 * k + 1] - b[2 * k][j])
        counter.tally(mults=h, adds=3 * h - 1)
        return acc

    X = [[x_entry(i, j) for j in range(m)] for i in range(m)]
    Z: dict[tuple[int, int], int] = {}
    Z[0, 0] = z_entry(0, 0)
    for i in range(1, m):
        Z[i, 0] = z_entry(i, 0)
        Z[i, i] = z_entry(i, i)

    Y = [[0] * m for _ in range(m)]
    for (i, j), z in Z.items():
        half, odd = divmod(X[i][j] + z, 2)
        if odd:
            raise ArithmatError("correction term X + Z is odd, so the product is not exact")
        Y[i][j] = half
        counter.tally(adds=1)
    for j in range(1, m):
        Y[0][j] = Y[0][0] + Y[j][j] - Y[j][0]
        counter.tally(adds=2)
    for i in range(1, m):
        for j in range(1, m):
            if i != j:
                Y[i][j] = Y[i][0] + Y[0][j] - Y[0][0]
                counter.tally(adds=2)

    out = [X[i][j] - Y[i][j] for i in range(m) for j in range(m)]
    counter.tally(adds=m * m)
    return ExactMatrix(m, m, out)


def ww_mult_count(m: int) -> int:
    """Scalar multiplications used by ww_multiply at even dimension m."""
    return m**3 // 2 + m * m - m // 2


# -- recursive seven-product variant -----------------------------------


def _blocks(rows, h):
    a11 = [r[:h] for r in rows[:h]]
    a12 = [r[h:] for r in rows[:h]]
    a21 = [r[:h] for r in rows[h:]]
    a22 = [r[h:] for r in rows[h:]]
    return a11, a12, a21, a22


def _badd(A, B, counter):
    counter.tally(adds=len(A) * len(A[0]) if A else 0)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _bsub(A, B, counter):
    counter.tally(adds=len(A) * len(A[0]) if A else 0)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _rec(a, b, counter):
    m = len(a)
    if m <= 2:
        out = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                acc = 0
                for k in range(m):
                    acc += a[i][k] * b[k][j]
                out[i][j] = acc
        counter.tally(mults=m**3, adds=m * m * (m - 1))
        return out
    if m % 2:
        a = [row + [0] for row in a] + [[0] * (m + 1)]
        b = [row + [0] for row in b] + [[0] * (m + 1)]
        return [row[:m] for row in _rec(a, b, counter)[:m]]
    h = m // 2
    a11, a12, a21, a22 = _blocks(a, h)
    b11, b12, b21, b22 = _blocks(b, h)
    s1 = _badd(a21, a22, counter)
    s2 = _bsub(s1, a11, counter)
    s3 = _bsub(a11, a21, counter)
    s4 = _bsub(a12, s2, counter)
    t1 = _bsub(b12, b11, counter)
    t2 = _bsub(b22, t1, counter)
    t3 = _bsub(b22, b12, counter)
    t4 = _bsub(t2, b21, counter)
    p1 = _rec(a11, b11, counter)
    p2 = _rec(a12, b21, counter)
    p3 = _rec(s4, b22, counter)
    p4 = _rec(a22, t4, counter)
    p5 = _rec(s1, t1, counter)
    p6 = _rec(s2, t2, counter)
    p7 = _rec(s3, t3, counter)
    u1 = _badd(p1, p6, counter)
    u2 = _badd(u1, p7, counter)
    u3 = _badd(u1, p5, counter)
    c11 = _badd(p1, p2, counter)
    c12 = _badd(u3, p3, counter)
    c21 = _bsub(u2, p4, counter)
    c22 = _badd(u2, p5, counter)
    return [r1 + r2 for r1, r2 in zip(c11, c12)] + [
        r1 + r2 for r1, r2 in zip(c21, c22)
    ]


def ww_recursive(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Recursive seven-product multiplication for any square dimension.

    The block scheme uses no divisions, so rational entries are accepted.
    """
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DimensionMismatchError("need square matrices of equal dimension")
    if counter is None:
        counter = MulCounter()
    m = A.rows
    if m == 0:
        return ExactMatrix(0, 0, [])
    rows = _rec([list(A.row(i)) for i in range(m)], [list(B.row(i)) for i in range(m)], counter)
    return ExactMatrix(m, m, [e for row in rows for e in row])


# ----------------------------------------------------------------------
# Exact convolution and the transform multiplication route
# ----------------------------------------------------------------------


def exact_convolve(F: list[int], G: list[int]) -> list[int]:
    """Exact integer convolution by Kronecker substitution.

    Every output coefficient is below bound = min(len) * max|F| * max|G| in
    absolute value, so with b = bitlen(bound) + 2 both sequences pack into
    integers at base 2^b, one big-integer product holds the convolution, and
    its signed base-2^b digits are the coefficients.
    """
    F = [_as_int(v) for v in F]
    G = [_as_int(v) for v in G]
    if not F or not G:
        return []
    b = (min(len(F), len(G)) * max(map(abs, F)) * max(map(abs, G))).bit_length() + 2
    packed = 1
    for seq in (F, G):
        acc = 0
        for c in reversed(seq):
            acc = (acc << b) + c
        packed *= acc
    mask, half = (1 << b) - 1, 1 << (b - 1)
    out = []
    for _ in range(len(F) + len(G) - 1):
        digit = packed & mask
        if digit >= half:
            digit -= 1 << b
        out.append(digit)
        packed = (packed - digit) >> b
    return out


def mul_via_fft(F: NumberField, alpha: Element, beta: Element) -> Element:
    """Multiply by converting to the power basis, convolving, and converting back.

    The basis change from omega-coordinates to zeta-power coefficients is
    upper triangular with diagonal 1, a1/a0, a1, ..., a1 and entry a_{j-i+1}
    above it (`field.basis_change_matrix`); a1/a0 is an integer because
    a0^2 | a1.  The integer numerators of both elements are mapped through
    it, convolved exactly, pseudo-reduced modulo f = B(x, 1) with one factor
    a1 per step, and mapped back by exact integer divisions.  The common
    denominator is divided out only in the result's coordinates.
    """
    require_same_field(F, alpha, beta)
    n = F.n
    a = F.pair.form.coeffs
    diag = [1, a[0] // F.a0] + [a[0]] * (n - 2)

    def above(i: int, v: list[int]) -> int:
        """Row i of the basis change applied to v, diagonal left out."""
        return sum(map(operator.mul, a[1 : n - i], v[i + 1 : n])) if i else 0

    xa, da = alpha.integer_coords()
    xb, db = beta.integer_coords()
    prod = exact_convolve(
        [diag[i] * xa[i] + above(i, xa) for i in range(n)],
        [diag[i] * xb[i] + above(i, xb) for i in range(n)],
    )
    scale = da * db
    for top in range(len(prod) - 1, n - 1, -1):
        lead = prod.pop()
        prod = [a[0] * v for v in prod]
        for k in range(1, n + 1):
            prod[top - k] -= lead * a[k]
        scale *= a[0]
    for i in range(n - 1, 0, -1):
        prod[i], rem = divmod(prod[i] - above(i, prod), diag[i])
        if rem:
            raise ArithmatError("the product's basis change back was not exact")
    return Element(F, [Fraction(v, scale) for v in prod])


def batch_multiply(
    F: NumberField,
    alpha: Element,
    betas: list[Element],
    strategy: str = "schoolbook",
    counter: MulCounter | None = None,
) -> list[Element]:
    """Multiply alpha by up to n elements at once as one matrix product.

    The product runs on integers: alpha's integer matrix A over its
    denominator d (`field.integer_matrix`) times U, whose columns are the
    multiplicands' integer numerators over one common denominator e.  The
    result columns are read from A * U and divided by d * e once.
    Strategies: 'schoolbook', 'ww' (even-padded counted algorithm),
    'ww_recursive'.  All strategies agree exactly.
    """
    n = F.n
    if len(betas) > n:
        raise DimensionMismatchError(f"at most {n} multiplicands per batch")
    require_same_field(F, *betas, alpha)
    count = len(betas)
    padded = list(betas) + [F.zero()] * (n - count)
    rows, d = integer_matrix(F, alpha)
    us, e = scaled_coords([padded[j].coords[i] for i in range(n) for j in range(n)])
    N = ExactMatrix.from_rows(rows)
    U = ExactMatrix(n, n, us)
    if strategy == "schoolbook":
        C = schoolbook_multiply(N, U, counter)
    elif strategy == "ww":
        m = n if n % 2 == 0 else n + 1
        if m != n:
            N = _pad_matrix(N, m)
            U = _pad_matrix(U, m)
        C = ww_multiply(N, U, counter)
    elif strategy == "ww_recursive":
        C = ww_recursive(N, U, counter)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return [Element(F, [Fraction(C[i, j], d * e) for i in range(n)]) for j in range(count)]


def _pad_matrix(M: ExactMatrix, m: int) -> ExactMatrix:
    out = []
    for i in range(m):
        for j in range(m):
            out.append(M[i, j] if i < M.rows and j < M.cols else 0)
    return ExactMatrix(m, m, out)
