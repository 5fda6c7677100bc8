"""Fast multiplication: counted matrix products and exact convolution.

The even-dimension matrix algorithm computes AB in m^3/2 + m^2 - m/2 scalar
multiplications by forming, for row i and column j,

    X[i][j] = sum_k (a[i][2k-1] + b[2k][j]) * (a[i][2k] + b[2k-1][j])
    Z[i][j] = sum_k (a[i][2k-1] - b[2k][j]) * (a[i][2k] - b[2k-1][j])

so that X + Z is twice a rank-one correction R_i + S_j and X - (X+Z)/2
recovers AB.  Z is only needed for j in {1, i}; the remaining corrections
follow from Y[i][j] = Y[i][1] + Y[1][j] - Y[1][1].  The recursive variant
splits into half-size blocks and uses the seven-product scheme, padding to an
even dimension at every level.  Both run on the integer numerators, and
`batch_multiply` picks one, or the schoolbook product, from its strategy table.

Polynomial products are exact integer convolutions by Kronecker substitution
(`exact_convolve`), which the transform multiplication route `mul_via_fft`
runs between `field`'s basis changes.
"""

from __future__ import annotations

import operator

from .errors import ArithmatError, DimensionMismatchError
from .field import Element, NumberField, common_numerators, from_power_basis, integer_matrix
from .field import require_same_field, to_power_basis
from .polyring import ExactMatrix, exact_int


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


def schoolbook_multiply(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Plain cubic matrix product with exact counting (m*n*p multiplications)."""
    C = A @ B
    if counter is not None:
        counter.tally(
            mults=A.rows * A.cols * B.cols,
            adds=A.rows * (A.cols - 1) * B.cols,
        )
    return C


def _square_pair(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None) -> tuple[int, MulCounter]:
    """The dimension of a pair of square matrices of equal dimension, and the counter to tally on."""
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DimensionMismatchError("need square matrices of equal dimension")
    return A.rows, MulCounter() if counter is None else counter


def ww_multiply(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Counted even-dimension product, run on the integer numerators.

    With A = a / d and B = b / e, the product is ab over d * e.  The division
    in the correction step is an exact shift: X + Z is always even because
    the cross terms cancel.  Odd dimensions must be padded by the caller.
    """
    m, counter = _square_pair(A, B, counter)
    if m % 2:
        raise DimensionMismatchError("dimension must be even; pad before calling")
    a = A.integer_rows("product")
    b = B.integer_rows("product")
    h = m // 2

    def entry(i, j, sign):
        # X at sign = 1, Z at sign = -1
        acc = 0
        for k in range(h):
            acc += (a[i][2 * k] + sign * b[2 * k + 1][j]) * (a[i][2 * k + 1] + sign * b[2 * k][j])
        counter.tally(mults=h, adds=3 * h - 1)
        return acc

    X = [[entry(i, j, 1) for j in range(m)] for i in range(m)]
    Z = {(i, j): entry(i, j, -1) for i in range(m) for j in {0, i}}

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
    return ExactMatrix.over(m, m, out, A.den * B.den)


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


def _bsum(A, B, sign, counter):
    """A + B at sign = 1, A - B at sign = -1, blockwise."""
    counter.tally(adds=len(A) * len(A[0]) if A else 0)
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _rec(a, b, counter):
    m = len(a)
    if m <= 2:
        out = [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]
        counter.tally(mults=m**3, adds=m * m * (m - 1))
        return out
    if m % 2:
        a = [row + [0] for row in a] + [[0] * (m + 1)]
        b = [row + [0] for row in b] + [[0] * (m + 1)]
        return [row[:m] for row in _rec(a, b, counter)[:m]]
    h = m // 2
    a11, a12, a21, a22 = _blocks(a, h)
    b11, b12, b21, b22 = _blocks(b, h)
    s1 = _bsum(a21, a22, 1, counter)
    s2 = _bsum(s1, a11, -1, counter)
    s3 = _bsum(a11, a21, -1, counter)
    s4 = _bsum(a12, s2, -1, counter)
    t1 = _bsum(b12, b11, -1, counter)
    t2 = _bsum(b22, t1, -1, counter)
    t3 = _bsum(b22, b12, -1, counter)
    t4 = _bsum(t2, b21, -1, counter)
    p1 = _rec(a11, b11, counter)
    p2 = _rec(a12, b21, counter)
    p3 = _rec(s4, b22, counter)
    p4 = _rec(a22, t4, counter)
    p5 = _rec(s1, t1, counter)
    p6 = _rec(s2, t2, counter)
    p7 = _rec(s3, t3, counter)
    u1 = _bsum(p1, p6, 1, counter)
    u2 = _bsum(u1, p7, 1, counter)
    u3 = _bsum(u1, p5, 1, counter)
    c11 = _bsum(p1, p2, 1, counter)
    c12 = _bsum(u3, p3, 1, counter)
    c21 = _bsum(u2, p4, -1, counter)
    c22 = _bsum(u2, p5, 1, counter)
    return [r1 + r2 for r1, r2 in zip(c11, c12)] + [
        r1 + r2 for r1, r2 in zip(c21, c22)
    ]


def ww_recursive(A: ExactMatrix, B: ExactMatrix, counter: MulCounter | None = None) -> ExactMatrix:
    """Recursive seven-product multiplication for any square dimension.

    The block scheme uses no divisions: it runs on the integer numerators
    and divides by the product of the denominators once, and a symbolic
    matrix (den = 1) goes through it on its values.
    """
    m, counter = _square_pair(A, B, counter)
    if A.symbolic or B.symbolic:
        rows = _rec([list(A.row(i)) for i in range(m)], [list(B.row(i)) for i in range(m)], counter)
        return ExactMatrix.from_rows(rows)
    rows = _rec(A.integer_rows("product"), B.integer_rows("product"), counter)
    return ExactMatrix.over(m, m, [x for row in rows for x in row], A.den * B.den)


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
    F = [exact_int(v, "coefficient") for v in F]
    G = [exact_int(v, "coefficient") for v in G]
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

    The integer numerators of both elements are mapped to zeta-power
    coefficients (`field.to_power_basis`), convolved exactly, pseudo-reduced
    modulo f = B(x, 1) with one factor a1 per step, and mapped back by exact
    back substitution (`field.from_power_basis`).  The result is those
    integers over the product of both denominators and the factors a1.
    """
    require_same_field(F, alpha, beta)
    n, a = F.n, F.pair.form.coeffs
    prod = exact_convolve(to_power_basis(F, alpha.num), to_power_basis(F, beta.num))
    scale = alpha.den * beta.den
    for top in range(len(prod) - 1, n - 1, -1):
        lead = prod.pop()
        prod = [a[0] * v for v in prod]
        for k in range(1, n + 1):
            prod[top - k] -= lead * a[k]
        scale *= a[0]
    return Element.over(F, from_power_basis(F, prod), scale)


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
    Strategies: 'schoolbook', 'ww' (counted, zero-padded to an even
    dimension), 'ww_recursive'.  All strategies agree exactly.
    """
    n = F.n
    if len(betas) > n:
        raise DimensionMismatchError(f"at most {n} multiplicands per batch")
    require_same_field(F, *betas)
    count = len(betas)
    rows, d = integer_matrix(F, alpha)
    columns, e = common_numerators(betas)
    m = n + n % 2 if strategy == "ww" else n
    rows = [(*row, *[0] * (m - n)) for row in rows] + [(0,) * m] * (m - n)
    columns = [(*c, *[0] * (m - n)) for c in columns] + [(0,) * m] * (m - count)
    N = ExactMatrix.from_rows(rows)
    U = ExactMatrix.from_rows(list(zip(*columns)))
    # the strategy table, built per call so it holds the module's current products
    product = {"schoolbook": schoolbook_multiply, "ww": ww_multiply, "ww_recursive": ww_recursive}.get(strategy)
    if product is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    C = product(N, U, counter)
    return [Element.over(F, C.column(j)[:n], d * e) for j in range(count)]
