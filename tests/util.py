"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import random

from arithmat.field import EssentialPair, NumberField, make_field
from arithmat.forms import (
    BinaryForm,
    _gfp_trim,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from arithmat.errors import ZeroPolynomialError
from arithmat.polyring import ExactMatrix, UniPoly, det_bareiss


def random_pair(rng: random.Random, n: int, a0: int = 1, hi: int = 9) -> EssentialPair:
    """A random validated essential pair of degree n with scale a0.

    Coefficients are kept small so float verification layers stay well
    inside their tolerance budgets.
    """
    while True:
        a1 = rng.randint(1, hi) * a0 * a0
        rest = [rng.randint(-hi, hi) for _ in range(n)]
        rest[0] *= a0
        if rest[-1] == 0:
            continue
        form = BinaryForm([a1] + rest)
        disc = form_discriminant(form)
        if disc == 0 or disc % (a0 * a0):
            continue
        if n <= 5:
            if not is_irreducible(form):
                continue
        elif irreducibility_certificate(form) is not True:
            continue
        return EssentialPair(a0, form)


def random_field(rng: random.Random, n: int, a0: int = 1, hi: int = 9) -> NumberField:
    return make_field(random_pair(rng, n, a0=a0, hi=hi))


def field_pool(
    seed: int,
    degrees=(2, 3, 4, 5, 6),
    per_degree: int = 3,
    scaled=((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)),
) -> list[NumberField]:
    """Deterministic mixed pool: a0 = 1 fields per degree plus scaled pairs."""
    rng = random.Random(seed)
    pool = [random_field(rng, n) for n in degrees for _ in range(per_degree)]
    pool += [random_field(rng, n, a0=a0) for n, a0 in scaled]
    return pool


def random_element(F: NumberField, rng: random.Random, bound: int = 10, nonzero: bool = False):
    while True:
        coords = [rng.randint(-bound, bound) for _ in range(F.n)]
        if not nonzero or any(coords):
            return F.element(coords)


def gfp_mulmod(a, b, f, p):
    """The schoolbook product of a and b modulo the monic f over GF(p), all
    coefficient lists low-to-high: the oracle of the packed product."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # reduce modulo monic f, taking residues once at the end
    df = len(f) - 1
    for k in range(len(out) - 1, df - 1, -1):
        c = out[k] % p
        if c:
            for j in range(df):
                out[k - df + j] -= c * f[j]
    return _gfp_trim([v % p for v in out[:df]])


def _sylvester_rows(pc: list, qc: list) -> list[list]:
    """The Sylvester rows of two coefficient lists, highest degree first:
    deg q shifted copies of pc, then deg p shifted copies of qc."""
    m, l = len(pc) - 1, len(qc) - 1
    return [[0] * i + pc + [0] * (l - 1 - i) for i in range(l)] + [
        [0] * i + qc + [0] * (m - 1 - i) for i in range(m)
    ]


def sylvester_matrix(p: UniPoly, q: UniPoly) -> ExactMatrix:
    """Sylvester matrix of two nonzero polynomials, the resultant's oracle.

    The matrix is (deg p + deg q) square: deg q shifted rows of p's
    coefficients (highest first) followed by deg p shifted rows of q's.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("Sylvester matrix needs nonzero polynomials")
    pc, qc = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    return ExactMatrix.from_rows(_sylvester_rows(pc, qc))


def sylvester_discriminant(coeffs) -> int:
    """The Sylvester route: the determinant of f and f' (highest degree first),
    times (-1)^(n(n-1)/2), over a1."""
    n = len(coeffs) - 1
    deriv = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
    det = det_bareiss(_sylvester_rows(list(coeffs), deriv))
    value, rem = divmod((-1) ** (n * (n - 1) // 2) * det, coeffs[0])
    assert rem == 0
    return value


def bezout_discriminant(coeffs) -> int:
    """The n x n route: the determinant of the Bezout matrix of f = B(x, 1)
    and f', which is a1^2 times the discriminant."""
    n = len(coeffs) - 1
    f = list(coeffs[::-1])
    g = [(k + 1) * c for k, c in enumerate(f[1:])] + [0]
    rows = [[0] * n for _ in range(n)]
    for s in range(2 * n - 1):
        acc = 0
        for q in range(max(0, s - n + 1), s // 2 + 1):
            acc += f[s + 1 - q] * g[q] - f[q] * g[s + 1 - q]
            rows[q][s - q] = rows[s - q][q] = acc
    value, rem = divmod(det_bareiss(rows), coeffs[0] ** 2)
    assert rem == 0
    return value
