"""Property tests: the integer element kernel against independent constructions."""

import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from arithmat import element as el
from arithmat.fastmul import mul_via_fft
from arithmat.field import arithmetic_matrix
from arithmat.polyring import ExactMatrix, MultiPoly, collect_coeffs, det_cofactor

import util


@lru_cache(maxsize=None)
def field(n, a0, seed):
    return util.random_field(random.Random(f"kernel:{n}:{a0}:{seed}"), n, a0=a0)


def coordinates(n, integral):
    if integral:
        entry = st.integers(-12, 12).map(Fraction)
    else:
        entry = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    return st.lists(entry, min_size=n, max_size=n)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 12))
    a0 = draw(st.sampled_from((1, 2, 3)))
    F = field(n, a0, draw(st.integers(0, 2)))
    integral = draw(st.booleans())
    alpha = draw(coordinates(n, integral).filter(any))
    beta = draw(coordinates(n, integral))
    return F, F.element(alpha), F.element(beta)


def cofactor_char_poly(F, alpha):
    """det(lam*I - N) by cofactor expansion of the symbolic matrix."""
    n = F.n
    N = arithmetic_matrix(F, alpha)
    lam = MultiPoly.var("lam")
    entries = [lam * (i == j) - N[i, j] for i in range(n) for j in range(n)]
    det = det_cofactor(ExactMatrix(n, n, entries))
    return [c.constant_value() for c in collect_coeffs(det, "lam")]


@settings(max_examples=80, deadline=None)
@given(cases())
def test_integer_kernel_matches_oracles(case):
    F, alpha, beta = case
    n = F.n
    expected = arithmetic_matrix(F, alpha, method="substitution").apply(list(beta.coords))
    assert el.mul(F, alpha, beta).coords == tuple(expected)
    assert mul_via_fft(F, alpha, beta) == el.mul(F, alpha, beta)
    norm = el.norm(F, alpha)
    assert norm == el.norm_resultant_oracle(F, alpha)
    assert el.mul(F, alpha, el.inverse(F, alpha)) == F.one()
    cp = el.char_poly(F, alpha).coeffs
    assert len(cp) == n + 1 and cp[n] == 1
    assert cp[0] == (-1) ** n * norm
    assert cp[n - 1] == -el.trace(F, alpha)
    if n <= 4:
        assert list(cp) == cofactor_char_poly(F, alpha)
