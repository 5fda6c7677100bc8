"""Property tests: the integer element kernel against independent constructions."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from arithmat import element as el
from arithmat.errors import ArithmatError, DivisibilityError
from arithmat.fastmul import mul_via_fft
from arithmat.field import (
    EssentialPair,
    NumberField,
    arithmetic_matrix,
    integer_matrix,
    matrix_from_coefficients,
)
from arithmat.forms import BinaryForm
from arithmat.numeric import diagonalization_residual
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
    assert el.trace(F, alpha) == arithmetic_matrix(F, alpha, method="substitution").trace()
    if n <= 4:
        assert list(cp) == cofactor_char_poly(F, alpha)


# ----------------------------------------------------------------------
# The running-sum kernel against the explicit formulas and substitution
# ----------------------------------------------------------------------


@st.composite
def raw_pairs(draw):
    """Raw coefficient lists with a0^2 | a1 and a0 | a2, not validated as fields."""
    n = draw(st.integers(2, 16))
    a0 = draw(st.integers(1, 4))
    a1 = draw(st.integers(-6, 6).filter(bool)) * a0 * a0
    a2 = draw(st.integers(-9, 9)) * a0
    rest = draw(st.lists(st.integers(-30, 30), min_size=n - 1, max_size=n - 1))
    last = draw(st.integers(-30, 30).filter(bool))
    coeffs = [a1, a2] + rest[:-1] + [last]
    integral = draw(st.booleans())
    coords = draw(coordinates(n, integral))
    return a0, coeffs, coords


@settings(max_examples=150, deadline=None)
@given(raw_pairs())
def test_kernel_matches_explicit_formulas_and_substitution(case):
    a0, coeffs, coords = case
    n = len(coeffs) - 1
    F = NumberField(EssentialPair(a0, BinaryForm(coeffs)), n, 0)
    rows, d = integer_matrix(F, F.element(coords))
    kernel = [v for row in rows for v in row]
    explicit = matrix_from_coefficients(coeffs, a0, coords, "explicit")
    substituted = matrix_from_coefficients(coeffs, a0, coords, "substitution")
    assert kernel == [d * e for e in explicit.entries]
    assert kernel == [d * e for e in substituted.entries]
    assert all(type(v) is int for v in kernel)


@pytest.mark.parametrize(
    "coeffs, message",
    [([2, -2, -3, 1, 1], "does not divide a1"), ([4, -1, -3, 1, 1], "does not divide a2")],
    ids=["a0^2 does not divide a1", "a0 does not divide a2"],
)
def test_unscaled_pair_raises_from_the_kernel(coeffs, message):
    F = NumberField(EssentialPair(2, BinaryForm(coeffs)), 4, 1)
    for alpha in (F.element([0, 1, 0, 0]), F.one(), F.element([3, 0, 0, 0])):
        with pytest.raises(DivisibilityError, match=message):
            integer_matrix(F, alpha)
        with pytest.raises(DivisibilityError):
            el.mul(F, alpha, alpha)
        assert alpha._rows is None


# ----------------------------------------------------------------------
# The integer form and matrix kept on an element
# ----------------------------------------------------------------------


def _outcome(op, *args):
    """The result of op, or the type and message of the domain error it raised."""
    try:
        return op(*args)
    except ArithmatError as exc:
        return type(exc), str(exc)


_KEPT_OPS = {
    "mul": lambda F, a, b: el.mul(F, a, b),
    "mul_right": lambda F, a, b: el.mul(F, b, a),
    "mul_via_fft": lambda F, a, b: mul_via_fft(F, a, b),
    "norm": lambda F, a, b: el.norm(F, a),
    "inverse": lambda F, a, b: el.inverse(F, a),
    "char_poly": lambda F, a, b: el.char_poly(F, a),
    "trace": lambda F, a, b: el.trace(F, a),
    "arithmetic_matrix": lambda F, a, b: arithmetic_matrix(F, a),
    "diagonalization_residual": lambda F, a, b: diagonalization_residual(F, a),
}


@settings(max_examples=60, deadline=None)
@given(cases(), st.permutations(sorted(_KEPT_OPS)))
def test_kept_matrix_gives_the_results_of_a_fresh_element(case, order):
    F, alpha, beta = case
    for name in order:
        fresh = F.element(alpha.coords)
        kept = _outcome(_KEPT_OPS[name], F, alpha, beta)
        expected = _outcome(_KEPT_OPS[name], F, fresh, beta)
        if isinstance(kept, float):  # residuals must be bit-identical
            assert kept.hex() == expected.hex(), name
        else:
            assert kept == expected, name


def test_element_with_kept_matrix_equals_and_hashes_like_a_fresh_one():
    F = field(5, 2, 0)
    coords = [3, Fraction(-1, 2), 0, 7, Fraction(5, 3)]
    alpha = F.element(coords)
    el.char_poly(F, alpha)
    el.mul(F, F.one(), alpha)
    fresh = F.element(coords)
    assert alpha == fresh and fresh == alpha
    assert hash(alpha) == hash(fresh)
    assert len({alpha, fresh}) == 1


def test_kept_matrix_and_coordinates_cannot_be_changed():
    F = field(4, 3, 1)
    alpha = F.element([2, -1, Fraction(1, 4), 5])
    rows, d = integer_matrix(F, alpha)
    xs, e = alpha.integer_coords()
    before = (el.norm(F, alpha), el.char_poly(F, alpha), el.inverse(F, alpha), el.trace(F, alpha))
    with pytest.raises(TypeError):
        rows[0][0] += 1
    with pytest.raises(TypeError):
        rows[1] = rows[0]
    with pytest.raises(TypeError):
        xs[0] = 0
    copied = [list(row) for row in rows]
    copied[0][0] += 1
    assert integer_matrix(F, alpha) == (rows, d) and alpha.integer_coords() == (xs, e)
    after = (el.norm(F, alpha), el.char_poly(F, alpha), el.inverse(F, alpha), el.trace(F, alpha))
    assert after == before
    fresh = F.element(alpha.coords)
    assert integer_matrix(F, fresh) == (rows, d)
    assert arithmetic_matrix(F, alpha) == arithmetic_matrix(F, fresh)
