"""Guards that no other test reaches: each raises its typed error with its message.

A CLI case is an argv, which must exit 2 and print the error on stderr; any
other case is a call, which must raise exactly that type with that message.
"""

import pytest

from arithmat import covariants, fastmul
from arithmat.cli import run_command
from arithmat.errors import (
    ArithmatError,
    DimensionMismatchError,
    FieldMismatchError,
    NonSquareMatrixError,
    UnsupportedDegreeError,
    ZeroPolynomialError,
)
from arithmat.field import EssentialPair, arithmetic_matrix, make_field
from arithmat.polyring import ExactMatrix, UniPoly
from arithmat.symbolic import MultiPoly, det_cofactor, matrix_from_coefficients


def _field(text):
    return make_field(EssentialPair.from_text(text))


def _matrix(rows, cols):
    return ExactMatrix(rows, cols, list(range(1, rows * cols + 1)))


def _batch_with_unknown_strategy(betas=lambda F: [F.one()], strategy="strassen"):
    F = _field("1:1,1,-1")
    return fastmul.batch_multiply(F, F.one(), betas(F), strategy=strategy)


def _foreign_element():
    return _field("1:1,1,0,-2,-1").one()


_CASES = [
    pytest.param(["bench", "--algo", "ww", "--size", "5"], ArithmatError,
                 "ww needs an even size; use recursive for odd", id="cli-bench-ww-odd"),
    pytest.param(lambda: covariants.quartic_subform(_field("1:1,1,-2,-1"), 2, 3),
                 UnsupportedDegreeError, "subforms are a quartic construction",
                 id="quartic_subform-cubic"),
    pytest.param(_batch_with_unknown_strategy, ValueError, "unknown strategy 'strassen'",
                 id="batch_multiply-strategy"),
    pytest.param(lambda: fastmul.schoolbook_multiply(_matrix(2, 3), _matrix(2, 3)),
                 DimensionMismatchError, "matrix product shape mismatch",
                 id="schoolbook_multiply-shape"),
    pytest.param(lambda: fastmul.ww_multiply(_matrix(2, 2), _matrix(4, 4)),
                 DimensionMismatchError, "need square matrices of equal dimension",
                 id="ww_multiply-shape"),
    pytest.param(lambda: fastmul.ww_multiply(_matrix(3, 3), _matrix(3, 3)),
                 DimensionMismatchError, "dimension must be even; pad before calling",
                 id="ww_multiply-odd"),
    pytest.param(lambda: fastmul.ww_recursive(_matrix(2, 3), _matrix(3, 2)),
                 DimensionMismatchError, "need square matrices of equal dimension",
                 id="ww_recursive-shape"),
    pytest.param(lambda: ExactMatrix(2, 2, [1, 2, 3]), DimensionMismatchError,
                 "need 4 entries for a 2x2 matrix, got 3", id="ExactMatrix-entries"),
    pytest.param(lambda: ExactMatrix.from_rows([[1, 2], [3]]), DimensionMismatchError,
                 "ragged rows", id="from_rows-ragged"),
    pytest.param(lambda: _matrix(2, 2) + _matrix(2, 3), DimensionMismatchError,
                 "matrix addition shape mismatch", id="add-shape"),
    pytest.param(lambda: _matrix(2, 3) @ _matrix(2, 3), DimensionMismatchError,
                 "matrix product shape mismatch", id="matmul-shape"),
    pytest.param(lambda: _matrix(2, 3).apply([1, 2]), DimensionMismatchError,
                 "vector length mismatch", id="apply-length"),
    pytest.param(lambda: _matrix(2, 3).inverse(), NonSquareMatrixError,
                 "inverse of a non-square matrix", id="inverse-non-square"),
    pytest.param(lambda: UniPoly([]).leading(), ZeroPolynomialError,
                 "zero polynomial has no leading coefficient", id="leading-zero"),
    pytest.param(lambda: UniPoly([1, 1]).divmod(UniPoly([])), ZeroPolynomialError,
                 "division by the zero polynomial", id="divmod-zero"),
    pytest.param(lambda: det_cofactor(_matrix(2, 3)), NonSquareMatrixError,
                 "determinant of a non-square matrix", id="det_cofactor-non-square"),
    pytest.param(lambda: matrix_from_coefficients([1, 0, 1], coords=[1]), DimensionMismatchError,
                 "expected 2 coordinates", id="matrix_from_coefficients-coords"),
    # a shape or field error comes before an unknown method or strategy
    pytest.param(lambda: matrix_from_coefficients([1, 0, 1], coords=[1], method="bogus"),
                 DimensionMismatchError, "expected 2 coordinates",
                 id="matrix_from_coefficients-coords-before-method"),
    pytest.param(lambda: arithmetic_matrix(_field("1:1,1,-1"), _foreign_element(), "bogus"),
                 FieldMismatchError, "element belongs to a different field",
                 id="arithmetic_matrix-field-before-method"),
    pytest.param(lambda: _batch_with_unknown_strategy(lambda F: [F.one()] * 3, "bogus"),
                 DimensionMismatchError, "at most 2 multiplicands per batch",
                 id="batch_multiply-count-before-strategy"),
    pytest.param(lambda: _batch_with_unknown_strategy(lambda F: [_foreign_element()], "bogus"),
                 FieldMismatchError, "element belongs to a different field",
                 id="batch_multiply-field-before-strategy"),
    pytest.param(lambda: MultiPoly.var("x").constant_value(), ValueError,
                 "polynomial is not constant", id="constant_value-non-constant"),
]


@pytest.mark.parametrize("call, error, message", _CASES)
def test_guard_raises_its_typed_error(call, error, message, capsys):
    if isinstance(call, list):
        assert run_command(call) == 2
        assert capsys.readouterr() == ("", f"error: {error.__name__}: {message}\n")
        return
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
