"""Exception hierarchy shared by all arithmat modules.

Every domain error raised by the library derives from ArithmatError so the
command line front end can map them to a single exit code while still
reporting the specific error name.
"""


class ArithmatError(Exception):
    """Base class for all domain errors raised by arithmat."""


class ZeroPolynomialError(ArithmatError):
    """An operation that needs a nonzero polynomial received zero."""


class NonSquareMatrixError(ArithmatError):
    """Determinant/inverse requested for a non-square matrix."""


class SingularMatrixError(ArithmatError):
    """Exact inverse requested for a singular matrix."""


class DimensionMismatchError(ArithmatError):
    """Matrix/vector dimensions do not line up."""


class UnsupportedDegreeError(ArithmatError):
    """Form degree outside the supported range for this operation."""


class DivisibilityError(ArithmatError):
    """The pair (a0, form) violates the a0^2 | a1 or a0 | a2 conditions."""


class ReducibleFormError(ArithmatError):
    """A field constructor was given a reducible form."""


class ZeroDiscriminantError(ArithmatError):
    """A field constructor was given a form with repeated roots."""


class FieldMismatchError(ArithmatError):
    """Two elements from different fields were combined."""


class ZeroElementError(ArithmatError, ZeroDivisionError):
    """Inverse of the zero element requested."""


class DegenerateElementError(ArithmatError):
    """An element of degree < n was passed where a generator is required."""


class RootConvergenceError(ArithmatError):
    """The numeric root finder failed to converge."""


class FloatRangeError(ArithmatError):
    """An exact value is too large for the float64 verification layer."""


class NonIntegerEntryError(ArithmatError):
    """An exact integer algorithm received non-integer entries."""
