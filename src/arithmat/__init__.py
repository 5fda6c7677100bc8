"""Exact arithmetic in rings of integers of number fields via integer matrices.

A field context is defined by an essential pair (a scale factor and an
integer binary form); element arithmetic, norms, traces, inverses and
characteristic polynomials all run through the n x n multiplication matrix
of an element over the distinguished integral basis.  Submodules:

    polyring    exact polynomials and exact linear algebra
    forms       binary forms, discriminants, irreducibility
    field       field contexts and arithmetic-matrix construction
    element     ring arithmetic on elements, plus independent oracles
    covariants  cubic/quartic covariants, syzygies, norm equations,
                the cubic index form and the quartic subforms
    fastmul     counted fast matrix products and exact convolution
    numeric     floating-point verification layer
    search      essential-pair search and table verification
    cli         command line front end
"""

from .errors import ArithmatError
from .forms import BinaryForm, evaluate, form_discriminant, is_irreducible
from .field import (
    Element,
    EssentialPair,
    NumberField,
    arithmetic_matrix,
    basis_change_matrix,
    generic_arithmetic_matrix,
    integral_basis_description,
    make_field,
    symbolic_arithmetic_matrix,
)
from .element import (
    add,
    char_poly,
    inverse,
    is_integral,
    mul,
    norm,
    norm_resultant_oracle,
    trace,
)
from .polyring import ExactMatrix, MultiPoly, UniPoly

__version__ = "0.1.0"

__all__ = [
    "ArithmatError",
    "BinaryForm",
    "Element",
    "EssentialPair",
    "ExactMatrix",
    "MultiPoly",
    "NumberField",
    "UniPoly",
    "add",
    "arithmetic_matrix",
    "basis_change_matrix",
    "char_poly",
    "evaluate",
    "form_discriminant",
    "generic_arithmetic_matrix",
    "integral_basis_description",
    "inverse",
    "is_integral",
    "is_irreducible",
    "make_field",
    "mul",
    "norm",
    "norm_resultant_oracle",
    "symbolic_arithmetic_matrix",
    "trace",
]
