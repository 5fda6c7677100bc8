"""Exact arithmetic in rings of integers of number fields via integer matrices.

A field context is defined by an essential pair (a scale factor and an
integer binary form); element arithmetic, norms, traces, inverses and
characteristic polynomials all run through the n x n multiplication matrix
of an element over the distinguished integral basis.  Submodules:

    polyring    exact polynomials and exact linear algebra
    forms       binary forms, discriminants, irreducibility
    field       field contexts and the integer arithmetic matrix
    symbolic    multivariate polynomials, the paper's entry formulas and
                the symbolic matrices
    element     ring arithmetic on elements, plus independent oracles
    covariants  cubic/quartic covariants, syzygies, norm equations,
                the cubic index form and the quartic subforms
    fastmul     counted fast matrix products and exact convolution
    numeric     floating-point verification layer, on numpy for batches
    embedding   plain-float roots and the one-shot diagonalization
                certificate, with no numpy
    search      essential-pair search and table verification
    errors      the exception hierarchy, rooted at ArithmatError
    cli         command line front end

The package is lazy (PEP 562): `import arithmat` loads no submodule, and each
public name is imported from its home module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "errors": "ArithmatError",
        "forms": "BinaryForm evaluate form_discriminant is_irreducible",
        "field": "Element EssentialPair NumberField arithmetic_matrix basis_change_matrix"
        " integral_basis_description make_field",
        "symbolic": "MultiPoly generic_arithmetic_matrix symbolic_arithmetic_matrix",
        "element": "add char_poly inverse is_integral mul norm norm_resultant_oracle trace",
        "polyring": "ExactMatrix UniPoly",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
