"""The package's public names: resolved lazily, each the object its home module defines."""

import importlib

import pytest

import arithmat

# every public name and the submodule that defines it
HOMES = {
    "ArithmatError": "errors",
    "BinaryForm": "forms",
    "Element": "field",
    "EssentialPair": "field",
    "ExactMatrix": "polyring",
    "MultiPoly": "symbolic",
    "NumberField": "field",
    "UniPoly": "polyring",
    "add": "element",
    "arithmetic_matrix": "field",
    "basis_change_matrix": "field",
    "char_poly": "element",
    "evaluate": "forms",
    "form_discriminant": "forms",
    "generic_arithmetic_matrix": "symbolic",
    "integral_basis_description": "field",
    "inverse": "element",
    "is_integral": "element",
    "is_irreducible": "forms",
    "make_field": "field",
    "mul": "element",
    "norm": "element",
    "norm_resultant_oracle": "element",
    "symbolic_arithmetic_matrix": "symbolic",
    "trace": "element",
}


def test_all_lists_the_public_names():
    assert arithmat.__all__ == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_name_is_its_home_module_object(name):
    home = importlib.import_module(f"arithmat.{HOMES[name]}")
    assert getattr(arithmat, name) is getattr(home, name)
    assert name in dir(arithmat)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from arithmat import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == HOMES.keys()
    assert all(namespace[n] is getattr(arithmat, n) for n in HOMES)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        arithmat.no_such_name

