"""Run the docstring examples embedded in the library modules, and in the
tests' reference Hecke algebra."""

import doctest

import pytest

import gkdim.hermitian
import gkdim.tableaux
import gkdim.weights
import hecke_reference


@pytest.mark.parametrize(
    "module",
    [gkdim.weights, gkdim.tableaux, hecke_reference, gkdim.hermitian],
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
