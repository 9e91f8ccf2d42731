"""Every public value, and every report the library returns, survives
copy.copy, copy.deepcopy and pickle at every protocol as an equal value of
the same type with the same repr, and the same hash if it has one (only
the mapping kl_basis_element returns has none).
The tests' reference LaurentPoly and HeckeElement keep that contract too."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from gkdim import (
    AlgebraWord,
    BallSignature,
    CongruenceClass,
    NormalForm,
    Permutation,
    PQContext,
    Shape,
    Tableau,
    UnitaryInterval,
    Weight,
    algebra_normal_form,
    gk_dimension,
    gk_pq,
    kl_basis_element,
    unitary_interval,
    xi_signature,
)
from hecke_reference import HeckeElement, LaurentPoly

_W = Weight([6, 5, 4, 3, 11, 10, 9, 8, 7, 6])
_CTX = PQContext(4, 6)
_TILDE = Weight([2, 1, 0, -1, 4, 3, 2])
_TILDE_CTX = PQContext(4, 3)

VALUES = {
    "Shape": Shape((3, 2)),
    "Tableau": Tableau([[F(1, 2), F(3, 2)], [F(5, 2)]]),
    "Tableau-empty": Tableau(),
    "Weight": Weight([F(7, 2), 1, F(-1, 3)]),
    "Permutation": Permutation((2, 3, 1)),
    "LaurentPoly": LaurentPoly({1: 1, -1: -2}),
    "HeckeElement": HeckeElement.t(Permutation((2, 1))).scale(
        LaurentPoly({1: 1, 0: 3})),
    "PQContext": _CTX,
    "BallSignature": BallSignature([0, 1, 1, 1, 2, 0]),
    "AlgebraWord": AlgebraWord([("x", 2), ("y", 1)]),
    "NormalForm": NormalForm(4, 0, 2),
    "CongruenceClass": CongruenceClass((1, 3), (F(1, 2), F(-3, 2))),
    "UnitaryInterval": UnitaryInterval(2, 3),
    # Real results of the library.
    "gk_dimension": gk_dimension(Weight([F(1, 2), 3, F(-1, 2), 0, 2, 5])),
    "gk_pq": gk_pq(_W, _CTX),
    "gk_pq-non-integral": gk_pq(
        Weight([F(1, 2), F(-1, 2), 3, 1, 0]), PQContext(2, 3)),
    "xi_signature": xi_signature(_W, _CTX),
    "algebra_normal_form": algebra_normal_form(AlgebraWord([("x", 1), ("y", 2)])),
    "unitary_interval": unitary_interval(_TILDE, _TILDE_CTX),
    # A dict {Permutation: {degree: coeff}}.
    "kl_basis_element": kl_basis_element(Permutation((3, 1, 4, 2))),
}

PROTOCOLS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle-{k}": lambda v, k=k: pickle.loads(pickle.dumps(v, protocol=k))
        for k in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("how", list(PROTOCOLS))
@pytest.mark.parametrize("name", list(VALUES))
def test_round_trip(name, how):
    value = VALUES[name]
    copied = PROTOCOLS[how](value)
    assert type(copied) is type(value)
    assert copied == value
    assert repr(copied) == repr(value)
    if name == "kl_basis_element":
        assert type(value) is dict  # no hash to compare
    else:
        assert hash(copied) == hash(value)
