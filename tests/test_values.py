"""Every public value, and every report the library returns, survives
copy.copy, copy.deepcopy and pickle at every protocol as an equal value of
the same type with the same repr, and the same hash if it has one (only
the mapping kl_basis_element returns has none).
The tests' reference LaurentPoly and HeckeElement keep that contract too.
The value types with integer fields, the z-series bounds, every index
argument and the oracle's rank bound refuse non-integral input, as PQContext does, rather than
truncating it."""

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
    a_function_definitional,
    algebra_normal_form,
    gk_dimension,
    gk_pq,
    gkdim_series,
    kl_basis_element,
    parabolic_longest,
    unitary_interval,
    xi_signature,
)
from hecke_reference import HeckeElement, LaurentPoly
from helpers import check_value_error

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


@pytest.mark.parametrize("make,message", [
    (lambda: Shape((2.7, 1.2)), "column sizes must be integers"),
    (lambda: Permutation([2.9, 1.5]), "one-line entries must be integers"),
    (lambda: BallSignature((1.7, 2.2)), "run lengths must be integers"),
    (lambda: BallSignature(("3", "1")), "run lengths must be integers"),
    (lambda: AlgebraWord([("x", 2.9)]), "exponents must be integers"),
    (lambda: Shape.from_row_lengths([2.0]), "row lengths must be integers"),
    (lambda: Permutation.identity(2.0), "n must be an integer"),
    (lambda: Permutation.longest(2.0), "n must be an integer"),
    (lambda: gkdim_series(Weight([2, 1, 4, 3, 2]), PQContext(2, 3), 0.0, 2.0),
     "z_from and z_to must be integers"),
    (lambda: gkdim_series(Weight([2, 1, 4, 3, 2]), PQContext(2, 3), 0, "2"),
     "z_from and z_to must be integers"),
    (lambda: Permutation([2, 3, 1])(1.0), "position index must be an integer"),
    (lambda: Permutation.transposition(3, 1.0, 2),
     "position index must be an integer"),
    (lambda: Permutation.transposition(3.0, 1, 2), "n must be an integer"),
    (lambda: Permutation([2, 3, 1]).times_s(1.0),
     "generator index must be an integer"),
    (lambda: Permutation([2, 3, 1]).s_times(1.0),
     "generator index must be an integer"),
    (lambda: Tableau([[1, 2], [3]]).column(2.0),
     "column index must be an integer"),
    (lambda: parabolic_longest(Shape((2, 1)), 3.0), "n must be an integer"),
    (lambda: a_function_definitional(Permutation([2, 1, 3]), rank_bound="5"),
     "rank_bound must be an integer"),
    (lambda: a_function_definitional(Permutation([2, 1, 3]), rank_bound=None),
     "rank_bound must be an integer"),
    (lambda: a_function_definitional(Permutation([2, 1, 3]), rank_bound=2.5),
     "rank_bound must be an integer"),
    (lambda: kl_basis_element(Permutation([2, 1]), rank_bound=5.0),
     "rank_bound must be an integer"),
], ids=["Shape", "Permutation", "BallSignature", "BallSignature-str",
        "AlgebraWord", "Shape.from_row_lengths", "Permutation.identity",
        "Permutation.longest", "gkdim_series", "gkdim_series-str",
        "Permutation.__call__", "Permutation.transposition",
        "Permutation.transposition-n", "Permutation.times_s",
        "Permutation.s_times", "Tableau.column", "parabolic_longest",
        "rank_bound-str", "rank_bound-None", "rank_bound-float",
        "kl_basis_element-rank_bound"])
def test_refuses_non_integral(make, message):
    check_value_error(make, message)
