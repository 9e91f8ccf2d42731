"""Exact combinatorics of Gelfand-Kirillov dimensions.

Computes GK dimensions of simple highest weight sl(n)-modules from the
lambda+rho coordinates via Schensted insertion, specializes to su(p,q)
highest weight Harish-Chandra modules (second columns, ball signatures,
associated-variety orbits, unitarity thresholds), and ships an independent
small-rank Hecke-algebra oracle for the underlying a-function.
"""

from .dimension import (
    CongruenceClass,
    GKReport,
    a_value,
    congruence_decomposition,
    gk_dimension,
    tableau_collection,
)
from .errors import (
    DomainError,
    LengthMismatchError,
    NotIntegralError,
    NotPQDominantError,
    OutsideUnitaryIntervalError,
    ParseError,
    RankBoundError,
    ZRangeBoundError,
)
from .hecke import (
    DEFAULT_RANK_BOUND,
    HeckeElement,
    a_function_definitional,
    bar_involution,
    kl_basis_element,
    kl_expand,
    multiply,
)
from .hermitian import (
    Z_RANGE_BOUND,
    AlgebraWord,
    BallSignature,
    HermitianReport,
    NormalForm,
    UnitaryInterval,
    algebra_normal_form,
    associated_variety,
    ball_model_m,
    ball_model_m_by_simulation,
    ball_transform_equivalent,
    gk_pq,
    gkdim_series,
    second_column_by_deletion,
    unitary_gkdim,
    unitary_interval,
    xi_signature,
)
from .laurent import LaurentPoly
from .permutations import (
    Permutation,
    a_value_of_permutation,
    minimal_antidominant_permutation,
    parabolic_longest,
    rs_of_permutation,
)
from .tableaux import Shape, Tableau, rs_pair
from .weights import (
    PQContext,
    Rational,
    Weight,
    add_z_zeta,
    is_pq_dominant,
    parse_rational,
    parse_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraWord",
    "BallSignature",
    "CongruenceClass",
    "DEFAULT_RANK_BOUND",
    "DomainError",
    "GKReport",
    "HeckeElement",
    "HermitianReport",
    "LaurentPoly",
    "LengthMismatchError",
    "NormalForm",
    "NotIntegralError",
    "NotPQDominantError",
    "OutsideUnitaryIntervalError",
    "PQContext",
    "ParseError",
    "Permutation",
    "RankBoundError",
    "Rational",
    "Shape",
    "Tableau",
    "UnitaryInterval",
    "Weight",
    "ZRangeBoundError",
    "Z_RANGE_BOUND",
    "a_function_definitional",
    "a_value",
    "a_value_of_permutation",
    "add_z_zeta",
    "algebra_normal_form",
    "associated_variety",
    "ball_model_m",
    "ball_model_m_by_simulation",
    "ball_transform_equivalent",
    "bar_involution",
    "congruence_decomposition",
    "gk_dimension",
    "gk_pq",
    "gkdim_series",
    "is_pq_dominant",
    "kl_basis_element",
    "kl_expand",
    "minimal_antidominant_permutation",
    "multiply",
    "parabolic_longest",
    "parse_rational",
    "parse_weight",
    "rs_of_permutation",
    "rs_pair",
    "second_column_by_deletion",
    "tableau_collection",
    "unitary_gkdim",
    "unitary_interval",
    "xi_signature",
]
