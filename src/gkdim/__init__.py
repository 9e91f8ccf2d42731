"""Exact combinatorics of Gelfand-Kirillov dimensions.

Computes GK dimensions of simple highest weight sl(n)-modules from the
lambda+rho coordinates via Schensted insertion, specializes to su(p,q)
highest weight Harish-Chandra modules (second columns, ball signatures,
associated-variety orbits, unitarity thresholds), and ships an independent
small-rank Hecke-algebra oracle for the underlying a-function.

`import gkdim` loads no submodule: each public name is imported from its
module on first use, so `gkdim.gk_dimension` never loads the Hecke oracle.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, grouped by the module that defines them.
_PUBLIC = {
    "dimension": """CongruenceClass GKReport a_value congruence_decomposition
        gk_dimension tableau_collection""",
    "errors": """DomainError InvariantError LengthMismatchError
        NotIntegralError NotPQDominantError OutsideUnitaryIntervalError
        ParseError RankBoundError ZRangeBoundError""",
    "hecke": "DEFAULT_RANK_BOUND a_function_definitional kl_basis_element",
    "hermitian": """Z_RANGE_BOUND AlgebraWord BallSignature HermitianReport
        NormalForm UnitaryInterval algebra_normal_form associated_variety
        ball_model_m ball_model_m_by_simulation ball_transform_equivalent
        gk_pq gkdim_series second_column_by_deletion unitary_gkdim
        unitary_interval xi_signature""",
    "permutations": """Permutation a_value_of_permutation
        minimal_antidominant_permutation parabolic_longest rs_of_permutation""",
    "tableaux": "Shape Tableau insertion_tableau rs_pair",
    "weights": """PQContext Rational Weight add_z_zeta is_pq_dominant
        parse_rational parse_weight""",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Resolve a public name or submodule on first use (PEP 562).  The value
    is bound here, so a later lookup is a plain attribute read."""
    if name in _PUBLIC:
        # Importing a submodule binds it as an attribute of this package.
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
