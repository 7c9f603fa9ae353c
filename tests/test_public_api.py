"""The public API of the package: every name it exports, listed once, so an
addition or a removal shows up in a diff of this file."""

import types

import resultantforge

PUBLIC = {
    "BlockOrder",
    "CascadeMatrix",
    "CoefficientTuple",
    "CoordinateSubspace",
    "DEFAULT_LIMITS",
    "DegRevLexOrder",
    "DiagonalWeights",
    "GeneratorRecord",
    "IdealPresentation",
    "Lcg64",
    "LexOrder",
    "Limits",
    "MONOMIAL_ONE",
    "MinorWalk",
    "Monomial",
    "Polynomial",
    "ResourceExhaustedError",
    "Ring",
    "RingMismatchError",
    "RootReport",
    "RowSelection",
    "SquareFreeMonomialIdeal",
    "TermOrder",
    "Variable",
    "WeightedOrder",
    "ZeroMinorError",
    "ZeroPolynomialError",
    "buchberger",
    "build_diagonal_weights",
    "chart_equal",
    "chow_degree",
    "common_root_oracle",
    "components",
    "diagonal_order",
    "dim_and_degree",
    "eliminate_x",
    "enumerate_generators",
    "enumerate_reduced",
    "enumerate_walks",
    "generators_for_basis",
    "ideal_equal",
    "is_groebner_basis",
    "leading_term",
    "membership_scan",
    "minimal_primes",
    "normal_form",
    "rows_to_walk",
    "s_polynomial",
    "sample_planted",
    "sample_random",
    "selection_for_walk",
    "system_polynomials",
    "top_minor_records",
    "verify_diagonal_property",
    "walk_leading_monomial",
}


def test_public_names_are_the_listed_set():
    # submodules become attributes of the package once imported; they are not API names
    names = {
        name
        for name, value in vars(resultantforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC
