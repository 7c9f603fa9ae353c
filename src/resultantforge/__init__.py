"""Exact construction and certification of the ideal of coefficient
relations forced by a common root of n univariate degree-d polynomials:
cascade matrices and their maximal minors, the diagonal-selecting term
order, the reduced-walk Groebner basis, the combinatorial geometry of the
initial ideal, and exact root certificates."""

from .cascade import CascadeMatrix, RowSelection
from .diagonal import (
    DiagonalWeights,
    build_diagonal_weights,
    diagonal_order,
    verify_diagonal_property,
)
from .geometry import (
    ChowClass,
    SquareFreeMonomialIdeal,
    chow_degree,
    dim_and_degree,
    minimal_primes,
)
from .groebner import (
    DEFAULT_LIMITS,
    IdealPresentation,
    Limits,
    ResourceExhaustedError,
    buchberger,
    chart_equal,
    eliminate_x,
    ideal_equal,
    is_groebner_basis,
    s_polynomial,
    system_polynomials,
)
from .minors import (
    GeneratorRecord,
    enumerate_generators,
    generators_for_basis,
    minor_det,
    top_minor_records,
)
from .orders import (
    BlockOrder,
    DegRevLexOrder,
    LexOrder,
    TermOrder,
    WeightedOrder,
    leading_term,
    normal_form,
)
from .poly import (
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
    Ring,
    RingMismatchError,
    Variable,
    ZeroPolynomialError,
)
from .roots import (
    CoefficientTuple,
    Lcg64,
    RootReport,
    common_root_oracle,
    membership_scan,
    planted_vanishing,
    sample_planted,
    sample_random,
)
from .walks import (
    CoordinateSubspace,
    MinorWalk,
    ZeroMinorError,
    components,
    enumerate_reduced,
    enumerate_walks,
    is_minor_walk,
    is_reduced,
    rows_to_walk,
    selection_for_walk,
    walk_leading_monomial,
)

__version__ = "0.1.0"
