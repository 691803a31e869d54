"""Exact classes of symmetric-matrix rank strata as polynomials in the
Lefschetz class L, verified against a brute-force finite-field oracle."""

from .laurent import L, ONE, ZERO, LaurentPolynomial, monomial
from .motivic import (
    MotivicClass,
    TateSummand,
    VarietyDescriptor,
    class_at_most,
    class_exact,
    class_range,
    closed_form,
    euler_characteristic,
    full_rank_product,
    point_count,
    projective_full_rank,
    tate_decomposition,
)
from .ffield import (
    FiberCensus,
    PrimeField,
    RankHistogram,
    enumerate_rank_counts,
    fiber_census,
    projective_count,
)

__version__ = "0.1.0"
