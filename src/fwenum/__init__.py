"""Exact computer algebra for divisible formal weight enumerators.

Constructs the q = 2, 4 and 4/3 enumerator families (plus the q = 2,
divisibility-4 family), computes their zeta polynomials by two exact
methods that share only d and the right-hand side (a closed form by prefix
sums and a triangular expansion over MDS enumerators), and verifies bounds,
differential identities and the Riemann-hypothesis property of the zeta
roots.
"""

from .families import (
    FAMILIES,
    Bound,
    ExtremalConstructionError,
    FamilySpec,
    FweResult,
    NotInRingError,
    basis,
    basis_exponents,
    bound,
    burmann_coefficient,
    classical_bound,
    expand_in_generators,
    extremal,
    family,
    generator,
    is_fwe,
    ring_dimension,
)
from .homopoly import (
    HomPoly,
    Mat2,
    MixedExtensionError,
    NotRationalError,
    WeightProfile,
    act_matrix,
    diff_op,
    divide_exact,
    format_poly,
    macwilliams,
    parse_poly,
    pochhammer,
    sigma_q,
    transform_sign,
    weight_profile,
)
from .matgroup import (
    GroupClosureError,
    MatrixGroup,
    RationalFunctionSeries,
    group_closure,
    molien_series,
    named_group,
)
from .scalar import QuadElem, Rational, sqrt_rational
from .zeta import (
    MDSEnumerator,
    RHConvergenceError,
    RHReport,
    ZetaPoly,
    functional_equation_check,
    mds_enumerator,
    rh_check,
    star_operator,
    star_scan_q43_odd,
    star_zeta_factor,
    verify_divisibility_prop,
    verify_duursma_lemma,
    verify_duursma_okuda,
    verify_extremal_diff_identity,
    verify_star,
    verify_zeta_binomial_identity,
    zeta_checked,
    zeta_from_genfunc,
    zeta_from_mds,
)

__version__ = "0.1.0"
