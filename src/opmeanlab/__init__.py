"""opmeanlab: a numerical laboratory for operator-mean inequalities.

The package builds positive definite matrices with prescribed spectra,
evaluates Kubo-Ando operator means and positive linear maps on them,
computes the reverse-inequality constants that calibrate how far an
inequality can fail over a spectral band, and runs seeded randomized
trials and counterexample searches against a catalog of inequality
statements.
"""

__version__ = "0.1.0"

from .symmat import (
    PD_FLOOR,
    BandReport,
    DimensionMismatchError,
    EigenConvergenceError,
    EigenDecomposition,
    NotPositiveDefiniteError,
    OrderVerdict,
    SpectralBand,
    SpectrumDomainError,
    SymMatrix,
    apply_scalar,
    congruence,
    eig_sym,
    loewner_leq,
    op_norm,
    random_spd,
    spectral_band_of,
    validate_band,
)
from .functions import (
    EXP_MINUS_ONE,
    IDENTITY,
    ScalarFunction,
    custom_scalar,
    increasing_on,
    is_operator_monotone,
    midpoint_concave,
    power_function,
    scaled_power_function,
)
from .kubo_ando import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    AlmConvergenceError,
    MeanDescriptor,
    RepresentingFunction,
    RepresentingReport,
    alm_mean,
    catalog_means,
    custom_mean,
    is_between_harmonic_arithmetic,
    mean,
    representing_value,
    validate_representing,
    weighted_arithmetic,
    weighted_geometric,
    weighted_harmonic,
)
from .linmaps import (
    MapDescriptor,
    apply_map,
    catalog_maps,
    compression,
    convex_combination,
    identity_map,
    is_unital,
    normalized_trace,
    pinching,
    scale,
    unitalize,
)
from .constants import (
    DegenerateIntervalError,
    MPConstants,
    NonpositiveChordError,
    chord_ratio_max,
    kantorovich,
    mp_alpha,
    mp_gamma,
    polya_szego_coeff,
    secant_coeffs,
    weighted_kantorovich,
    yamazaki_coeff,
)
from .counterexamples import KNOWN_WITNESSES, KnownWitness
from .statements import (
    BandViolationError,
    StatementConfig,
    StatementInfo,
    TrialReport,
    UnitalityError,
    UnknownStatementError,
    Verdict,
    catalog,
    check,
    get_statement,
    hypothesis_violations,
    run_trials,
    statement_ids,
    unitality_violations,
)
from .search import Witness, falsify, refine, revalidate
from .matio import format_sym_matrix, read_general_matrix, read_sym_matrix, write_sym_matrix
