"""Elliptic difference operators on partitions and level-truncated fusion rings.

The pipeline: a scaled theta bracket feeds closed-form hopping and
recurrence coefficients; a strip recurrence builds eigenpolynomials with
unitriangular monomial expansions; products in that basis yield deformed
Littlewood-Richardson coefficients; truncating to the level cone gives
commuting normal operators whose joint spectrum diagonalizes the fusion
ring, with structure constants recovered either by ideal reduction or by a
spectral (S-matrix) sum.  Independent Schur/trigonometric/sine-matrix
oracles pin down all degeneration endpoints.
"""

from .errors import (
    ComputationError,
    DegenerateCombination,
    GenericityViolation,
    NonConvergent,
    NonIntegral,
    NonTerminating,
    NotAStrip,
    SingularDenominator,
    TrackingAmbiguity,
)
from .kernel import (
    ModelParams,
    bracket,
    elliptic_factorial,
    g_regularity_margin,
    theta1,
    theta1_product,
    theta1_prime0,
    trig_bracket,
    trig_factorial,
)
from .partitions import (
    Partition,
    dominance_leq,
    enumerate_level,
    r_index,
    underline,
    vertical_strips,
)
from .coeffs import c_norm, delta_weight, hop_B, psi_prime
from .polynomials import PolynomialInE, build_P, evaluate, evaluate_R, evaluate_batch, normalized_p
from .littlewood import expand_in_P, lr_coefficients, multiply_monomial
from .operators import (
    SpectrumResult,
    TruncatedOperator,
    apply_D,
    build_truncated,
    dual_orthogonality_check,
    joint_spectrum,
)
from .fusion import (
    FusionTable,
    SMatrixData,
    fusion_pieri,
    fusion_table,
    reduce_mod_ideal,
    s_matrix,
    structure_constants_lr,
    structure_constants_verlinde,
)
from .oracles import (
    OracleReport,
    classical_fusion,
    kac_peterson_smatrix,
    macdonald_lr_p0,
    macdonald_pieri_p0,
    schur_eval,
    schur_in_elementary,
)
from .verification import run_suite

__version__ = "0.1.0"
