"""Elliptic difference operators on partitions and level-truncated fusion rings.

The pipeline: a scaled theta bracket feeds closed-form hopping and
recurrence coefficients; a strip recurrence builds eigenpolynomials with
unitriangular monomial expansions; products in that basis yield deformed
Littlewood-Richardson coefficients; truncating to the level cone gives
commuting normal operators whose joint spectrum diagonalizes the fusion
ring, with structure constants recovered either by the Pieri rule on the
level cone or by a spectral (S-matrix) sum.  Independent Schur/trigonometric/sine-matrix
oracles pin down all degeneration endpoints.

``import ellfusion`` loads the chain from the bracket to the fusion table.
The LR products (``littlewood``), the oracles and the check registry
(``verification``) load on first use: the names below in ``_DEFERRED`` are
resolved from their submodule when first read, and ``from ellfusion import *``
binds them all.
"""

from importlib import import_module as _import_module

from .errors import (
    ComputationError,
    DegenerateCombination,
    GenericityViolation,
    GradingViolation,
    IllConditioned,
    NonConvergent,
    NonIntegral,
    NotAStrip,
    SingularDenominator,
    TrackingAmbiguity,
)
from .kernel import (
    ModelParams,
    bracket,
    g_regularity_margin,
    trig_bracket,
    trig_factorial,
)
from .partitions import (
    Partition,
    dominance_leq,
    enumerate_level,
    level_cone,
    r_index,
    underline,
    vertical_strips,
)
from .coeffs import c_norm, delta_weight, hop_B, psi_prime
from .polynomials import PolynomialInE, build_P, evaluate, evaluate_R, evaluate_batch, normalized_p
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

__version__ = "0.1.0"

# The names of ``verify --suite``; here so that the CLI reads them without loading ``verification``.
SUITES = ("limits", "ring", "spectrum")

# Name -> the submodule that defines it, imported when the name is first read.
_DEFERRED = {
    "expand_in_P": "littlewood",
    "lr_coefficients": "littlewood",
    "multiply_monomial": "littlewood",
    "OracleReport": "oracles",
    "classical_fusion": "oracles",
    "kac_peterson_smatrix": "oracles",
    "macdonald_lr_p0": "oracles",
    "macdonald_pieri_p0": "oracles",
    "schur_eval": "oracles",
    "schur_in_elementary": "oracles",
    "run_suite": "verification",
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here: the name stays the submodule's object, also when that is patched.
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


__all__ = sorted({name for name in globals() if not name.startswith("_")} | {*_DEFERRED, *_DEFERRED.values()})
