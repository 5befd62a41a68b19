"""Check registry: ring identities, spectral checks, limit endpoints.

Every check is one :class:`Check` entry in :data:`REGISTRY`: a report name,
the suites that run it, a tolerance, a measure function and the acceptance
grid.  A measure function returns the worst deviation over its grid point;
an entry with tolerance 0 is exact and counts violations.  ``run_suite``
(the CLI ``verify`` command) and the acceptance tests both read the table,
so each criterion is computed in one place.  Verlinde tables are shared
between the checks of one run through a :class:`CheckContext`; spectra,
S-matrices and value tables are kept with the spectrum on the bracket
table.  Table checks take their maxima row by row (``_largest``).  Checks
that hit a genuine parameter resonance (an exact boundary zero against a
divergent normalization) re-verify the identity at couplings nudged by
1e-6 on both sides instead of skipping the grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Callable

import numpy as np

from .kernel import ModelParams, qpow, trig_bracket
from .littlewood import lr_coefficients
from .operators import (
    apply_D,
    build_truncated,
    check_seed,
    conjugated_matrices,
    delta_vector,
    dual_orthogonality_check,
    joint_spectrum,
    norm_vectors,
    normality_residual,
    projection_arrays,
    spectral_points_p0,
)
from .partitions import (
    Partition,
    add,
    column,
    contains,
    dominance_leq,
    is_partition,
    level_cone,
    partitions_of_weight,
    span,
    underline,
    vertical_strips,
    weight,
)
from .polynomials import build_P, elementary_symmetric, evaluate_R, evaluate_batch
from .fusion import _rows, fusion_pieri, fusion_table, s_matrix
from .oracles import (
    OracleReport,
    _classical_transform,
    macdonald_lr_p0,
    macdonald_pieri_p0,
    principal_normalization_p0,
    refined_tensor,
    schur_eval,
    schur_in_elementary,
)
from . import SUITES, coeffs

_FREE_ALPHA = 2.0
_NUDGE = 1e-6
_CLASSICAL_TOL = 1e-5


class CheckContext:
    """The run's seed and dense Verlinde tables (``fusion_table``), one per locked parameter set, kept as long as it.

    Spectra are kept on the bracket table, S-matrices and value tables on each
    spectrum.  The ring and projection routes are never stored here, so a check
    comparing one with the Verlinde table compares two computations, row by row.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.table = cache(lambda params: fusion_table(params, seed=seed))


def _worst(pairs) -> float:
    """Largest |computed - expected| over (computed, expected) pairs."""
    return max((abs(complex(a) - complex(b)) for a, b in pairs), default=0.0)


def _largest(rows, others=None) -> float:
    """Max |row - other| over two tables (arrays or row streams, equally long) side by side, else max |row|; per row."""
    if others is None:
        return max(float(np.abs(row).max()) for row in rows)
    return max(float(np.abs(row - other).max()) for row, other in zip(rows, others, strict=True))


def _dict_deviation(a: dict, b: dict) -> float:
    return _worst((a.get(k, 0.0), b.get(k, 0.0)) for k in set(a) | set(b))


def _locked(n: int, m: int, g_values, p_values) -> list[ModelParams]:
    return [ModelParams.locked(n, m, g, p) for g, p in product(g_values, p_values)]


def _free(n: int, g: float, p: float) -> ModelParams:
    return ModelParams.free(n, g=g, p=p, alpha=_FREE_ALPHA)


def _shapes(n: int, lo: int, hi: int, max_part: int | None = None) -> list[Partition]:
    """Partitions with n rows of every weight lo..hi."""
    return [mu for w in range(lo, hi + 1) for mu in partitions_of_weight(n, w, max_part)]


def _ideal_generators(n: int, m: int) -> list[Partition]:
    """Shapes with first part m+1, last part 0, and any admissible middle rows."""
    shapes = ((m + 1,) + mid + (0,) for mid in product(range(m + 2), repeat=max(n - 2, 0)))
    return [mu for mu in shapes if is_partition(mu)]


# ---------------------------------------------------------------------------
# Ring checks

def _gauge_identity(ctx, n, m, g_values=(0.3, 1.0, 1.7), p_values=(-0.5, 0.0, 0.5)):
    """psi'_{nu/mu} c_mu = B_{nu/mu} c_nu over the cone and all its strips.

    All strips are checked at a free (non-resonant) phase scale, where both
    sides are finite.  Level-locked parameters pin the zero [m + n*g] = 0
    onto every boundary strip, turning the identity there into the
    indeterminate form 0 * inf for every coupling; in locked mode the check
    therefore covers the strips that stay inside the level cone.
    Relative to the right-hand side.
    """
    worst = 0.0
    for g, p in product(g_values, p_values):
        free, locked = _free(n, g, p), ModelParams.locked(n, m, g, p)
        for mu in level_cone(n, m).labels:
            for r in range(1, n + 1):
                for nu in vertical_strips(mu, r):
                    for params in (free, locked) if span(nu) <= m else (free,):
                        lhs = coeffs.psi_prime(mu, nu, params) * coeffs.c_norm(mu, params)
                        rhs = coeffs.hop_B(mu, nu, params) * coeffs.c_norm(nu, params)
                        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst


def _level_boundary(ctx, n, m, g_values=(0.4, 0.7, 1.3), p_values=(0.0, 0.4)):
    """psi' vanishes when hopping from span m+1 back into the level cone."""
    return _worst(
        (coeffs.psi_prime(lam, nu, params), 0.0)
        for params in _locked(n, m, g_values, p_values)
        for lam in _ideal_generators(n, m)
        for r in range(1, n + 1)
        for nu in vertical_strips(lam, r)
        if span(nu) <= m
    )


def _pieri_ring_identity(ctx, n, max_weight=4, g=0.65, p_values=(0.0, 0.4)):
    """e_s * P_mu = sum over strips of psi' P_nu, relative to max |coeff| of the lhs."""
    worst = 0.0
    for p in p_values:
        params = _free(n, g, p)
        for mu in _shapes(n, 0, max_weight):
            P = build_P(mu, params)
            for s in range(1, n + 1):
                lhs = {add(k, column(n, s)): v for k, v in P.items()}
                rhs: dict[Partition, float] = {}
                for nu in vertical_strips(mu, s):
                    wgt = coeffs.psi_prime(mu, nu, params)
                    for k, v in build_P(nu, params).items():
                        rhs[k] = rhs.get(k, 0.0) + wgt * v
                scale = max(abs(v) for v in lhs.values())
                worst = max(worst, _dict_deviation(lhs, rhs) / scale)
    return worst


def _unitriangularity(ctx, n, max_weight=4, g=0.45, p=0.2):
    """Violations of P_mu = m_mu + (keys of the same weight dominated by mu)."""
    params = _free(n, g, p)
    bad = 0
    for mu in _shapes(n, 0, max_weight):
        P = build_P(mu, params)
        bad += P.coeffs.get(mu) != 1.0
        bad += sum(weight(k) != weight(mu) or not dominance_leq(k, mu) for k in P.coeffs)
    return bad


def _lr_support(ctx, n, max_weight=3, g=0.65, p=0.3):
    """Output keys of c^nu_{lam,mu} outside lam, mu ⊂ nu, |nu| = |lam| + |mu|."""
    params = _free(n, g, p)
    shapes = _shapes(n, 1, max_weight)
    return sum(
        not (contains(lam, nu) and contains(mu, nu)) or weight(nu) != weight(lam) + weight(mu)
        for lam in shapes
        for mu in shapes
        for nu in lr_coefficients(lam, mu, params)
    )


def _lr_commutativity(ctx, n, max_weight=3, g=0.65, p=0.3):
    params = _free(n, g, p)
    shapes = _shapes(n, 0, max_weight)
    return max(
        _dict_deviation(lr_coefficients(lam, mu, params), lr_coefficients(mu, lam, params))
        for lam in shapes
        for mu in shapes
    )


def _lr_associativity(ctx, n, g=0.65, p=0.3):
    """sum_kappa c^kappa_{lam,mu} c^nu_{kappa,sig} vs the other association."""
    params = _free(n, g, p)
    one, two = (1,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)
    worst = 0.0
    for lam, mu, sig in [(one, two, one), ((2,) + (0,) * (n - 1), one, two)]:
        left: dict[Partition, float] = {}
        for kappa, c1 in lr_coefficients(lam, mu, params).items():
            for nu, c2 in lr_coefficients(kappa, sig, params).items():
                left[nu] = left.get(nu, 0.0) + c1 * c2
        right: dict[Partition, float] = {}
        for kappa, c1 in lr_coefficients(mu, sig, params).items():
            for nu, c2 in lr_coefficients(lam, kappa, params).items():
                right[nu] = right.get(nu, 0.0) + c1 * c2
        worst = max(worst, _dict_deviation(left, right))
    return worst


def _lr_translation(ctx, n, g=0.65, p=0.3):
    """Shifting one factor by a full column shifts every output key likewise."""
    params = _free(n, g, p)
    one, two = (1,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)

    def underlined(lam, mu):
        return {underline(k): v for k, v in lr_coefficients(lam, mu, params).items()}

    return max(
        _dict_deviation(underlined(lam, mu), underlined(add(lam, column(n, n)), mu))
        for lam, mu in [(one, two), ((2, 1) + (0,) * (n - 2), one)]
    )


def _lr_macdonald_p0(ctx, n, g=0.65, max_weight=3):
    """Trigonometric limit of the structure coefficients vs the seeded oracle."""
    params = _free(n, g, 0.0)
    shapes = _shapes(n, 1, max_weight)
    return max(
        _dict_deviation(lr_coefficients(lam, mu, params), macdonald_lr_p0(lam, mu, _FREE_ALPHA, g))
        for lam in shapes
        for mu in shapes
    )


def _route_agreement(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """Ring-route and spectral-route fusion tables agree at generic couplings."""
    return max(
        _largest(_rows(params, "lr")[1], ctx.table(params).values)
        for params in _locked(n, m, g_values, p_values)
    )


def _both_tables(ctx, n, m, g_values, p_values):
    """(params, values [lam, mu, kappa]) of the ring-route table, then the Verlinde one, at each grid point."""
    for params in _locked(n, m, g_values, p_values):
        yield params, fusion_table(params, route="lr").values
        yield params, ctx.table(params).values


def _fusion_conjugation(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """N^{kappa*}_{lam* mu*} = N^kappa_{lam mu} on both tables, relative to max |N|."""
    star = level_cone(n, m).conjugation
    return max(
        _largest((N[i][np.ix_(star, star)] for i in star), N) / _largest(N)
        for _, N in _both_tables(ctx, n, m, g_values, p_values)
    )


def _fusion_duality(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """N^kappa_{lam mu} w_kappa = N^mu_{lam* kappa} w_mu with w = 1/(c^2 Delta), on both tables.

    Multiplication by P_lam is adjoint to multiplication by P_lam* under the
    Delta orthogonality, w being the diagonal of the dual Gram matrix.
    Relative to max |N^kappa_{lam mu} w_kappa|.
    """
    star = level_cone(n, m).conjugation
    worst = 0.0
    for params, N in _both_tables(ctx, n, m, g_values, p_values):
        w = 1.0 / (coeffs.level_c(params) ** 2 * delta_vector(params))
        rhs = (N[i].T * w[:, None] for i in star)  # row lam: [mu, kappa] = N^mu_{lam* kappa} w_mu
        worst = max(worst, _largest((row * w for row in N), rhs) / _largest(row * w for row in N))
    return worst


# ---------------------------------------------------------------------------
# Spectral checks

def _truncated_commutativity(ctx, n, m, g_values=(0.6, 1.0, 1.7), p_values=(-0.4, 0.0, 0.4)):
    """Relative Frobenius norm of [D_r, D_s] (zero below n = 3: one operator)."""
    worst = 0.0
    for params in _locked(n, m, g_values, p_values) if n >= 3 else ():
        mats = [build_truncated(r, params) for r in range(1, n)]
        for a, b in combinations(mats, 2):
            denom = np.linalg.norm(a, "fro") * np.linalg.norm(b, "fro")
            worst = max(worst, np.linalg.norm(a @ b - b @ a, "fro") / max(denom, 1e-300))
    return worst


def _full_lattice_commutativity(ctx, n, g=0.65, p=0.3):
    """[D_r, D_s] f = 0 for random finitely supported f on the full lattice."""
    params = _free(n, g, p)
    rng = np.random.default_rng(ctx.seed)
    base = (2, 1) + (0,) * (n - 2)
    support = (add(base, off) for off in product(range(3), repeat=n))
    f = {kappa: complex(*rng.standard_normal(2)) for kappa in support if is_partition(kappa)}

    def compose(r, s, lam):
        total = 0.0 + 0.0j
        for nu in vertical_strips(lam, r):
            inner = apply_D(s, f, nu, params)
            if inner:
                total += coeffs.hop_B(lam, nu, params) * inner
        return total

    worst = 0.0
    for r, s in combinations(range(1, n + 1), 2):
        for lam in [base, (1,) + (0,) * (n - 1), (0,) * n]:
            a, b = compose(r, s, lam), compose(s, r, lam)
            worst = max(worst, abs(a - b) / max(1.0, abs(a) + abs(b)))
    return worst


def _normality(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    return max(
        normality_residual(M)
        for params in _locked(n, m, g_values, p_values)
        for M in conjugated_matrices(params)[0]
    )


def _spectrum_count(ctx, n, m, g=0.8):
    """|number of spectral points - binomial(n-1+m, m)|."""
    spec = joint_spectrum(ModelParams.locked(n, m, g, 0.0), seed=ctx.seed)
    return abs(len(spec.labels) - math.comb(n - 1 + m, m))


def _spectrum_p0(ctx, n, m, g=0.8):
    """Rayleigh eigenvalues at p = 0 against the trigonometric closed form."""
    params = ModelParams.locked(n, m, g, 0.0)
    spec = joint_spectrum(params, seed=ctx.seed)
    return _worst(zip(spec.e_matrix().ravel(), spectral_points_p0(params).ravel()))


def _eigenvector_consistency(ctx, n, m, g=0.7, p=0.4):
    """Matrix eigenvectors match the normalized polynomial values."""
    params = ModelParams.locked(n, m, g, p)
    spec = joint_spectrum(params, seed=ctx.seed)
    want = norm_vectors(spec)[0][:, None] * projection_arrays(params, spec)[0]
    # entries are pinned to 1 at the origin site, so 1 is the scale floor;
    # exactly-zero entries are compared absolutely
    return float((np.abs(spec.vectors - want) / np.maximum(np.abs(want), 1.0)).max())


def _spectral_variety(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """Ideal generators vanish on every spectral point (relative to scale)."""
    worst = 0.0
    for params in _locked(n, m, g_values, p_values):
        polys = [build_P(mu, params) for mu in _ideal_generators(n, m)]
        values, scales = evaluate_batch(polys, joint_spectrum(params, seed=ctx.seed).e)
        worst = max(worst, float((np.abs(values) / scales).max(initial=0.0)))
    return worst


def _dual_orthogonality(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    return max(
        dual_orthogonality_check(params, seed=ctx.seed)
        for params in _locked(n, m, g_values, p_values)
    )


def _smatrix_identity(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """|S Sinv - I|."""
    grid = _locked(n, m, g_values, p_values)
    return max(s_matrix(params, seed=ctx.seed).identity_residual() for params in grid)


def _smatrix_determinant(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """log|det S| against its closed form."""
    grid = _locked(n, m, g_values, p_values)
    return max(s_matrix(params, seed=ctx.seed).det_residual() for params in grid)


def _verlinde_vs_projection(ctx, n, m, g_values=(0.7, 1.3), p_values=(0.0, 0.4)):
    """Spectral (S-matrix) sum against direct projection onto the spectrum, one row of ``fusion._rows`` at a time."""
    return max(
        _largest(_rows(params, "projection", seed=ctx.seed)[1], ctx.table(params).values)
        for params in _locked(n, m, g_values, p_values)
    )


# ---------------------------------------------------------------------------
# Limit endpoints

def _poly_g1_schur(ctx, n, max_weight=4, p=0.3):
    """Coefficients of P_mu at g -> 1 (free mode) against the Schur expansion."""
    lo, hi = _free(n, 1.0 - _NUDGE, p), _free(n, 1.0 + _NUDGE, p)
    worst = 0.0
    for mu in _shapes(n, 0, max_weight):
        a, b = build_P(mu, lo).coeffs, build_P(mu, hi).coeffs
        mean = {k: 0.5 * (a.get(k, 0.0) + b.get(k, 0.0)) for k in set(a) | set(b)}
        worst = max(worst, _dict_deviation(mean, schur_in_elementary(mu, n)))
    return worst


def _evaluate_R_g1(ctx, n, p=0.3):
    """Symmetric-polynomial values at g -> 1 against tableau sums, absolute."""
    rng = np.random.default_rng(ctx.seed)
    lo, hi = _free(n, 1.0 - _NUDGE, p), _free(n, 1.0 + _NUDGE, p)
    pairs = []
    for mu in _shapes(n, 0, 4):
        x = rng.uniform(0.5, 1.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        pairs.append((0.5 * (evaluate_R(mu, x, lo) + evaluate_R(mu, x, hi)), schur_eval(mu, x)))
    return _worst(pairs)


def _pieri_p0_trig(ctx, n, m, g=0.75):
    """Strip weights at p = 0 against the sine-ratio products."""
    params = ModelParams.locked(n, m, g, 0.0)
    return _worst(
        (coeffs.psi_prime(lam, nu, params), macdonald_pieri_p0(lam, nu, params.alpha, g))
        for lam in _shapes(n, 0, 4, max_part=4)
        for r in range(1, n + 1)
        for nu in vertical_strips(lam, r)
    )


def _refined_pieri_p0(ctx, n, m, g=0.85):
    """Fusion coefficients for column multiplication at p = 0 vs trig products."""
    params = ModelParams.locked(n, m, g, 0.0)
    worst = 0.0
    for lam in level_cone(n, m).labels:
        for r in range(1, n):
            want = {
                underline(nu): macdonald_pieri_p0(lam, nu, params.alpha, g)
                for nu in vertical_strips(lam, r)
                if span(nu) <= m
            }
            worst = max(worst, _dict_deviation(fusion_pieri(lam, r, params), want))
    return worst


def _table_values(ctx, params, labels) -> np.ndarray:
    """The spectral-route table values [lam, mu, kappa] at params, checked to run over an oracle's labels."""
    table = ctx.table(params)
    if tuple(labels) != table.labels:
        raise ValueError(f"the table at {params} and its oracle have different labels")
    return table.values


def _refined_fusion_p0(ctx, n, m, g=0.8):
    """Spectral-route fusion at p = 0 against the trigonometric Verlinde tensor, row by row."""
    labels, tensor = refined_tensor(n, m, g)
    return _largest(_table_values(ctx, ModelParams.locked(n, m, g, 0.0), labels), tensor)


def _fusion_g1_classical(ctx, n, m):
    """Fusion table at g = 1 against the classical coefficients."""
    labels, _, classical = _classical_transform(n, m)
    return _largest(_table_values(ctx, ModelParams.locked(n, m, 1.0, 0.0), labels), classical)


def _fusion_g1_integers(ctx, n, m):
    """Table values at g = 1 that round (half to even) off the classical integer, or lie below -_CLASSICAL_TOL."""
    labels, _, classical = _classical_transform(n, m)
    pairs = zip(_table_values(ctx, ModelParams.locked(n, m, 1.0, 0.0), labels), classical, strict=True)
    return sum(int(np.count_nonzero((np.rint(row) != want) | (row < -_CLASSICAL_TOL))) for row, want in pairs)


def _fusion_g1_p_independent(ctx, n, m, p=0.5):
    return _largest(*(ctx.table(ModelParams.locked(n, m, 1.0, q)).values for q in (0.0, p)))


def _smatrix_kac_peterson(ctx, n, m):
    """S-matrix at (g, p) = (1, 0) against the sine-form oracle, entrywise.

    At p = 0 the gauge factor relating the two is identically 1.  The oracle's
    matrix is the one its classical fusion tensor uses, built once per (n, m).
    """
    sm = s_matrix(ModelParams.locked(n, m, 1.0, 0.0), seed=ctx.seed)
    return float(np.abs(sm.S - _classical_transform(n, m)[1]).max())


def _kac_peterson_normalization(ctx, n, m):
    """Conventional scale at (g, p) = (1, 0) against its closed form, relative."""
    alpha = 2.0 * math.pi / (m + n)
    denom = math.prod(
        trig_bracket(k - j, alpha) ** 2 for j in range(n) for k in range(j + 1, n)
    )
    closed = (2.0 * math.sin(math.pi / (m + n))) ** (-n * (n - 1)) * n * (n + m) ** (n - 1) / denom
    got = s_matrix(ModelParams.locked(n, m, 1.0, 0.0), seed=ctx.seed).normalization
    return abs(got - closed) / abs(closed)


def _principal_specialization(ctx, n, m, g=0.8):
    """Principal values of the embedded polynomials vs the product form at p=0."""
    params = ModelParams.locked(n, m, g, 0.0)
    xs = [qpow(params.alpha, (n - 1 - j) * g) for j in range(n - 1)] + [1.0 + 0.0j]
    labels = level_cone(n, m).labels
    # Every P_nu at the one principal point, as one batch: P_nu(e(xs)) = R_nu(xs).
    values = evaluate_batch([build_P(nu, params) for nu in labels], [elementary_symmetric(xs)])[0][:, 0]
    pairs = []
    for nu, value in zip(labels, values.tolist()):
        want = principal_normalization_p0(nu, params.alpha, g)
        got = qpow(params.alpha, -weight(nu) * (n - 1) * g / 2.0) * value
        pairs += [(got, want), (1.0 / coeffs.c_norm(nu, params), want)]
    return _worst(pairs)


# ---------------------------------------------------------------------------
# Registry

def _grid(ns, ms=None, **fixed) -> tuple[dict, ...]:
    """Acceptance grid: every (n, m) of ns x ms (n only if ms is None)."""
    if ms is None:
        return tuple({"n": n, **fixed} for n in ns)
    return tuple({"n": n, "m": m, **fixed} for n, m in product(ns, ms))


@dataclass(frozen=True)
class Check:
    """One registry entry.

    ``measure(ctx, **point)`` returns the worst deviation at one grid
    point.  A suite run at (n, m) measures the point ``n=n, m=m``, or ``n=n``
    for a ``free`` (free-mode) check; ``acceptance`` lists the points of
    acceptance criterion ``criterion`` (0: none).  ``tol == 0`` marks an
    exact check, whose measure counts violations.
    """

    name: str
    suites: tuple[str, ...]
    tol: float
    measure: Callable[..., float]
    criterion: int = 0
    title: str = ""
    acceptance: tuple[dict, ...] = ()
    free: bool = False

    def report(self, points, ctx: CheckContext) -> OracleReport:
        measured = float(max(self.measure(ctx, **point) for point in points))
        passed = measured == 0.0 if self.tol == 0.0 else measured < self.tol
        return OracleReport(self.name, measured, self.tol, passed)


_NM = _grid((2, 3), (1, 2))

REGISTRY: tuple[Check, ...] = (
    # limits
    Check("poly_g1_schur_in_e", ("limits",), 1e-4, _poly_g1_schur, free=True),
    Check("evaluate_R_g1_schur", ("limits",), 1e-4, _evaluate_R_g1,
          14, "tableau-sum limit of embedded polynomials", _grid((3,)), free=True),
    Check("pieri_p0_trig", ("limits",), 1e-12, _pieri_p0_trig,
          14, "strip weights at nome zero", _grid((2, 3), (2,))),
    Check("spectrum_count", ("limits", "spectrum"), 0.0, _spectrum_count,
          6, "spectrum count = binomial(n-1+m, m)", _grid((2, 3), (1, 2, 3))),
    Check("spectrum_p0_closed_form", ("limits", "spectrum"), 1e-10, _spectrum_p0,
          6, "trigonometric spectrum closed form", _grid((2, 3), (1, 2, 3))),
    Check("fusion_g1_classical", ("limits",), _CLASSICAL_TOL, _fusion_g1_classical,
          11, "integrality at unit coupling", _NM),
    Check("fusion_g1_classical_integers", ("limits",), 0.0, _fusion_g1_integers,
          11, "fusion table equals the classical coefficients", _NM),
    Check("fusion_g1_p_independent", ("limits",), 1e-9, _fusion_g1_p_independent,
          11, "unit-coupling table is nome independent", _NM),
    Check("refined_pieri_p0", ("limits",), 1e-12, _refined_pieri_p0,
          12, "refined strip coefficients at nome zero", _NM),
    Check("refined_fusion_p0", ("limits",), 1e-8, _refined_fusion_p0),
    Check("smatrix_kac_peterson", ("limits",), 1e-8, _smatrix_kac_peterson,
          13, "sine-form transition matrix entrywise", _NM),
    Check("kac_peterson_normalization", ("limits",), 1e-8, _kac_peterson_normalization,
          13, "normalization closed form (relative)", _NM),
    Check("principal_specialization", ("limits",), 1e-9, _principal_specialization),
    # ring
    Check("gauge_identity", ("ring",), 1e-11, _gauge_identity,
          2, "gauge identity over the (3,3) cone", _grid((3,), (3,))),
    Check("level_boundary", ("ring",), 1e-11, _level_boundary),
    Check("pieri_ring_identity", ("ring",), 1e-10, _pieri_ring_identity,
          3, "column-multiplication ring identity", _grid((2, 3), max_weight=5), free=True),
    Check("unitriangularity", ("ring",), 0.0, _unitriangularity,
          4, "unitriangularity and homogeneity (hard)", _grid((3,), max_weight=6), free=True),
    Check("lr_support", ("ring",), 0.0, _lr_support,
          5, "structure-coefficient support (exact key sets)", _grid((3,)), free=True),
    Check("lr_commutativity", ("ring",), 1e-10, _lr_commutativity, free=True),
    Check("lr_associativity", ("ring",), 1e-9, _lr_associativity, free=True),
    Check("lr_translation", ("ring",), 1e-10, _lr_translation, free=True),
    Check("lr_macdonald_p0", ("ring",), 1e-9, _lr_macdonald_p0, free=True),
    Check("route_agreement", ("ring",), 1e-7, _route_agreement,
          10, "ring route vs spectral route", _NM),
    Check("fusion_conjugation", ("ring",), 1e-9, _fusion_conjugation),
    Check("fusion_duality", ("ring",), 1e-9, _fusion_duality),
    # spectrum
    Check("truncated_commutativity", ("spectrum",), 1e-9, _truncated_commutativity,
          1, "truncated operator commutativity", _grid((2, 3, 4), (1, 2, 3))),
    Check("full_lattice_commutativity", ("spectrum",), 1e-10, _full_lattice_commutativity,
          free=True),
    Check("weighted_normality", ("spectrum",), 1e-9, _normality),
    Check("eigenvector_consistency", ("spectrum",), 1e-8, _eigenvector_consistency),
    Check("spectral_variety", ("spectrum",), 1e-7, _spectral_variety,
          7, "ideal generators vanish on the spectrum", _NM),
    Check("dual_orthogonality", ("spectrum",), 1e-8, _dual_orthogonality,
          8, "dual orthogonality with norm closed form", _NM),
    Check("verlinde_vs_projection", ("spectrum",), 1e-8, _verlinde_vs_projection,
          9, "spectral sum vs direct projection", _NM),
    Check("smatrix_identity", ("spectrum",), 1e-8, _smatrix_identity,
          9, "S Sinv = identity", _NM),
    Check("smatrix_determinant", ("spectrum",), 1e-6, _smatrix_determinant,
          9, "|det S| closed form (relative)", _NM),
)


def run_suite(name: str, n: int, m: int, seed: int = 0) -> list[OracleReport]:
    """Run every registry check of one suite (``all``: each check once); bad arguments raise before any check."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    check_seed(seed)
    if n < 2:  # one row has no joint spectrum, and the ideal generators have two
        raise ValueError(f"the checks require n >= 2, got n={n}")
    level_cone(n, m)  # the error of a negative m
    ctx = CheckContext(seed)
    return [
        check.report([{"n": n} if check.free else {"n": n, "m": m}], ctx)
        for check in REGISTRY
        if name == "all" or name in check.suites
    ]
