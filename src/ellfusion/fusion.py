"""Level-truncated fusion ring: ideal reduction, structure constants, S-matrix.

A fusion table is one float64 array ``values[lam, mu, kappa]`` over the
level cone's labels in canonical order, built one row lam at a time.  The
spectral (Verlinde) route, valid at every positive coupling, sums S-matrix
entries over the joint spectrum; S comes straight from the eigenvectors, so
this route evaluates no polynomial.  Its cross-check, the projection route,
pairs products with each P_kappa evaluated at the spectral points, without
reading S.  The ring (LR) route reduces products of eigenpolynomials modulo
the level ideal and needs a generic coupling, or the two-sided limit
protocol at resonance.  N^kappa_{lam,mu} vanishes unless
s = (|lam| + |mu| - |kappa|) / n is a non-negative integer and
kappa + s 1^n (whose underline is kappa) contains lam and mu row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import ComputationError, GenericityViolation
from .kernel import GENERICITY_TOL, ModelParams, g_regularity_margin, realify
from .littlewood import _lr_coefficients
from .operators import SpectrumResult, joint_spectrum, norm_vectors, value_table
from .partitions import (
    Partition,
    check_partition,
    enumerate_level,
    span,
    underline,
    vertical_strips,
    weight,
)
from . import coeffs

LIMIT_DELTAS = (1e-5, 1e-6)
LIMIT_FLAG_TOL = 1e-4
FUSION_IMAG_TOL = 1e-8
_DROP_REL = 1e-12


def reduce_mod_ideal(expansion: dict[Partition, float], params: ModelParams) -> dict[Partition, float]:
    """Reduce a basis expansion modulo the level ideal.

    Keys with span > m are dropped; surviving keys are re-keyed to their
    underline and accumulated.
    """
    out: dict[Partition, float] = {}
    for nu, v in expansion.items():
        if span(nu) > params.m:
            continue
        key = underline(nu)
        out[key] = out.get(key, 0.0) + v
    return out


def fusion_pieri(lam, r: int, params: ModelParams) -> dict[Partition, float]:
    """Fusion coefficients for multiplication by e_r, from the product formula.

    These are the recurrence weights psi' of the level-admissible strips,
    re-keyed by underline; analytic in g > 0, so valid at resonant couplings
    where the generic LR route is not.
    """
    lam = check_partition(lam)
    if not 1 <= r <= params.n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}")
    out: dict[Partition, float] = {}
    for nu in vertical_strips(lam, r):
        if span(nu) <= params.m:
            out[underline(nu)] = realify(coeffs.psi_prime(lam, nu, params))
    return out


def _lr_route_once(lam: Partition, mu: Partition, params: ModelParams) -> dict[Partition, float]:
    return reduce_mod_ideal(_lr_coefficients(lam, mu, params), params)


def _average_maps(a: dict[Partition, float], b: dict[Partition, float]) -> dict[Partition, float]:
    keys = set(a) | set(b)
    return {k: 0.5 * (a.get(k, 0.0) + b.get(k, 0.0)) for k in keys}


def structure_constants_lr(
    lam, mu, params: ModelParams, return_flags: bool = False
):
    """Fusion structure constants via the ring route (reduced LR coefficients).

    Generic couplings are evaluated directly.  Resonant level-locked
    couplings (e.g. integer g) use the two-sided limit protocol: symmetric
    averages at g +- delta for delta in LIMIT_DELTAS, reporting the tighter
    estimate and flagging keys where the two estimates disagree by more
    than LIMIT_FLAG_TOL.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    window = max(weight(lam) + weight(mu), 1)
    margin = g_regularity_margin(params.alpha, params.g, params.n, window, jmax=params.n - 1)
    if margin >= GENERICITY_TOL:
        out = _lr_route_once(lam, mu, params)
        return (out, set()) if return_flags else out
    if not params.level_locked:
        raise GenericityViolation(
            "free-mode coupling is resonant on the requested span; no limit protocol"
        )
    estimates = []
    for delta in LIMIT_DELTAS:
        lo = _lr_route_once(lam, mu, params.with_g_locked(params.g - delta))
        hi = _lr_route_once(lam, mu, params.with_g_locked(params.g + delta))
        estimates.append(_average_maps(lo, hi))
    coarse, fine = estimates
    flags = {
        k
        for k in set(coarse) | set(fine)
        if abs(coarse.get(k, 0.0) - fine.get(k, 0.0)) > LIMIT_FLAG_TOL
    }
    return (fine, flags) if return_flags else fine


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SMatrixData:
    """Spectral transform between the polynomial and point-mass bases."""

    params: ModelParams
    labels: tuple[Partition, ...]
    S: np.ndarray
    Sinv: np.ndarray
    normalization: float
    spectrum: SpectrumResult

    def identity_residual(self) -> float:
        """Largest entry of S @ Sinv - I."""
        N = len(self.labels)
        return float(np.abs(self.S @ self.Sinv - np.eye(N)).max())

    def log_det_magnitude(self) -> float:
        """ln |det S|, summed from the LU factors so that it cannot overflow."""
        return float(np.linalg.slogdet(self.S)[1])

    def log_det_closed_form(self) -> float:
        """ln of the closed form |det S| = 1 / prod_lam c_lam^2 sqrt(Delta_lam * dual_lam)."""
        cvec, dvec, dual = norm_vectors(self.params, self.spectrum)
        return float(-np.sum(2.0 * np.log(np.abs(cvec)) + 0.5 * np.log(dvec * dual)))

    def det_magnitude(self) -> float:
        """|det S|; inf where it leaves the binary64 range."""
        return _exp_or_inf(self.log_det_magnitude())

    def det_closed_form(self) -> float:
        """The closed form of |det S|; inf where it leaves the binary64 range."""
        return _exp_or_inf(self.log_det_closed_form())

    def det_residual(self) -> float:
        """Relative deviation of |det S| from its closed form.

        Compared in log space, since both sides leave the binary64 range at
        large nomes (n=4, m=4, p=0.9 already overflows det S).
        """
        return abs(math.expm1(self.log_det_magnitude() - self.log_det_closed_form()))


def s_matrix(params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0) -> SMatrixData:
    """S_{lam,nu} = P_lam(e_nu) / c_nu with the explicit inverse and scale.

    S is read off the eigenvectors, f_nu(lam) = c_lam P_lam(e_nu), as
    S_{lam,nu} = f_nu(lam) / (c_lam c_nu); no polynomial is evaluated.
    The inverse comes from dual orthogonality:
    Sinv_{lam,nu} = c_lam^2 dual_lam conj(S_{nu,lam}) c_nu^2 Delta_nu.
    The conventional normalization is n = sum_lam Delta_lam.
    """
    spec = spectrum if spectrum is not None else joint_spectrum(params, seed=seed)
    cvec, dvec, dual = norm_vectors(params, spec)
    S = spec.vectors / (cvec[:, None] * cvec[None, :])
    Sinv = (cvec**2 * dual)[:, None] * S.conj().T * (cvec**2 * dvec)[None, :]
    return SMatrixData(
        params=params,
        labels=spec.labels,
        S=S,
        Sinv=Sinv,
        normalization=float(dvec.sum()),
        spectrum=spec,
    )


def _support_row(keys: np.ndarray, i: int) -> np.ndarray:
    """Support mask [mu, kappa] of the row lam = keys[i]; kappa_n = 0 forces s >= 0."""
    w = keys.sum(axis=1)
    s, rem = np.divmod(w[i] + w[:, None] - w[None, :], keys.shape[1])
    cover = np.maximum(keys[i], keys)
    inside = (keys[None, :, :] + s[:, :, None] >= cover[:, None, :]).all(axis=2)
    return (rem == 0) & inside


def _fusion_row(raw: np.ndarray, labels: tuple[Partition, ...], i: int, route: str) -> np.ndarray:
    """Real structure constants [mu, kappa] of the row lam = labels[i] from its raw block.

    A non-finite value raises.  Per pair, scale = max(1, max |raw|).  Off the support
    |raw| > FUSION_IMAG_TOL * scale, or on it an imaginary part > FUSION_IMAG_TOL *
    max(1, |real|), raises; real parts on the support up to _DROP_REL * scale become zero.
    """
    finite = np.isfinite(raw)
    if not finite.all():  # NaN fails every comparison below, and would be written as 0.0
        j, k = np.argwhere(~finite)[0]
        raise ComputationError(
            f"fusion non-finite value: {labels[k]} -> {complex(raw[j, k])!r} "
            f"in {labels[i]} x {labels[j]} ({route})"
        )
    mask = _support_row(np.array(labels), i)
    mag, re = np.abs(raw), raw.real
    scale = np.maximum(1.0, mag.max(axis=1, keepdims=True))
    residue = np.abs(raw.imag) > FUSION_IMAG_TOL * np.maximum(1.0, np.abs(re))
    bad = np.where(mask, residue, mag > FUSION_IMAG_TOL * scale)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        what = "imaginary residue" if mask[j, k] else "coefficient outside the support"
        raise ComputationError(
            f"fusion {what}: {labels[k]} -> {complex(raw[j, k])!r} "
            f"in {labels[i]} x {labels[j]} ({route})"
        )
    return np.where(mask & (np.abs(re) > _DROP_REL * scale), re, 0.0)


def _verlinde_rows(sm: SMatrixData):
    """Raw row i: sum_nu S_{i,nu} S_{mu,nu} Sinv_{nu,kappa} / S_{0,nu}."""
    return lambda i: (sm.S[i] * sm.S / sm.S[0]) @ sm.Sinv


def _projection_rows(params: ModelParams, spec: SpectrumResult):
    """Raw row i: c_kappa^2 Delta_kappa sum_nu P_i P_mu conj(P_kappa) dual_nu at e_nu."""
    V = value_table(params, spec)  # evaluated once for every row
    cvec, dvec, dual = norm_vectors(params, spec)
    paired = V.conj().T * (cvec**2 * dvec)[None, :]
    return lambda i: (V[i] * dual * V) @ paired


def _nonzero(labels: tuple[Partition, ...], vec: np.ndarray) -> dict[Partition, float]:
    return {labels[k]: v for k, v in enumerate(vec.tolist()) if v}


def _pair(labels, lam, mu, rows, route: str) -> dict[Partition, float]:
    i, j = labels.index(check_partition(lam)), labels.index(check_partition(mu))
    return _nonzero(labels, _fusion_row(rows(i), labels, i, route)[j])


def structure_constants_verlinde(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Fusion structure constants via the spectral sum.

    N^kappa_{lam,mu} = sum_nu S_{lam,nu} S_{mu,nu} Sinv_{nu,kappa} / S_{0,nu}.
    """
    sm = s_matrix(params, spectrum=spectrum, seed=seed)
    return _pair(sm.labels, lam, mu, _verlinde_rows(sm), "verlinde")


def structure_constants_projection(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Direct projection route: pair the product against each basis element.

    N^kappa = c_kappa^2 Delta_kappa sum_nu P_lam(e_nu) P_mu(e_nu)
    conj(P_kappa(e_nu)) dual_nu.  Used as a cross-check of the spectral sum.
    """
    spec = spectrum if spectrum is not None else joint_spectrum(params, seed=seed)
    return _pair(spec.labels, lam, mu, _projection_rows(params, spec), "projection")


@dataclass(frozen=True, eq=False)
class FusionTable:
    """Structure constants N^kappa_{lam,mu} = values[lam, mu, kappa] over ``labels``."""

    params: ModelParams
    labels: tuple[Partition, ...]
    values: np.ndarray  # read-only
    route: str
    flagged: dict[tuple[Partition, Partition], set[Partition]]

    def __post_init__(self):
        self.values.flags.writeable = False

    @cached_property
    def entries(self):
        """Read-only view: the nonzero values of each ordered pair, keyed by kappa."""
        pairs = product(enumerate(self.labels), repeat=2)
        view = {(a, b): _nonzero(self.labels, self.values[i, j]) for (i, a), (j, b) in pairs}
        return MappingProxyType({pair: MappingProxyType(d) for pair, d in view.items()})

    def max_difference(self, other: "FusionTable") -> float:
        if self.labels != other.labels:
            raise ValueError("the tables have different labels")
        return float(np.abs(self.values - other.values).max())


def _table(params: ModelParams, labels, rows, route: str) -> FusionTable:
    N = len(labels)
    values = np.empty((N, N, N))
    for i in range(N):
        values[i] = _fusion_row(rows(i), labels, i, route)
    return FusionTable(params=params, labels=labels, values=values, route=route, flagged={})


def _verlinde_table(sm: SMatrixData) -> FusionTable:
    """The Verlinde-route table of one S-matrix."""
    return _table(sm.params, sm.labels, _verlinde_rows(sm), "verlinde")


def _projection_table(spec: SpectrumResult) -> FusionTable:
    """The projection-route table of one spectrum, computed without S or Sinv."""
    return _table(spec.params, spec.labels, _projection_rows(spec.params, spec), "projection")


def fusion_table(
    params: ModelParams,
    route: str = "verlinde",
    spectrum: SpectrumResult | None = None,
    seed: int = 0,
) -> FusionTable:
    """Structure constants for every ordered pair of labels on the level cone."""
    if route == "verlinde":
        return _verlinde_table(s_matrix(params, spectrum=spectrum, seed=seed))
    if route != "lr":
        raise ValueError(f"unknown route {route!r}")
    labels = tuple(enumerate_level(params.n, params.m))
    index = {kappa: k for k, kappa in enumerate(labels)}
    values = np.zeros((len(labels),) * 3)
    flagged: dict[tuple[Partition, Partition], set[Partition]] = {}
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            out, flags = structure_constants_lr(lam, mu, params, return_flags=True)
            values[i, j, [index[kappa] for kappa in out]] = list(out.values())
            if flags:
                flagged[(lam, mu)] = flags
    return FusionTable(params=params, labels=labels, values=values, route=route, flagged=flagged)
