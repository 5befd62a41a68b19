"""Level-truncated fusion ring: ideal reduction, structure constants, S-matrix.

Two independent routes to the structure constants are kept side by side.
The spectral (Verlinde) route sums S-matrix entries over the joint spectrum
and works for every positive coupling; the ring (LR) route reduces products
of eigenpolynomials modulo the level ideal and needs a generic coupling, or
the two-sided limit protocol when the coupling is resonant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, GenericityViolation
from .kernel import GENERICITY_TOL, ModelParams, g_regularity_margin, realify
from .littlewood import lr_coefficients
from .operators import SpectrumResult, delta_vector, joint_spectrum
from .partitions import (
    Partition,
    check_partition,
    enumerate_level,
    span,
    underline,
    vertical_strips,
    weight,
)
from .polynomials import build_P, evaluate
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


def _admissible_outputs(lam: Partition, mu: Partition, n: int, m: int) -> set[Partition]:
    """underline(nu) over nu containing both factors with additive weight, span <= m."""
    total = weight(lam) + weight(mu)
    out: set[Partition] = set()

    def rec(prefix: tuple[int, ...], remaining: int) -> None:
        j = len(prefix)
        if j == n:
            if remaining == 0:
                nu = prefix
                if nu[0] - nu[-1] <= m:
                    out.add(underline(nu))
            return
        lo = max(lam[j], mu[j])
        hi = min(prefix[j - 1], remaining) if j else remaining
        for v in range(lo, hi + 1):
            rec(prefix + (v,), remaining - v)

    rec((), total)
    return out


def _lr_route_once(lam: Partition, mu: Partition, params: ModelParams) -> dict[Partition, float]:
    return reduce_mod_ideal(lr_coefficients(lam, mu, params), params)


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
        cvec = np.array([realify(coeffs.c_norm(lam, self.params)) for lam in self.labels])
        dvec = delta_vector(self.params, self.labels)
        dual = np.array([self.spectrum.points[nu].dual_norm for nu in self.labels])
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

    The inverse comes from dual orthogonality:
    Sinv_{lam,nu} = c_lam^2 dual_lam conj(S_{nu,lam}) c_nu^2 Delta_nu.
    The conventional normalization is n = sum_lam Delta_lam.
    """
    spec = spectrum if spectrum is not None else joint_spectrum(params, seed=seed)
    labels = spec.labels
    N = len(labels)
    cvec = np.array([realify(coeffs.c_norm(lam, params)) for lam in labels])
    dvec = delta_vector(params, labels)
    dual = np.array([spec.points[nu].dual_norm for nu in labels])
    polys = [build_P(lam, params) for lam in labels]
    S = np.empty((N, N), dtype=complex)
    for j, nu in enumerate(labels):
        e_full = spec.points[nu].e
        for i in range(N):
            S[i, j] = evaluate(polys[i], e_full) / cvec[j]
    Sinv = (cvec**2 * dual)[:, None] * S.conj().T * (cvec**2 * dvec)[None, :]
    return SMatrixData(
        params=params,
        labels=labels,
        S=S,
        Sinv=Sinv,
        normalization=float(dvec.sum()),
        spectrum=spec,
    )


def _finalize_fusion_entries(
    raw: dict[Partition, complex],
    support: set[Partition],
    context: str,
) -> dict[Partition, float]:
    scale = max((abs(v) for v in raw.values()), default=0.0)
    out: dict[Partition, float] = {}
    for kappa, v in raw.items():
        if kappa not in support:
            if abs(v) > FUSION_IMAG_TOL * max(1.0, scale):
                raise ComputationError(
                    f"fusion coefficient outside the support: {kappa} -> {v!r} in {context}"
                )
            continue
        val = realify(v, FUSION_IMAG_TOL)
        if abs(val) > _DROP_REL * max(1.0, scale):
            out[kappa] = val
    return out


def structure_constants_verlinde(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Fusion structure constants via the spectral sum.

    N^kappa_{lam,mu} = sum_nu S_{lam,nu} S_{mu,nu} Sinv_{nu,kappa} / S_{0,nu}.
    """
    sm = s_matrix(params, spectrum=spectrum, seed=seed)
    return _verlinde_from_smatrix(lam, mu, sm)


def _verlinde_from_smatrix(lam, mu, sm: SMatrixData) -> dict[Partition, float]:
    lam = check_partition(lam)
    mu = check_partition(mu)
    labels = sm.labels
    index = {l: i for i, l in enumerate(labels)}
    i_lam, i_mu = index[lam], index[mu]
    weights = sm.S[i_lam, :] * sm.S[i_mu, :] / sm.S[0, :]
    vec = weights @ sm.Sinv
    raw = {kappa: complex(vec[k]) for k, kappa in enumerate(labels)}
    support = _admissible_outputs(lam, mu, sm.params.n, sm.params.m)
    return _finalize_fusion_entries(raw, support, f"{lam} x {mu} (spectral)")


def structure_constants_projection(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Direct projection route: pair the product against each basis element.

    N^kappa = c_kappa^2 Delta_kappa sum_nu P_lam(e_nu) P_mu(e_nu)
    conj(P_kappa(e_nu)) dual_nu.  Used as a cross-check of the spectral sum.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    spec = spectrum if spectrum is not None else joint_spectrum(params, seed=seed)
    labels = spec.labels
    cvec = np.array([realify(coeffs.c_norm(l, params)) for l in labels])
    dvec = delta_vector(params, labels)
    dual = np.array([spec.points[nu].dual_norm for nu in labels])
    polys = {l: build_P(l, params) for l in labels}
    pl = np.array([evaluate(polys[lam], spec.points[nu].e) for nu in labels])
    pm = np.array([evaluate(polys[mu], spec.points[nu].e) for nu in labels])
    raw: dict[Partition, complex] = {}
    for k, kappa in enumerate(labels):
        pk = np.array([evaluate(polys[kappa], spec.points[nu].e) for nu in labels])
        raw[kappa] = complex(cvec[k] ** 2 * dvec[k] * np.sum(pl * pm * np.conj(pk) * dual))
    support = _admissible_outputs(lam, mu, params.n, params.m)
    return _finalize_fusion_entries(raw, support, f"{lam} x {mu} (projection)")


@dataclass(frozen=True)
class FusionTable:
    """Full table of structure constants over the level cone."""

    params: ModelParams
    labels: tuple[Partition, ...]
    entries: dict[tuple[Partition, Partition], dict[Partition, float]]
    route: str
    flagged: dict[tuple[Partition, Partition], set[Partition]]

    def coefficient(self, lam, mu, kappa) -> float:
        return self.entries.get((tuple(lam), tuple(mu)), {}).get(tuple(kappa), 0.0)

    def max_difference(self, other: "FusionTable") -> float:
        worst = 0.0
        for pair in set(self.entries) | set(other.entries):
            a = self.entries.get(pair, {})
            b = other.entries.get(pair, {})
            for kappa in set(a) | set(b):
                worst = max(worst, abs(a.get(kappa, 0.0) - b.get(kappa, 0.0)))
        return worst


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
    entries: dict[tuple[Partition, Partition], dict[Partition, float]] = {}
    flagged: dict[tuple[Partition, Partition], set[Partition]] = {}
    for lam in labels:
        for mu in labels:
            out, flags = structure_constants_lr(lam, mu, params, return_flags=True)
            entries[(lam, mu)] = out
            if flags:
                flagged[(lam, mu)] = flags
    return FusionTable(params=params, labels=labels, entries=entries, route=route, flagged=flagged)


def _verlinde_table(sm: SMatrixData) -> FusionTable:
    """The Verlinde-route table of one S-matrix."""
    labels = tuple(enumerate_level(sm.params.n, sm.params.m))
    entries = {(lam, mu): _verlinde_from_smatrix(lam, mu, sm) for lam in labels for mu in labels}
    return FusionTable(
        params=sm.params, labels=labels, entries=entries, route="verlinde", flagged={}
    )
