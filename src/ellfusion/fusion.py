"""Level-truncated fusion ring: ideal reduction, structure constants, S-matrix.

A fusion table is one float64 array ``values[lam, mu, kappa]`` over the
level cone's labels in canonical order, built one row lam at a time.  The
spectral (Verlinde) route, valid at every positive coupling, sums S-matrix
entries over the joint spectrum; S comes straight from the eigenvectors, so
this route evaluates no polynomial.  Its cross-check, the projection route,
pairs products with each P_kappa evaluated at the spectral points, without
reading S.  The ring (LR) route reduces products of eigenpolynomials modulo
the level ideal and needs a generic coupling, or the two-sided limit
protocol at resonance.  It too is computed one row lam at a time: the mu of
one weight form a group, whose products with P_lam run as one kernel of
``littlewood`` and are reduced through a stratum-key -> label map, and the
finished row is kept on the bracket table of its parameters, so every pair
call and table of the same (n, m, locking) reads it.  N^kappa_{lam,mu}
vanishes unless s = (|lam| + |mu| - |kappa|) / n is a non-negative integer
and kappa + s 1^n (whose underline is kappa) contains lam and mu row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import ComputationError, GenericityViolation
from .kernel import GENERICITY_TOL, ModelParams, g_regularity_margin, realify
from .littlewood import Factors, _admit, _factors, _products, _supported
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
    if len(lam) != params.n:
        raise ValueError(f"partition length {len(lam)} does not match n={params.n}")
    if not 1 <= r <= params.n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}")
    out: dict[Partition, float] = {}
    for nu in vertical_strips(lam, r):
        if span(nu) <= params.m:
            out[underline(nu)] = realify(coeffs.psi_prime(lam, nu, params))
    return out


class _ConeTerms:
    """Ring-route kernel inputs of one level cone (n, m), kept on a bracket table.

    ``factors[d]`` are the cone's labels of weight d as one product group,
    and ``maps[w]`` holds, for each key of the stratum (w, ., 0) in its
    order, the index of its underline among the labels, or N where its span
    exceeds m.  A stratum only grows by appending keys, so a map serves
    every leading block of the stratum it was built for.
    """

    __slots__ = ("factors", "maps")

    def __init__(self):
        self.factors: dict[int, Factors] = {}
        self.maps: dict[int, np.ndarray] = {}


@dataclass(frozen=True, eq=False)
class _LRRow:
    """The ring-route structure constants of one label lam against every label mu.

    ``values[mu, kappa]`` is read-only; ``flags`` maps the index of a mu to the
    labels the limit protocol flagged in lam x mu, and ``errors`` maps the
    index of a mu whose product raised to that exception.
    """

    values: np.ndarray
    flags: dict[int, frozenset]
    errors: dict[int, Exception]


@lru_cache(maxsize=64)
def _cone(n: int, m: int):
    """The level cone's labels, their index and its weight groups as label ranges.

    In canonical order the labels of one weight are contiguous.
    """
    labels = tuple(enumerate_level(n, m))
    starts = [i for i, lam in enumerate(labels) if i == 0 or weight(lam) != weight(labels[i - 1])]
    groups = tuple(zip(starts, starts[1:] + [len(labels)]))
    return labels, MappingProxyType({lam: i for i, lam in enumerate(labels)}), groups


def _label_map(keys, n: int, m: int) -> np.ndarray:
    """Index of the underline of each key among the labels of (n, m), or N where its span exceeds m."""
    labels, index, _ = _cone(n, m)
    return np.array([index[underline(k)] if span(k) <= m else len(labels) for k in keys], dtype=np.intp)


def _leg(lam: Partition, heads, params: ModelParams, cone: bool):
    """The products of lam with heads at params reduced modulo the level ideal.

    Returns values[j, kappa] and the support violation of each j that has
    one.  With cone set, heads is a weight group of the level cone, whose
    factors and label maps are kept on params' bracket table; any other
    group builds them for this call only.
    """
    labels, _, _ = _cone(params.n, params.m)
    N, d = len(labels), weight(heads[0])
    store = coeffs._table(params)
    terms = store.cones.setdefault((params.n, params.m), _ConeTerms()) if cone else _ConeTerms()
    stratum_key = _admit(lam, heads, params)
    if d not in terms.factors:
        terms.factors[d] = _factors(heads, params, store)
    table, a = _products(lam, terms.factors[d], params, store, stratum_key)
    kept, errors = _supported(lam, heads, table, a)
    w, size = stratum_key[0], len(table.keys)
    if len(terms.maps.get(w, ())) < size:
        terms.maps[w] = _label_map(table.keys, params.n, params.m)
    # Each kappa sums its keys in descending key order, as reduce_mod_ideal does.
    index = np.arange(len(heads))[:, None] * (N + 1) + terms.maps[w][:size]
    weights = np.where(kept, a, 0.0)[:, ::-1]
    reduced = np.bincount(index[:, ::-1].ravel(), weights=weights.ravel(), minlength=len(heads) * (N + 1))
    return reduced.reshape(len(heads), N + 1)[:, :N], errors


def _group(lam: Partition, heads, params: ModelParams, cone: bool):
    """values[j, kappa], flags {j: labels} and errors {j: exception} of lam x heads[j].

    The heads share their weight and last part, so the pair window
    |lam| + |mu| of the genericity gate is one for all of them.  Generic
    couplings run one leg.  Resonant level-locked couplings (e.g. integer g)
    use the two-sided limit protocol: symmetric averages at g +- delta for
    delta in LIMIT_DELTAS, four legs in all, reporting the tighter estimate
    and flagging the keys where the two estimates disagree by more than
    LIMIT_FLAG_TOL.  A head raises with the first leg that raised for it.
    """
    window = max(weight(lam) + weight(heads[0]), 1)
    margin = g_regularity_margin(params.alpha, params.g, params.n, window, jmax=params.n - 1)
    if margin >= GENERICITY_TOL:
        values, errors = _leg(lam, heads, params, cone)
        return values, {}, errors
    labels, _, _ = _cone(params.n, params.m)
    if not params.level_locked:
        exc = GenericityViolation("free-mode coupling is resonant on the requested span; no limit protocol")
        return np.zeros((len(heads), len(labels))), {}, dict.fromkeys(range(len(heads)), exc)
    legs = [
        _leg(lam, heads, params.with_g_locked(g), cone)
        for delta in LIMIT_DELTAS
        for g in (params.g - delta, params.g + delta)
    ]
    errors: dict[int, Exception] = {}
    for _, leg_errors in legs:
        for j, exc in leg_errors.items():
            errors.setdefault(j, exc)
    coarse, fine = (0.5 * (legs[k][0] + legs[k + 1][0]) for k in (0, 2))
    flagged = np.abs(coarse - fine) > LIMIT_FLAG_TOL
    flags = {
        j: frozenset(labels[k] for k in np.flatnonzero(flagged[j]))
        for j in np.flatnonzero(flagged.any(axis=1)).tolist()
        if j not in errors
    }
    return fine, flags, errors


def _lr_row(lam: Partition, params: ModelParams) -> _LRRow:
    """The LR row of the label lam, kept on params' bracket table."""
    store = coeffs._table(params)
    key = (params.n, params.m, params.level_locked, lam)
    row = store.lr_rows.get(key)
    if row is None:
        labels, _, groups = _cone(params.n, params.m)
        values = np.empty((len(labels), len(labels)))
        flags: dict[int, frozenset] = {}
        errors: dict[int, Exception] = {}
        for start, stop in groups:
            values[start:stop], group_flags, group_errors = _group(lam, labels[start:stop], params, True)
            flags.update((start + j, f) for j, f in group_flags.items())
            errors.update((start + j, e) for j, e in group_errors.items())
        values.flags.writeable = False
        row = store.lr_rows[key] = _LRRow(values, flags, errors)
    return row


def _raise_copy(exc: Exception):
    """Raise a fresh copy of a kept exception, so that no traceback builds up on it."""
    raise type(exc)(*exc.args)


def structure_constants_lr(
    lam, mu, params: ModelParams, return_flags: bool = False
):
    """Fusion structure constants via the ring route (reduced LR coefficients).

    The pair is read from the row of lam, which is computed for every label
    mu of the level cone at once (see ``_group`` for the limit protocol at
    resonant couplings) and kept on params' bracket table.  A pair outside
    the level cone runs alone and is not kept.  The result is a fresh dict,
    and with return_flags a fresh set of the flagged keys.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    labels, index, _ = _cone(params.n, params.m)
    if lam in index and mu in index:
        row, j = _lr_row(lam, params), index[mu]
        values, flags, errors = row.values, row.flags, row.errors
    else:
        values, flags, errors = _group(lam, (mu,), params, False)
        j = 0
    if j in errors:
        _raise_copy(errors[j])
    out = _nonzero(labels, values[j])
    return (out, set(flags.get(j, ()))) if return_flags else out


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
    labels = _cone(params.n, params.m)[0]
    values = np.empty((len(labels),) * 3)
    flagged: dict[tuple[Partition, Partition], set[Partition]] = {}
    for i, lam in enumerate(labels):
        row = _lr_row(lam, params)
        if row.errors:  # the first failing pair in row-major order
            _raise_copy(row.errors[min(row.errors)])
        values[i] = row.values
        flagged.update(((lam, labels[j]), set(f)) for j, f in row.flags.items())
    return FusionTable(params=params, labels=labels, values=values, route=route, flagged=flagged)
