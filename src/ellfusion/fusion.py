"""Level-truncated fusion ring: ideal reduction, structure constants, S-matrix.

A fusion table is one float64 array ``values[lam, mu, kappa]`` over the
level cone's labels in canonical order, read row by row from ``_rows``.  The
spectral (Verlinde) route, valid at every positive coupling, sums S-matrix
entries over the joint spectrum; S comes straight from the eigenvectors, so
this route evaluates no polynomial.  Its cross-check, the projection route,
pairs products with each P_kappa evaluated at the spectral points, without
reading S.  The ring route is the Pieri rule of the factor ring: the
matrices E_r of multiplication by e_r, from the level-admissible strip
weights, run the Pieri recurrence of the eigenpolynomials, so values[lam]
is P_lam(E_1, ..., E_{n-1}), built in place in the one array it is kept in.
Its [mu, kappa] entry is N^kappa_{mu,lam} = N^kappa_{lam,mu}, as the ring
is commutative.  It needs no spectrum and builds no polynomial, and holds at
every positive level-locked coupling, resonant ones included; its table is
kept on the bracket table of its parameters, so every pair call and table of
the same (n, m) reads it, pair calls through a sparse index of its nonzeros
kept beside it (``_sparse_pairs``).  Every route answers a pair call with the
same off-cone rule (``_pair_index``).  N^kappa_{lam,mu} vanishes unless
s = (|lam| + |mu| - |kappa|) / n is an integer and
s >= max_j(max(lam_j, mu_j) - kappa_j), that is, unless kappa + s 1^n (whose
underline is kappa) contains lam and mu row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ComputationError, IllConditioned
from .kernel import ModelParams
from .operators import SpectrumResult, _spectrum_for, norm_vectors, projection_arrays
from .partitions import (
    LevelCone,
    Partition,
    check_partition,
    level_cone,
    r_index,
    span,
    underline,
    vertical_strips,
    weight,
)
from . import coeffs

if TYPE_CHECKING:
    from array import array

FUSION_IMAG_TOL = 1e-8
_DROP_REL = 1e-12
# kappa = max/min |c_lam| sqrt(Delta_lam) above this raises IllConditioned (see s_matrix):
# kappa reaches 2.7e7 over n <= 4, m <= 3, |p| <= 0.9, and at 1.7e10 S Sinv - I is 3.6e-5.
_KAPPA_LIMIT = 1e9


def reduce_mod_ideal(expansion: dict[Partition, float], params: ModelParams) -> dict[Partition, float]:
    """Reduce a basis expansion modulo the level ideal.

    Keys with span > m are dropped; surviving keys are re-keyed to their
    underline and accumulated.  A key of another length than n raises
    ``ValueError``, as do free parameters, whose keys of span > m form no ideal.
    """
    if not params.level_locked:
        raise ValueError("the level ideal requires level-locked parameters")
    out: dict[Partition, float] = {}
    for nu, v in expansion.items():
        nu = check_partition(nu, params.n)
        if span(nu) > params.m:
            continue
        key = underline(nu)
        out[key] = out.get(key, 0.0) + v
    return out


def fusion_pieri(lam, r: int, params: ModelParams) -> dict[Partition, float]:
    """Fusion coefficients for multiplication by e_r, from the product formula.

    These are the recurrence weights psi' of the level-admissible strips,
    re-keyed by underline; analytic in g > 0, so valid at resonant couplings.
    They are the rows of the matrices E_r of the ring route.  Without the level
    lock the keys of span > m form no ideal, so free parameters raise
    ``ValueError``.
    """
    if not params.level_locked:
        raise ValueError("the fusion Pieri rule requires level-locked parameters")
    lam = check_partition(lam, params.n)
    if not 1 <= r <= params.n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}")
    out: dict[Partition, float] = {}
    for nu in vertical_strips(lam, r):
        if span(nu) <= params.m:
            out[underline(nu)] = coeffs._psi(lam, nu, params)
    return out


def _pair_index(lam, mu, cone: LevelCone) -> tuple[int, int] | None:
    """Indices in ``cone.index`` of a pair call's factors, for every route.

    Factors that are labels of the cone, as they are, take one lookup each.
    Any other spelling (a list, an array, a factor off the cone or malformed)
    goes through ``check_partition`` first; a key that compares equal to a
    label (numpy ints, True) is one it turns into that label, and one of
    another length than n raises ``ValueError``.  A factor outside the level
    cone stands for its underline, since e_n = 1 in the ring; one of span > m
    lies in the level ideal, so the pair has no structure constants and the
    result is None.
    """
    index = cone.index
    try:
        return index[lam], index[mu]
    except (KeyError, TypeError):  # off the cone, malformed, or unhashable
        pass
    lam, mu = check_partition(lam, cone.n), check_partition(mu, cone.n)
    if span(lam) > cone.m or span(mu) > cone.m:
        return None
    return index[underline(lam)], index[underline(mu)]


def _spectral_pair(lam, mu, params: ModelParams, route: str, spectrum, seed: int) -> dict[Partition, float]:
    """The nonzero N^kappa of a pair on a spectral route (``_raw_rows``), after the off-cone rule of ``_pair_index``.

    Only the block row [kappa] of mu = labels[j] is computed, with its row of
    the support mask, and finished by ``_fusion_row`` as a one-row block.
    """
    cone = level_cone(params.n, params.m)
    pair = _pair_index(lam, mu, cone)
    raw = _raw_rows(params, route, spectrum, seed)
    if pair is None:
        return {}
    i, j = pair
    mus = slice(j, j + 1)
    mask = _support_row(cone.keys, cone.weights, i, mus)
    return _nonzero(cone.labels, _fusion_row(raw(i, mus), cone.labels, i, route, mask, j)[0])


def _ring_table(params: ModelParams) -> np.ndarray:
    """The ring-route values [lam, mu, kappa], read-only, kept on params' bracket table.

    In the factor ring, e_r P_lam is the sum of the level-admissible strip
    weights of ``fusion_pieri`` times P_kappa: the matrix E_r[lam, kappa],
    1 <= r <= n-1, gathered for the whole cone by ``coeffs.level_psi``,
    while e_n = 1.  The Pieri recurrence P_top = e_r P_lam -
    sum_{sib != top} psi'_{sib/lam} P_sib, with r = r_index(top),
    lam = top - 1^r and psi'_{top/lam} = 1, holds in the ring, so
    values[top] = E_r values[lam] - sum psi' values[sib] from values[0] = I
    gives values[lam] = P_lam(E) in the one array kept.  Its [mu, kappa]
    entry is N^kappa_{mu,lam} = N^kappa_{lam,mu}, as the ring is commutative.
    A sibling either meets the last row, so its underline weighs n less than
    top, or weighs as much and is lexicographically smaller, so labels are
    visited by weight, then lexicographically ascending.  Each row is then
    finished in place, with the finite-value and support checks of the
    spectral routes.

    One entry ("ring", n, m), shared by p and -p.  Without the level lock
    the keys of span > m form no ideal, so free parameters raise ``ValueError``.
    """
    if not params.level_locked:
        raise ValueError("the ring route requires level-locked parameters")
    return coeffs._kept(params, ("ring", params.n, params.m), lambda: _pieri_table(params))


def _pieri_table(params: ModelParams) -> np.ndarray:
    """The finished, read-only table of ``_ring_table``, built by the Pieri recurrence."""
    cone = level_cone(params.n, params.m)
    labels, index = cone.labels, cone.index
    N = len(labels)
    E = np.zeros((params.n, N, N))
    for r in range(1, params.n):
        rows, cols, vals = coeffs.level_psi(r, params)
        E[r, rows, cols] = vals
    values = np.empty((N, N, N))
    values[0] = np.eye(N)  # labels[0] is the empty partition
    for top in sorted(labels[1:], key=lambda kappa: (weight(kappa), kappa)):
        t, r = index[top], r_index(top)
        lam = index[tuple(x - (j < r) for j, x in enumerate(top))]
        np.matmul(E[r], values[lam], out=values[t])
        for k in np.flatnonzero(E[r, lam]).tolist():
            if k != t:
                values[t] -= E[r, lam, k] * values[k]
    for i, row in enumerate(_fusion_rows(cone, values.__getitem__, "lr")):
        values[i] = row
    values.flags.writeable = False
    return values


def _sparse_pairs(values: np.ndarray, labels: tuple[Partition, ...]) -> tuple[array, list[Partition], array]:
    """The nonzero entries of a finished table values[lam, mu, kappa], pair by pair (CSR).

    Pair p = N lam + mu holds entries ptr[p]:ptr[p + 1] of kappas (the label
    tuples themselves) and vals, kappa ascending, the order of ``_nonzero``.
    The three are sized exactly, 8 bytes per pair and 16 per nonzero, and
    filled one lam block at a time, so no transient outgrows a block.
    """
    from array import array  # loaded by the first pair index, not by ``import ellfusion``

    N = len(labels)
    nnz = sum(np.count_nonzero(block) for block in values)
    ptr, kappas, vals = array("q", [0]) * (N * N + 1), [None] * nnz, array("d", [0.0]) * nnz
    ptr_view, vals_view = np.frombuffer(ptr, dtype=np.int64), np.frombuffer(vals)
    label_of = np.fromiter(labels, dtype=object, count=N)
    end = 0
    for i, block in enumerate(values):
        flat = np.flatnonzero(block != 0)  # a mask's nonzeros are found far faster than a float array's
        mus, ks = np.divmod(flat, N)
        start, end = end, end + len(flat)
        ptr_view[i * N + 1 : (i + 1) * N + 1] = start + np.cumsum(np.bincount(mus, minlength=N))
        kappas[start:end] = label_of[ks].tolist()
        vals_view[start:end] = block.ravel()[flat]
    return ptr, kappas, vals


def _pair_dict(pairs: tuple[array, list[Partition], array], p: int) -> dict[Partition, float]:
    """The entries of pair p of a ``_sparse_pairs`` index, as a fresh dict kappa -> value."""
    ptr, kappas, vals = pairs
    a, b = ptr[p], ptr[p + 1]
    return dict(zip(kappas[a:b], vals[a:b]))


def structure_constants_lr(
    lam, mu, params: ModelParams, return_flags: bool = False
):
    """Fusion structure constants via the ring route (the Pieri rule on the level cone).

    The pair is read from the table of ``_ring_table``, which works at every
    positive level-locked coupling, resonant ones included, after the
    off-cone rule of ``_pair_index``.  The first pair call of an (n, m)
    keeps the ``_sparse_pairs`` index of that table beside it, and every
    pair call reads it.  The result is a fresh dict; with return_flags it
    comes with a set of flagged keys, which is always empty.
    """
    cone = level_cone(params.n, params.m)
    pair = _pair_index(lam, mu, cone)
    if not params.level_locked:  # off the cone too
        raise ValueError("the ring route requires level-locked parameters")
    key = ("pairs", params.n, params.m)
    pairs = coeffs._table(params).kept.get(key)  # read directly: a warm call builds no closure
    if pairs is None:
        # Bound as defaults: a closure over params and cone would make them cells on every call.
        pairs = coeffs._kept(params, key, lambda p=params, c=cone: _sparse_pairs(_ring_table(p), c.labels))
    out = {} if pair is None else _pair_dict(pairs, pair[0] * len(cone.labels) + pair[1])
    return (out, set()) if return_flags else out


@dataclass(frozen=True, eq=False)
class SMatrixData:
    """Spectral transform between the polynomial and point-mass bases; each determinant log is computed once."""

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

    @cached_property
    def _logs(self) -> tuple[float, float]:
        cvec, dvec, dual = norm_vectors(self.spectrum)
        closed = float(-np.sum(2.0 * np.log(np.abs(cvec)) + 0.5 * np.log(dvec * dual)))
        return float(np.linalg.slogdet(self.S)[1]), closed

    def log_det_magnitude(self) -> float:
        """ln |det S|, summed from the LU factors so that it cannot overflow."""
        return self._logs[0]

    def log_det_closed_form(self) -> float:
        """ln of the closed form |det S| = 1 / prod_lam c_lam^2 sqrt(Delta_lam * dual_lam)."""
        return self._logs[1]

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
    The conventional normalization is n = sum_lam Delta_lam.  All three are
    kept on the spectrum, which must be at params up to the sign of p.
    S Sinv - I = D^-1 (U U^H - I) D with U the unit eigenvectors and
    D = diag(|c| sqrt(Delta)), so kappa = max D / min D above _KAPPA_LIMIT
    raises ``IllConditioned``.
    """
    spec = _spectrum_for(params, spectrum, seed)

    def build():
        cvec, dvec, dual = norm_vectors(spec)
        scale = np.abs(cvec) * np.sqrt(dvec)
        if not scale.max() <= _KAPPA_LIMIT * scale.min():
            raise IllConditioned(f"eigenbasis scales spread by {scale.max() / scale.min():.3g} > {_KAPPA_LIMIT:g}")
        S = spec.vectors / (cvec[:, None] * cvec[None, :])
        Sinv = (cvec**2 * dual)[:, None] * S.conj().T * (cvec**2 * dvec)[None, :]
        return S, Sinv, float(dvec.sum())

    S, Sinv, normalization = spec.derived("s_matrix", build)
    return SMatrixData(params=params, labels=spec.labels, S=S, Sinv=Sinv, normalization=normalization, spectrum=spec)


def _support_row(keys: np.ndarray, w: np.ndarray, i: int, mus=slice(None)) -> np.ndarray:
    """Support mask [mu, kappa] of the row lam = keys[i], w the label weights, for the mu of the slice mus.

    True where s = (|lam| + |mu| - |kappa|) / n is an integer and
    s >= max_j(max(lam_j, mu_j) - kappa_j), that is, where kappa + s 1^n contains
    lam and mu; kappa_n = 0 makes the bound, and so s, non-negative.  The bound
    D[mu, kappa] is built in place by n - 1 maximum passes over one array, and s
    and its remainder come from those of each weight by n, so no [mu, kappa]
    division runs.
    """
    n = keys.shape[1]
    q, r = np.divmod(w, n)
    carry, rem = np.divmod(r[i] + r[mus], n)  # |lam| + |mu| = n (q[i] + q[mu] + carry[mu]) + rem[mu]
    s = np.subtract.outer(q[i] + q[mus] + carry, q)  # the quotient wherever rem[mu] == r[kappa]
    cover = np.maximum(keys[i], keys[mus])
    D = np.subtract.outer(cover[:, 0], keys[:, 0])
    part = np.empty_like(D)
    for j in range(1, n):
        np.maximum(D, np.subtract.outer(cover[:, j], keys[:, j], out=part), out=D)
    return np.equal.outer(rem, r) & (s >= D)


def _fusion_row(
    raw: np.ndarray, labels: tuple[Partition, ...], i: int, route: str, mask: np.ndarray, first: int = 0
) -> np.ndarray:
    """Real structure constants [mu, kappa] of the row lam = labels[i] from its raw block and support mask.

    Block row j is that of mu = labels[first + j].  A non-finite value raises.  Per pair,
    scale = max(1, max |raw|).  Off the support |raw| > FUSION_IMAG_TOL * scale, or on it
    an imaginary part > FUSION_IMAG_TOL * max(1, |real|), raises; real parts on the
    support up to _DROP_REL * scale become zero.
    The full residue test runs only where an imaginary part exceeds FUSION_IMAG_TOL or a
    value off the support is too large; elsewhere it can flag nothing.
    """
    mag = np.abs(raw)
    peak = mag.max(axis=1)  # NaN or inf exactly where a row holds a non-finite value (or |raw| overflows)
    if not np.isfinite(peak).all():  # NaN fails every comparison below, and would be written as 0.0
        finite = np.isfinite(raw)
        if not finite.all():
            j, k = np.argwhere(~finite)[0]
            raise ComputationError(
                f"fusion non-finite value: {labels[k]} -> {complex(raw[j, k])!r} "
                f"in {labels[i]} x {labels[first + j]} ({route})"
            )
    re = raw.real
    scale = np.maximum(1.0, peak)[:, None]
    outside = mag > FUSION_IMAG_TOL * scale
    if (outside > mask).any() or np.abs(raw.imag).max() > FUSION_IMAG_TOL:  # outside & ~mask
        residue = np.abs(raw.imag) > FUSION_IMAG_TOL * np.maximum(1.0, np.abs(re))
        bad = np.where(mask, residue, outside)
        if bad.any():
            j, k = np.argwhere(bad)[0]
            what = "imaginary residue" if mask[j, k] else "coefficient outside the support"
            raise ComputationError(
                f"fusion {what}: {labels[k]} -> {complex(raw[j, k])!r} "
                f"in {labels[i]} x {labels[first + j]} ({route})"
            )
    keep = np.abs(re) > _DROP_REL * scale
    keep &= mask
    return np.where(keep, re, 0.0)


def _fusion_rows(cone: LevelCone, raw, route: str):
    """The finished rows [mu, kappa] of cone.labels[i] from raw(i), for each label in order, computed as read."""
    for i in range(len(cone.labels)):
        yield _fusion_row(raw(i), cone.labels, i, route, _support_row(cone.keys, cone.weights, i))


def _raw_rows(params: ModelParams, route: str, spectrum: SpectrumResult | None = None, seed: int = 0):
    """The raw row source raw(i, mus) of spectral route "verlinde" or "projection", for ``_rows`` and the pair calls.

    Verlinde block i is sum_nu S_{i,nu} S_{mu,nu} Sinv_{nu,kappa} / S_{0,nu}, for mu in the slice mus.
    Projection block i, c_kappa^2 Delta_kappa sum_nu P_i P_mu conj(P_kappa) dual_nu at e_nu, reads no S.
    Any other route raises ``ValueError`` before a spectrum is built.
    """
    if route == "verlinde":
        sm = s_matrix(params, spectrum=spectrum, seed=seed)
        return lambda i, mus=slice(None): (sm.S[i] * sm.S[mus] / sm.S[0]) @ sm.Sinv
    if route != "projection":
        raise ValueError(f"unknown route {route!r}")
    spec = _spectrum_for(params, spectrum, seed)
    V, weights = projection_arrays(params, spec)  # kept on the spectrum
    paired, dual = V.conj().T * weights[None, :], spec.dual_norms
    return lambda i, mus=slice(None): (V[i] * dual * V[mus]) @ paired


def _nonzero(labels: tuple[Partition, ...], vec: np.ndarray) -> dict[Partition, float]:
    return {labels[k]: v for k, v in enumerate(vec.tolist()) if v}


def structure_constants_verlinde(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Fusion structure constants via the spectral sum.

    N^kappa_{lam,mu} = sum_nu S_{lam,nu} S_{mu,nu} Sinv_{nu,kappa} / S_{0,nu}.
    """
    return _spectral_pair(lam, mu, params, "verlinde", spectrum, seed)


def structure_constants_projection(
    lam, mu, params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> dict[Partition, float]:
    """Direct projection route: pair the product against each basis element.

    N^kappa = c_kappa^2 Delta_kappa sum_nu P_lam(e_nu) P_mu(e_nu)
    conj(P_kappa(e_nu)) dual_nu.  Used as a cross-check of the spectral sum.
    """
    return _spectral_pair(lam, mu, params, "projection", spectrum, seed)


@dataclass(frozen=True, eq=False)
class FusionTable:
    """Structure constants N^kappa_{lam,mu} = values[lam, mu, kappa] over ``labels``."""

    params: ModelParams
    labels: tuple[Partition, ...]
    values: np.ndarray  # read-only
    route: str

    def __post_init__(self):
        self.values.flags.writeable = False

    @cached_property
    def entries(self):
        """Read-only view: the nonzero values of each ordered pair, keyed by kappa."""
        pairs = _sparse_pairs(self.values, self.labels)
        keys = product(self.labels, repeat=2)
        return MappingProxyType({key: MappingProxyType(_pair_dict(pairs, p)) for p, key in enumerate(keys)})


def fusion_table(
    params: ModelParams,
    route: str = "verlinde",
    spectrum: SpectrumResult | None = None,
    seed: int = 0,
) -> FusionTable:
    """Structure constants for every ordered pair of labels on the level cone: the rows of ``_rows`` as one array."""
    labels, rows = _rows(params, route, spectrum, seed)
    if not isinstance(rows, np.ndarray):  # spectral rows, computed as read; the ring route's are its kept table
        values = np.empty((len(labels),) * 3)
        for i, row in enumerate(rows):
            values[i] = row
        rows = values
    return FusionTable(params=params, labels=labels, values=rows, route=route)


def _rows(params: ModelParams, route: str, spectrum: SpectrumResult | None = None, seed: int = 0):
    """The labels and the finished rows values[lam] ([mu, kappa]) of a route, in label order.

    With ``_raw_rows``, the one place where a route name picks a computation.
    Spectral rows are computed as they are read.  Route "lr" gives the kept
    read-only ring table itself, whose rows are views; a spectrum given to it
    must be at params up to the sign of p, as on the spectral routes.
    """
    cone = level_cone(params.n, params.m)
    if route != "lr":
        return cone.labels, _fusion_rows(cone, _raw_rows(params, route, spectrum, seed), route)
    if spectrum is not None:
        _spectrum_for(params, spectrum)
    return cone.labels, _ring_table(params)
