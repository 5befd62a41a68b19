"""Discrete difference operators on partitions and their joint spectrum.

``apply_D`` realizes the finitely-supported action on the full partition
lattice.  ``build_truncated`` materializes the level-truncated operators as
square matrices over the level-m cone; conjugated by the square root of the
orthogonality weights they become normal matrices, so the joint spectrum is
obtained by diagonalizing a random real combination and reading off Rayleigh
ratios.  Labels are assigned at p = 0 against the trigonometric closed form
and continued analytically in the nome with an adaptive step that keeps
every eigenvalue within half the minimal inter-eigenvalue gap.  Each point
is matched to its nearest new point: balls of half the gap are disjoint, so
a match that passes that test is the optimal assignment, and no assignment
solver is needed.  The dual norms come from the eigenvectors; only
``value_table``, for the check routes, evaluates polynomials at the spectral
points, all of them in one ``evaluate_batch`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, DegenerateCombination, TrackingAmbiguity
from .kernel import IMAG_TOL, ModelParams, qpow
from .partitions import Partition, enumerate_level, vertical_strips, weight
from .polynomials import build_P, elementary_symmetric, evaluate_batch
from . import coeffs

LatticeFunction = dict[Partition, complex]

_START_STEP = 0.05
_MIN_STEP = 1e-4
_GAP_SAFETY = 0.5
_COMBO_ATTEMPTS = 12


def apply_D(r: int, f: LatticeFunction, lam: Partition, params: ModelParams) -> complex:
    """Value of the r-th difference operator applied to f, at the site lam."""
    if not 1 <= r <= params.n:
        raise ValueError(f"need 1 <= r <= n, got r={r}")
    total = 0.0 + 0.0j
    for nu in vertical_strips(lam, r):
        fv = f.get(nu)
        if fv:
            total += coeffs.hop_B(lam, nu, params) * fv
    return total


@dataclass(frozen=True)
class TruncatedOperator:
    """Level-truncated difference operator as a matrix over the level cone."""

    r: int
    params: ModelParams
    labels: tuple[Partition, ...]
    matrix: np.ndarray


def build_truncated(r: int, params: ModelParams) -> TruncatedOperator:
    """Matrix of the r-th truncated operator on the level-m cone.

    Row lam gets the hop weight B_{nu/lam} in column underline(nu) for every
    size-r strip nu with span(nu) <= m; other entries are zero.  The weights
    of all strips come from one gather over the bracket table.
    """
    if not params.level_locked:
        raise ValueError("truncated operators require level-locked parameters")
    if not 1 <= r <= params.n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}")
    labels = enumerate_level(params.n, params.m)
    rows, cols, vals = coeffs.level_hops(r, params)
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    mat[rows, cols] = vals
    return TruncatedOperator(r, params, tuple(labels), mat)


def _realify_all(values: np.ndarray, what: str) -> np.ndarray:
    """Real parts of values that must be real, as ``realify`` checks one value."""
    if np.any(np.abs(values.imag) > IMAG_TOL * np.maximum(1.0, np.abs(values.real))):
        raise ComputationError(f"unexpected imaginary residue in the {what}")
    return values.real.copy()


def delta_vector(params: ModelParams) -> np.ndarray:
    """Orthogonality weights over the level cone, checked real positive."""
    vals = _realify_all(coeffs.level_delta(params), "orthogonality weights")
    if np.any(vals <= 0):
        raise ComputationError("orthogonality weights must be positive on the level cone")
    return vals


def conjugated_matrices(params: ModelParams) -> tuple[list[np.ndarray], np.ndarray, tuple[Partition, ...]]:
    """W D_r W^-1 for r = 1..n-1 with W = diag(sqrt(Delta)); these are normal."""
    ops = [build_truncated(r, params) for r in range(1, params.n)]
    w = np.sqrt(delta_vector(params))
    mats = [(w[:, None] * op.matrix) / w[None, :] for op in ops]
    return mats, w, ops[0].labels


def normality_residual(op: TruncatedOperator) -> float:
    """Relative Frobenius residual of M M* - M* M for M = W D W^-1."""
    w = np.sqrt(delta_vector(op.params))
    M = (w[:, None] * op.matrix) / w[None, :]
    comm = M @ M.conj().T - M.conj().T @ M
    denom = np.linalg.norm(M, "fro") ** 2
    return float(np.linalg.norm(comm, "fro") / max(denom, 1e-300))


def spectral_points_p0(params: ModelParams) -> dict[Partition, np.ndarray]:
    """Trigonometric closed form of the joint eigenvalues at p = 0.

    e_{r,nu} = q^(-r(|nu|/n + (n-1)g/2)) e_r(q^(nu_1+(n-1)g), ..., q^(nu_{n-1}+g), 1)
    with q = exp(i*alpha).
    """
    n, g, alpha = params.n, params.g, params.alpha
    out: dict[Partition, np.ndarray] = {}
    for nu in enumerate_level(params.n, params.m):
        xs = [qpow(alpha, nu[j] + (n - 1 - j) * g) for j in range(n - 1)] + [1.0 + 0.0j]
        es = elementary_symmetric(xs)
        wnu = weight(nu)
        vals = [
            qpow(alpha, -r * (wnu / n + (n - 1) * g / 2.0)) * es[r - 1]
            for r in range(1, n)
        ]
        out[nu] = np.array(vals, dtype=complex)
    return out


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Joint spectrum of the truncated operators as read-only arrays over ``labels``.

    ``e[nu]`` is the full e-vector of the point nu (e_n = 1);
    ``vectors[lam, nu]`` = f_nu(lam) = c_lam P_lam(e_nu), the eigenvector of
    the point nu scaled to 1 at the origin row; ``dual_norms[nu]`` is
    1 / sum_lam |f_nu(lam)|^2 Delta_lam.
    """

    params: ModelParams
    labels: tuple[Partition, ...]
    e: np.ndarray
    vectors: np.ndarray
    dual_norms: np.ndarray
    seed: int
    homotopy_steps: tuple[float, ...]

    def __post_init__(self):
        for arr in (self.e, self.vectors, self.dual_norms):
            arr.flags.writeable = False

    def e_matrix(self) -> np.ndarray:
        """Rows of truncated eigenvalues (without the trailing 1), label order."""
        return self.e[:, :-1]


def _raw_spectrum(params: ModelParams, rng: np.random.Generator):
    """Unlabeled joint eigen-data of a random combination of the conjugated ops."""
    mats, w, labels = conjugated_matrices(params)
    N = len(labels)
    vals = vecs = None
    for _ in range(_COMBO_ATTEMPTS):
        t = rng.standard_normal(len(mats))
        A = sum(ti * Mi for ti, Mi in zip(t, mats))
        vals, vecs = np.linalg.eig(A)
        if N == 1:
            break
        scale = max(1.0, float(np.abs(vals).max()))
        i, j = np.triu_indices(N, 1)
        gap = np.abs(vals[i] - vals[j]).min()
        if gap > 1e-7 * scale:
            break
    else:
        raise DegenerateCombination(
            "random combinations kept producing clustered eigenvalues"
        )
    conj = vecs.conj()
    nrm = np.einsum("ki,ki->i", conj, vecs)
    E = np.stack([np.einsum("ki,ki->i", conj, M @ vecs) for M in mats], axis=1) / nrm[:, None]
    return E, vecs, w, labels


def _min_gap(E: np.ndarray) -> float:
    N = E.shape[0]
    if N < 2:
        return math.inf
    i, j = np.triu_indices(N, 1)
    return float(np.linalg.norm(E[i] - E[j], axis=1).min())


def _match_rows(E_new: np.ndarray, E_ref: np.ndarray) -> np.ndarray:
    """Nearest new row for each reference row; perm[i] is the new row for ref row i.

    The map need not be injective, and it needs no assignment solver: every
    caller accepts a match only if each row moved less than _GAP_SAFETY * gap,
    gap being the least distance between two reference rows.  With
    _GAP_SAFETY <= 1/2 the balls of radius gap/2 about the reference rows are
    disjoint, so in an accepted match each reference row's nearest new row is
    unique and is its partner, and the optimal assignment is the same
    permutation.  A map that sends two reference rows to one new row moves one
    of them by at least gap/2, and is rejected, as the assignment would be.
    """
    dist = np.linalg.norm(E_new[None, :, :] - E_ref[:, None, :], axis=2)
    return dist.argmin(axis=1)


def joint_spectrum(params: ModelParams, seed: int = 0) -> SpectrumResult:
    """Labeled joint spectrum with eigenvectors and dual norms.

    Labels are assigned at p = 0 against the closed form; for p != 0 the
    points are continued from p = 0 with adaptive steps (start 0.05, halve
    on ambiguity, floor 1e-4), matching each point to its nearest new point
    and requiring every movement to stay below half the minimal gap.  That
    test makes the nearest-point match exact: balls of half the gap about
    the old points are disjoint, so an accepted match is the optimal
    assignment (see ``_match_rows``).
    """
    rng = np.random.default_rng(seed)
    base_params = params.with_p(0.0)
    E_raw, vecs, w, labels = _raw_spectrum(base_params, rng)
    closed = spectral_points_p0(params)
    C = np.array([closed[nu] for nu in labels], dtype=complex)
    perm = _match_rows(E_raw, C)
    gap0 = _min_gap(C)
    moved = float(np.linalg.norm(E_raw[perm] - C, axis=1).max())
    if not moved < _GAP_SAFETY * gap0:  # the continuation's test; it also rejects a NaN
        raise TrackingAmbiguity(
            f"p=0 spectrum does not match the closed form (moved {moved:.3e}, gap {gap0:.3e})"
        )
    E_cur = E_raw[perm]
    vec_cur = vecs[:, perm]
    w_cur = w
    steps: list[float] = []

    target = params.p
    p_cur = 0.0
    step = math.copysign(_START_STEP, target) if target else 0.0
    while p_cur != target:
        p_next = p_cur + step
        if (target > 0 and p_next > target) or (target < 0 and p_next < target):
            p_next = target
        E_new, vecs_new, w_new, _ = _raw_spectrum(params.with_p(p_next), rng)
        perm = _match_rows(E_new, E_cur)
        gap = _min_gap(E_cur)
        moved = float(np.linalg.norm(E_new[perm] - E_cur, axis=1).max())
        if moved < _GAP_SAFETY * gap:
            E_cur = E_new[perm]
            vec_cur = vecs_new[:, perm]
            w_cur = w_new
            p_cur = p_next
            steps.append(p_next)
        else:
            step /= 2.0
            if abs(step) < _MIN_STEP:
                raise TrackingAmbiguity(
                    f"homotopy step fell below {_MIN_STEP} at p={p_cur}"
                )

    F = vec_cur / w_cur[:, None]
    if np.any(np.abs(F[0]) < 1e-12 * np.abs(F).max(axis=0)):
        raise ComputationError("eigenvector vanishes at the origin site")
    F = F / F[0]
    return SpectrumResult(
        params=params,
        labels=tuple(labels),
        e=np.hstack([E_cur, np.ones((len(labels), 1), dtype=complex)]),
        vectors=F,
        dual_norms=1.0 / (np.abs(F) ** 2 * delta_vector(params)[:, None]).sum(axis=0),
        seed=seed,
        homotopy_steps=tuple(steps),
    )


def value_table(params: ModelParams, spec: SpectrumResult) -> np.ndarray:
    """V[lam, nu] = P_lam(e_nu) over the labels of a spectrum, in one batch."""
    return evaluate_batch([build_P(lam, params) for lam in spec.labels], spec.e)[0]


def norm_vectors(params: ModelParams, spec: SpectrumResult):
    """c_lam, Delta_lam and the dual norms over the labels of a spectrum (the level cone)."""
    cvec = _realify_all(coeffs.level_c(params), "normalizations")
    return cvec, delta_vector(params), spec.dual_norms


def dual_orthogonality_check(
    params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> float:
    """Worst deviation of the dual Gram matrix from the predicted diagonal.

    Off-diagonal entries are normalized by the geometric mean of the
    diagonals; diagonal entries are compared in relative error against
    1 / (c_lam^2 Delta_lam).
    """
    spec = spectrum if spectrum is not None else joint_spectrum(params, seed=seed)
    vals = value_table(params, spec)
    cvec, dvec, dual = norm_vectors(params, spec)
    G = (vals * dual[None, :]) @ vals.conj().T
    targets = 1.0 / (cvec**2 * dvec)
    diag = np.abs(np.diag(G))
    off = np.abs(G) / np.sqrt(diag[:, None] * diag[None, :])
    np.fill_diagonal(off, 0.0)
    return float(max((np.abs(np.diag(G) - targets) / np.abs(targets)).max(), off.max()))
