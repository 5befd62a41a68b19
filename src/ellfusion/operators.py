"""Discrete difference operators on partitions and their joint spectrum.

``apply_D`` realizes the finitely-supported action on the full partition
lattice.  ``build_truncated`` materializes the level-truncated operators as
square matrices over the level-m cone; conjugated by the square root of the
orthogonality weights they become normal, commuting matrices, so the joint
eigenbasis is that of the Hermitian matrix A + A^H for a random complex
combination A of them.  It is obtained by one ``eigh``, refined by one
first-order step against A, and the joint eigenvalues are read off as
Rayleigh quotients.  Labels are assigned at p = 0 against the trigonometric
closed form and continued analytically in the nome by a guarded
predictor-corrector, which starts from the kept p = 0 spectrum of the same
coupling and seed: the first step tries the whole distance, later points
are predicted by the secant through the last two accepted points, and a step
is halved unless every new point stays within half its prediction's own gap
(the distance to the nearest other prediction) from that prediction, and
every prediction within half its current point's own gap from that point.
Each predicted point is matched to its nearest new point: balls of half the
own gaps are disjoint, so a match that passes that test is the optimal
assignment, and no assignment solver is needed.  The finished spectrum is
kept on the bracket table of its parameters, which p and -p share, so the
mirror leg runs no eigensolve.  The dual norms come from the eigenvectors; only
``value_table``, for the check routes, evaluates polynomials at the spectral
points, all of them in one ``evaluate_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationError, DegenerateCombination, TrackingAmbiguity
from .kernel import IMAG_TOL, ModelParams, qpow
from .partitions import Partition, enumerate_level, vertical_strips, weight
from .polynomials import build_P, elementary_symmetric, evaluate_batch
from . import coeffs

LatticeFunction = dict[Partition, complex]

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
    """Unlabeled joint eigen-data of the conjugated ops, from one Hermitian eigensolve.

    The conjugated M_r are normal and commute, so A = sum_r t_r M_r with
    complex t_r is normal, and H = A + A^H is Hermitian with the same
    eigenvectors (Fuglede's theorem) and eigenvalues 2 Re(lambda_A).  ``eigh``
    of H gives them as an orthonormal basis; a draw of t is retried while two
    eigenvalues of H lie within 1e-7 * max(1, max|h|).  One refinement step
    then removes the error of order eps * |A| / gap that H's conditioning
    leaves: with B = V^H A V and d = diag B, V <- V + V X, where
    X_ij = B_ij / (d_j - d_i) off the diagonal, and |d_j - d_i| is at least
    half the accepted gap of H.  The joint eigenvalues are the Rayleigh
    quotients of the refined vectors.  Every product is a dense BLAS one:
    sparse gathers over the few nonzeros per row of M_r took longer with
    numpy at every size measured, up to N = 495.
    """
    mats, w, labels = conjugated_matrices(params)
    N = len(labels)
    for _ in range(_COMBO_ATTEMPTS):
        re_t, im_t = rng.standard_normal((2, len(mats)))
        A = sum(ti * Mi for ti, Mi in zip(re_t + 1j * im_t, mats))
        h, V = np.linalg.eigh(A + A.conj().T)
        if N == 1 or np.diff(h).min() > 1e-7 * max(1.0, float(np.abs(h).max())):
            break
    else:
        raise DegenerateCombination(
            "random combinations kept producing clustered eigenvalues"
        )
    B = V.conj().T @ (A @ V)
    d = np.diag(B)
    den = d[None, :] - d[:, None]
    np.fill_diagonal(den, 1.0)
    X = B / den
    np.fill_diagonal(X, 0.0)
    vecs = V + V @ X
    conj = vecs.conj()
    nrm = np.einsum("ki,ki->i", conj, vecs)
    E = np.stack([np.einsum("ki,ki->i", conj, M @ vecs) for M in mats], axis=1) / nrm[:, None]
    return E, vecs, w, labels


def _row_gaps(E: np.ndarray) -> np.ndarray:
    """Distance from each row of E to its nearest other row (inf for a lone row)."""
    dist = np.linalg.norm(E[None, :, :] - E[:, None, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _within_gaps(E_new: np.ndarray, E_ref: np.ndarray) -> bool:
    """Whether each row i of E_new lies strictly within _GAP_SAFETY * gap_i of row i of E_ref.

    gap_i is the distance from row i of E_ref to its nearest other row
    (``_row_gaps``).  A NaN in either array fails the test.
    """
    moved = np.linalg.norm(E_new - E_ref, axis=1)
    return bool(np.all(moved < _GAP_SAFETY * _row_gaps(E_ref)))


def _match_rows(E_new: np.ndarray, E_ref: np.ndarray) -> np.ndarray:
    """Nearest new row for each reference row; perm[i] is the new row for ref row i.

    The map need not be injective, and it needs no assignment solver: every
    caller accepts a match only if ``_within_gaps(E_new[perm], E_ref)``, that
    is if each reference row i moved less than r_i = _GAP_SAFETY * gap_i,
    gap_i being its own distance to the nearest other reference row.  With
    _GAP_SAFETY <= 1/2, r_i + r_j <= |E_ref[i] - E_ref[j]|, so the open balls
    of radius r_i about the reference rows are disjoint.  In an accepted
    match each ball holds its row's nearest new row, so the map is injective;
    any other new row lies in another ball and is farther than r_i from row
    i, so the optimal assignment is the same permutation, and the unique one.
    A map that sends two reference rows to one new row leaves one of them
    outside its ball, and is rejected, as the assignment would be.
    """
    dist = np.linalg.norm(E_new[None, :, :] - E_ref[:, None, :], axis=2)
    return dist.argmin(axis=1)


def joint_spectrum(params: ModelParams, seed: int = 0) -> SpectrumResult:
    """Labeled joint spectrum with eigenvectors and dual norms, kept per parameter set.

    Labels are assigned at p = 0 against the closed form and continued to p
    by a guarded predictor-corrector (``_continue``).  The finished result is
    kept on the bracket table of params, keyed (n, m, level_locked, seed),
    and evicted with it.  The table is shared by p and -p, and the truncated
    matrices at -p are those at p bit for bit, so a call at either sign
    returns the kept arrays with ``params`` replaced and ``homotopy_steps``
    given the sign of p, and runs no eigensolve.
    """
    if not params.level_locked:
        raise ValueError("the joint spectrum requires level-locked parameters")
    if params.n < 2:
        raise ValueError(f"the joint spectrum requires n >= 2, got n={params.n}")
    key = (params.n, params.m, params.level_locked, seed)
    kept = coeffs._table(params).spectra.get(key)
    if kept is None:
        kept = _continue(params, seed)
        coeffs._table(params).spectra[key] = kept  # looked up again: the path may have evicted it
    if kept.params == params:
        return kept
    # The key leaves only the sign of p free.
    return replace(kept, params=params, homotopy_steps=tuple(-s for s in kept.homotopy_steps))


def _continue(params: ModelParams, seed: int) -> SpectrumResult:
    """Labeled joint spectrum at params, continued from the closed form at p = 0.

    At p = 0 the raw points are matched to the closed form under the gap test
    below.  At p != 0 the walk starts from the labeled spectrum at p = 0,
    ``joint_spectrum(params.with_p(0.0), seed)``, which the p = 0 bracket
    table keeps, so every nome of one (n, m, g, seed) shares one p = 0 solve;
    the walk draws its combinations from its own generator of the seed, so
    its result does not depend on whether that start was kept.  The first
    step tries the whole distance to p.  Once two points are accepted, the
    next points are predicted by the secant through the last two, and the
    new points are matched nearest-first to the predicted ones
    (``_match_rows``).  A step is accepted only if (a) every new point lies
    within _GAP_SAFETY times its predicted point's own gap (the distance to
    the nearest other predicted point) from that predicted point, and (b)
    every predicted point lies within _GAP_SAFETY times its current point's
    own gap among the current points from that current point
    (``_within_gaps``); otherwise the step is halved, down to _MIN_STEP.
    Test (a) makes the match exact, as those balls about the predicted
    points are disjoint; test (b) keeps the predictor from extrapolating
    through eigenvalues that close in on each other, where it would swap
    labels.  The step is never grown again: growing it after each accepted
    step took more eigensolves at every large-nome point measured.
    """
    rng = np.random.default_rng(seed)
    target = params.p
    if target == 0:
        E_raw, vecs, w, labels = _raw_spectrum(params, rng)
        closed = spectral_points_p0(params)
        C = np.array([closed[nu] for nu in labels], dtype=complex)
        perm = _match_rows(E_raw, C)
        if not _within_gaps(E_raw[perm], C):  # the continuation's test; it also rejects a NaN
            raise TrackingAmbiguity("p=0 spectrum does not match the closed form")
        E_cur, vec_cur, w_cur = E_raw[perm], vecs[:, perm], w
    else:
        E_cur = joint_spectrum(params.with_p(0.0), seed).e_matrix()
    t_prev = E_prev = None
    steps: list[float] = []

    # The path is p = target * t: t and the step h stay dyadic, so sums are
    # exact and the last point is target itself.
    t_cur, h = (0.0, 1.0) if target else (1.0, 0.0)
    while t_cur < 1.0:
        t_next = t_cur + h  # at most 1: t_cur is a multiple of h
        if E_prev is None:
            E_pred = E_cur
        else:
            E_pred = E_cur + (h / (t_cur - t_prev)) * (E_cur - E_prev)
        E_new, vecs_new, w_new, labels = _raw_spectrum(params.with_p(target * t_next), rng)
        perm = _match_rows(E_new, E_pred)
        if _within_gaps(E_new[perm], E_pred) and _within_gaps(E_pred, E_cur):
            t_prev, E_prev = t_cur, E_cur
            E_cur = E_new[perm]
            vec_cur = vecs_new[:, perm]
            w_cur = w_new
            t_cur = t_next
            steps.append(target * t_next)
        else:
            h /= 2.0
            if abs(target) * h < _MIN_STEP:
                raise TrackingAmbiguity(
                    f"homotopy step fell below {_MIN_STEP} at p={target * t_cur}"
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
