"""Discrete difference operators on partitions and their joint spectrum.

``apply_D`` realizes the finitely-supported action on the full partition
lattice.  ``build_truncated`` materializes the level-truncated operators as
square matrices over the level-m cone; conjugated by the square root of the
orthogonality weights they become normal, commuting matrices, so the joint
eigenbasis is that of the Hermitian matrix A + A^H for a random complex
combination A of them, its coefficients drawn from stdlib ``random`` (so the
spectral path never imports ``numpy.random``).  It is obtained by one
``eigh``, refined by one first-order step against A, and the joint
eigenvalues are read off as Rayleigh quotients.  The spectrum is graded by
the simple current J of the level cone: its permutation matrix P_J
commutes with every conjugated D_r (checked on every edge), and P_J^n = I,
so each spectral point carries a charge k, P_J's eigenvalue there being
w^k with w = exp(2 pi i / n); the charge is read from P_J's Rayleigh
quotient and cannot change along the nome path.  At p = 0 the points have a
trigonometric closed form, and the point nu has the charge k = -|nu| mod n
(minus its n-ality, Schellekens & Yankielowicz, Int. J. Mod. Phys. A 5
(1990)).  The labels are continued analytically in the nome from that
closed form by a guarded predictor-corrector, which solves no p = 0
spectrum unless p = 0 is asked for: the first step tries the whole
distance, later points are predicted by the secant through the last two
accepted points, and a step is halved unless every new point stays within
half its prediction's own gap (the distance to the nearest other prediction
of the same charge) from that prediction, and every prediction within half
its current point's own gap from that point.  Each predicted point is
matched to its nearest new point of the same charge: balls of half the own
gaps are disjoint within a charge sector, so a match that passes that test
is the optimal assignment, and no assignment solver is needed; points of
different charge are never compared, so a near-crossing between sectors
costs no halving.  The finished spectrum is kept on the bracket table of
its parameters, which p and -p share, and so is its -p mirror, built once:
the mirror leg runs no eigensolve and, warm, builds nothing.
The dual norms come from the eigenvectors; only ``projection_arrays``, for
the check routes, evaluates polynomials at the spectral points, all of them
in one ``evaluate_batch`` call, kept on the spectrum as S is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ComputationError, DegenerateCombination, GradingViolation, TrackingAmbiguity
from .kernel import ModelParams, qpow
from .partitions import Partition, _read_only, check_partition, level_cone, vertical_strips, weight
from .polynomials import build_P, elementary_symmetric, evaluate_batch
from . import coeffs

LatticeFunction = dict[Partition, complex]

_MIN_STEP = 1e-4
_GAP_SAFETY = 0.5
_COMBO_ATTEMPTS = 12
# A relative residual of one edge of [P_J, M_r] above this raises GradingViolation;
# 4e-14 measured at n <= 5, m <= 8, up to p = 0.97.
_COMMUTATOR_TOL = 1e-8
# So does a phase of P_J's Rayleigh quotient further than this (in radians) from
# every w^k; 1e-15 measured on the same points.
_PHASE_TOL = 1e-6


def apply_D(r: int, f: LatticeFunction, lam: Partition, params: ModelParams) -> complex:
    """Value of the r-th difference operator applied to f, at the site lam, a partition of length n."""
    lam = check_partition(lam, params.n)
    total = 0.0 + 0.0j
    for nu in vertical_strips(lam, r):
        fv = f.get(nu)
        if fv:
            total += coeffs._hop(lam, nu, params) * fv
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
    labels = level_cone(params.n, params.m).labels
    rows, cols, vals = coeffs.level_hops(r, params)
    # The weights are real, but the matrix stays complex: ``conjugated_matrices``
    # divides it by w, and numpy divides a complex array by a real one through
    # the reciprocal, so a real matrix would move the last bit of the spectrum.
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    mat[rows, cols] = vals
    return TruncatedOperator(r, params, labels, mat)


def delta_vector(params: ModelParams) -> np.ndarray:
    """Orthogonality weights over the level cone, checked positive."""
    vals = coeffs.level_delta(params)
    if np.any(vals <= 0):
        raise ComputationError("orthogonality weights must be positive on the level cone")
    return vals


def conjugated_matrices(params: ModelParams) -> tuple[list[np.ndarray], np.ndarray]:
    """W D_r W^-1 for r = 1..n-1 with W = diag(sqrt(Delta)), and sqrt(Delta); the matrices are normal."""
    ops = [build_truncated(r, params).matrix for r in range(1, params.n)]
    w = np.sqrt(delta_vector(params))
    return [(w[:, None] * D) / w[None, :] for D in ops], w


def normality_residual(op: TruncatedOperator) -> float:
    """Relative Frobenius residual of M M* - M* M for M = W D W^-1."""
    w = np.sqrt(delta_vector(op.params))
    M = (w[:, None] * op.matrix) / w[None, :]
    comm = M @ M.conj().T - M.conj().T @ M
    denom = np.linalg.norm(M, "fro") ** 2
    return float(np.linalg.norm(comm, "fro") / max(denom, 1e-300))


def spectral_points_p0(params: ModelParams) -> np.ndarray:
    """Trigonometric closed form of the joint eigenvalues at p = 0, one row per label of the level cone.

    Row nu is (e_{1,nu}, ..., e_{n-1,nu}) with
    e_{r,nu} = q^(-r(|nu|/n + (n-1)g/2)) e_r(q^(nu_1+(n-1)g), ..., q^(nu_{n-1}+g), 1)
    and q = exp(i*alpha).
    """
    n, g, alpha = params.n, params.g, params.alpha
    rows = []
    for nu in level_cone(params.n, params.m).labels:
        xs = [qpow(alpha, nu[j] + (n - 1 - j) * g) for j in range(n - 1)] + [1.0 + 0.0j]
        es = elementary_symmetric(xs)
        wnu = weight(nu)
        rows.append([qpow(alpha, -r * (wnu / n + (n - 1) * g / 2.0)) * es[r - 1] for r in range(1, n)])
    return np.array(rows, dtype=complex)


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
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.e, self.vectors, self.dual_norms):
            arr.flags.writeable = False

    def derived(self, name: str, build):
        """build() of this spectrum's own values, kept read-only under name.

        The kept -p mirror of ``joint_spectrum`` shares this dict with the
        kept spectrum, so a value built at either sign serves both; a copy
        made by ``dataclasses.replace`` builds its own.
        """
        value = self._derived.get(name)
        if value is None:
            value = build()
            _read_only(*(x for x in value if isinstance(x, np.ndarray)))
            self._derived[name] = value
        return value

    def e_matrix(self) -> np.ndarray:
        """Rows of truncated eigenvalues (without the trailing 1), label order."""
        return self.e[:, :-1]


def _charges(mats: list[np.ndarray], vecs: np.ndarray, n: int, m: int) -> np.ndarray:
    """The Z_n charge k of each column of vecs, a joint eigenvector of the conjugated M_r.

    The simple current acts on the level cone as its permutation matrix P_J,
    with no weights: the elliptic operators are J-invariant, B_{J nu/J lam}
    = B_{nu/lam} and Delta_{J lam} = Delta_lam, as the reflection of the
    bracket under the level lock predicts ([m + ng - z] = [z], since
    theta_1(pi - w) = theta_1(w) and alpha (m + ng) = 2 pi); both hold to
    about 1e-13 up to |p| = 0.95.  So M_r[J lam, J kappa] = M_r[lam, kappa]
    on every edge, which is checked over the strips of D_r
    (``level_cone(n, m).strips(r)``) in O(nnz): a relative residual above
    _COMMUTATOR_TOL raises ``GradingViolation``.  P_J is unitary with
    P_J^n = I, so its eigenvalue at a joint eigenvector, read as the
    Rayleigh quotient (P_J V is the gather V[J]), is w^k, w = exp(2 pi i / n).
    A phase further than _PHASE_TOL from every w^k raises ``GradingViolation``.
    """
    cone = level_cone(n, m)
    J = cone.J
    for r, M in enumerate(mats, start=1):
        rows, cols, _ = cone.strips(r)
        lhs = M[J[rows], J[cols]]  # (P_J M_r)[lam, J kappa]
        rhs = M[rows, cols]  # (M_r P_J)[lam, J kappa]
        if not np.all(np.abs(lhs - rhs) <= _COMMUTATOR_TOL * (np.abs(lhs) + np.abs(rhs))):
            raise GradingViolation(f"the simple current does not commute with M_{r}")
    quotients = np.einsum("ki,ki->i", vecs.conj(), vecs[J])  # times a positive norm
    turns = np.angle(quotients) * (n / (2.0 * np.pi))
    k = np.rint(turns)
    if not np.all(np.abs(turns - k) <= _PHASE_TOL * n / (2.0 * np.pi)):
        raise GradingViolation("an eigenvalue of the simple current is off every w^k")
    return k.astype(np.intp) % n


def _raw_spectrum(params: ModelParams, rng: random.Random):
    """Unlabeled joint eigen-data of the conjugated ops, from one Hermitian eigensolve.

    The conjugated M_r are normal and commute, so A = sum_r t_r M_r with
    complex t_r is normal, and H = A + A^H is Hermitian with the same
    eigenvectors (Fuglede's theorem) and eigenvalues 2 Re(lambda_A).  The
    real parts of t, then the imaginary parts, are ``rng.gauss`` draws.
    ``eigh`` of H gives the eigenvectors as an orthonormal basis; a draw of
    t is retried while two eigenvalues of H lie within 1e-7 * max(1, max|h|).
    One refinement step then removes the error of order eps * |A| / gap that
    H's conditioning leaves: with B = V^H A V and d = diag B, V <- V + V X,
    where X_ij = B_ij / (d_j - d_i) off the diagonal, and |d_j - d_i| is at
    least half the accepted gap of H.  The joint eigenvalues are the
    Rayleigh quotients of the refined vectors, and their Z_n charges are
    read by ``_charges``.  Every product is a dense BLAS one: sparse gathers
    over the few nonzeros per row of M_r took longer with numpy at every
    size measured, up to N = 495.  The result is (E, vectors, w, charges),
    with w = sqrt(Delta) of ``conjugated_matrices``.
    """
    mats, w = conjugated_matrices(params)
    N, k = len(w), len(mats)
    for _ in range(_COMBO_ATTEMPTS):
        z = [rng.gauss(0.0, 1.0) for _ in range(2 * k)]
        A = sum(complex(a, b) * Mi for a, b, Mi in zip(z[:k], z[k:], mats))
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
    return E, vecs, w, _charges(mats, vecs, params.n, params.m)


def _sector_distances(E_a: np.ndarray, k_a: np.ndarray, E_b: np.ndarray, k_b: np.ndarray) -> np.ndarray:
    """|E_a[i] - E_b[j]| for rows of the same charge, inf between charges."""
    dist = np.linalg.norm(E_b[None, :, :] - E_a[:, None, :], axis=2)
    dist[k_a[:, None] != k_b[None, :]] = np.inf
    return dist


def _row_gaps(E: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Distance from each row of E to its nearest other row of the same charge k (inf for a lone row)."""
    dist = _sector_distances(E, k, E, k)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _within_gaps(E_new: np.ndarray, E_ref: np.ndarray, k: np.ndarray) -> bool:
    """Whether each row i of E_new lies strictly within _GAP_SAFETY * gap_i of row i of E_ref.

    Row i of both has charge k[i]; gap_i is the distance from row i of E_ref
    to its nearest other row of that charge (``_row_gaps``), inf for a lone
    row.  A NaN in either array fails the test.
    """
    moved = np.linalg.norm(E_new - E_ref, axis=1)
    return bool(np.all(moved < _GAP_SAFETY * _row_gaps(E_ref, k)))


def _match_rows(E_new: np.ndarray, k_new: np.ndarray, E_ref: np.ndarray, k_ref: np.ndarray) -> np.ndarray:
    """Nearest new row of the same charge for each reference row; perm[i] is the new row for ref row i.

    Every charge of k_ref must occur in k_new, so k_new[perm] = k_ref.  The
    map need not be injective, and it needs no assignment solver: every
    caller accepts a match only if ``_within_gaps(E_new[perm], E_ref, k_ref)``,
    that is if each reference row i moved less than r_i = _GAP_SAFETY * gap_i,
    gap_i being its own distance to the nearest other reference row of its
    charge.  With _GAP_SAFETY <= 1/2, r_i + r_j <= |E_ref[i] - E_ref[j]| for
    rows of one charge, so the open balls of radius r_i about the reference
    rows of one sector are disjoint.  In an accepted match each ball holds
    its row's nearest new row of that charge, so the map is injective; any
    other new row of the charge lies in another ball and is farther than
    r_i from row i, so the optimal assignment within the sector is the same
    permutation, and the unique one.  Rows of different charge are never
    matched: the optimal assignment that keeps charges is this one, sector
    by sector.  A map that sends two reference rows to one new row leaves
    one of them outside its ball, and is rejected, as the assignment would
    be.  A lone row of its charge (gap inf) is matched to the one new row of
    that charge.
    """
    return _sector_distances(E_ref, k_ref, E_new, k_new).argmin(axis=1)


def joint_spectrum(params: ModelParams, seed: int = 0) -> SpectrumResult:
    """Labeled joint spectrum with eigenvectors and dual norms, kept per parameter set.

    Labels come from the closed form at p = 0 and are continued to p by a
    guarded predictor-corrector (``_continue``).  The finished result is
    kept on the bracket table of params, keyed ("spectrum", n, m, seed),
    and evicted with it.  The table is shared by p and -p, and the truncated
    matrices at -p are those at p bit for bit, so the first call at the other
    sign builds the mirror: the kept arrays with ``params`` replaced by its
    own and ``homotopy_steps`` given the sign of p, sharing what is derived
    from them.  The mirror is kept beside the spectrum, keyed ("mirror", n,
    m, seed, p) with its own signed p, so no race between first calls at
    both signs can file it under the wrong sign, and it is returned by every
    later call at that sign; neither runs an eigensolve.
    """
    if not params.level_locked:
        raise ValueError("the joint spectrum requires level-locked parameters")
    if params.n < 2:
        raise ValueError(f"the joint spectrum requires n >= 2, got n={params.n}")
    n, m = params.n, params.m
    kept = coeffs._kept(params, ("spectrum", n, m, seed), lambda: _continue(params, seed))
    if kept.params.p == params.p:  # the key leaves only the sign of p free
        return kept
    return coeffs._kept(params, ("mirror", n, m, seed, params.p), lambda: _mirror(kept, params))


def _mirror(spec: SpectrumResult, params: ModelParams) -> SpectrumResult:
    """spec at params, the other sign of p: its arrays, signed steps, and its ``_derived``, shared."""
    mirror = replace(spec, params=params, homotopy_steps=tuple(-s for s in spec.homotopy_steps))
    # Shared, not kept in it: the mirror in spec's own dict would be a reference cycle.
    object.__setattr__(mirror, "_derived", spec._derived)
    return mirror


def _spectrum_for(params: ModelParams, spectrum: SpectrumResult | None, seed: int = 0) -> SpectrumResult:
    """spectrum, if it is at params up to the sign of p, else ValueError; without one, the joint spectrum."""
    if spectrum is None:
        return joint_spectrum(params, seed=seed)
    if abs(spectrum.params.p) != abs(params.p) or spectrum.params.with_p(params.p) != params:
        raise ValueError(f"the spectrum is at {spectrum.params}, not at {params} up to the sign of p")
    return spectrum


def _continue(params: ModelParams, seed: int) -> SpectrumResult:
    """Labeled joint spectrum at params, continued from the closed form at p = 0.

    The walk starts at p = 0 from the trigonometric closed form
    (``spectral_points_p0``), whose point nu has the charge k = -|nu| mod n
    (from the weights of ``level_cone``); the charge cannot change along the
    path, so a solve whose sector sizes differ from those of the labels
    raises ``GradingViolation``.  The path is p = target * t, so at p = 0 the walk
    is one solve, matched to the closed form, and records no step.  The
    first step tries the whole distance to p.  Once two points are accepted,
    the next points are predicted by the secant through the last two, and
    each predicted point is matched to its nearest new point of the same
    charge (``_match_rows``).  A step is accepted only if (a) every new point
    lies within _GAP_SAFETY times its predicted point's own gap (the distance
    to the nearest other predicted point of its charge) from that predicted
    point, and (b) every predicted point lies within _GAP_SAFETY times its
    current point's own gap among the current points of its charge from that
    current point (``_within_gaps``); otherwise the step is halved, down to
    _MIN_STEP, and at p = 0 a failed match raises at once.  Test (a) makes
    the match exact, as those balls about the predicted points of one charge
    are disjoint, and points of different charge are never swapped; test (b)
    keeps the predictor from extrapolating through eigenvalues of one charge
    that close in on each other, where it would swap labels.  Eigenvalues of
    different charges may cross freely.  The step is never grown again:
    growing it after each accepted step took more eigensolves at every
    large-nome point measured.
    """
    rng = random.Random(seed)
    target = params.p
    cone = level_cone(params.n, params.m)
    E_cur = spectral_points_p0(params)
    sectors = -cone.weights.astype(np.intp) % params.n  # minus the n-ality
    sizes = np.bincount(sectors, minlength=params.n)
    t_prev = E_prev = None
    steps: list[float] = []

    # The path is p = target * t: t and the step h stay dyadic, so sums are
    # exact and the last point is target itself.
    t_cur, h = 0.0, 1.0
    while t_cur < 1.0:
        t_next = t_cur + h  # at most 1: t_cur is a multiple of h
        if E_prev is None:
            E_pred = E_cur
        else:
            E_pred = E_cur + (h / (t_cur - t_prev)) * (E_cur - E_prev)
        E_new, vecs_new, w_new, k_new = _raw_spectrum(params.with_p(target * t_next), rng)
        if not np.array_equal(np.bincount(k_new, minlength=params.n), sizes):
            raise GradingViolation(
                f"charge sector sizes at p={target * t_next} differ from those of -|nu| mod n"
            )
        perm = _match_rows(E_new, k_new, E_pred, sectors)
        if _within_gaps(E_new[perm], E_pred, sectors) and _within_gaps(E_pred, E_cur, sectors):
            t_prev, E_prev = t_cur, E_cur
            E_cur = E_new[perm]
            vec_cur = vecs_new[:, perm]
            w_cur = w_new
            t_cur = t_next
            if target:
                steps.append(target * t_next)
        elif not target:
            raise TrackingAmbiguity("the p = 0 solve does not match the closed form")
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
        labels=cone.labels,
        e=np.hstack([E_cur, np.ones((len(cone.labels), 1), dtype=complex)]),
        vectors=F,
        dual_norms=1.0 / (np.abs(F) ** 2 * delta_vector(params)[:, None]).sum(axis=0),
        seed=seed,
        homotopy_steps=tuple(steps),
    )


def projection_arrays(params: ModelParams, spec: SpectrumResult) -> tuple[np.ndarray, np.ndarray]:
    """V[lam, nu] = P_lam(e_nu) over a spectrum's labels, in one batch, and the weights c_kappa^2 Delta_kappa, kept on it."""
    spec = _spectrum_for(params, spec)

    def build():
        cvec, dvec, _ = norm_vectors(spec)
        return evaluate_batch([build_P(lam, spec.params) for lam in spec.labels], spec.e)[0], cvec**2 * dvec

    return spec.derived("projection", build)


def norm_vectors(spec: SpectrumResult):
    """c_lam, Delta_lam (even in p) and the dual norms over the labels of a spectrum, at its own parameters."""
    return coeffs.level_c(spec.params), delta_vector(spec.params), spec.dual_norms


def dual_orthogonality_check(
    params: ModelParams, spectrum: SpectrumResult | None = None, seed: int = 0
) -> float:
    """Worst deviation of the dual Gram matrix from the predicted diagonal.

    Off-diagonal entries are normalized by the geometric mean of the
    diagonals; diagonal entries are compared in relative error against
    1 / (c_lam^2 Delta_lam).
    """
    spec = _spectrum_for(params, spectrum, seed)
    vals = projection_arrays(params, spec)[0]
    cvec, dvec, dual = norm_vectors(spec)
    G = (vals * dual[None, :]) @ vals.conj().T
    targets = 1.0 / (cvec**2 * dvec)
    diag = np.abs(np.diag(G))
    off = np.abs(G) / np.sqrt(diag[:, None] * diag[None, :])
    np.fill_diagonal(off, 0.0)
    return float(max((np.abs(np.diag(G) - targets) / np.abs(targets)).max(), off.max()))
