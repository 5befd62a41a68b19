import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ellfusion import coeffs, fusion, operators
from ellfusion.errors import ComputationError, TrackingAmbiguity
from ellfusion.kernel import ModelParams, bracket
from ellfusion.operators import (
    _GAP_SAFETY,
    _match_rows,
    _raw_spectrum,
    _row_gaps,
    _within_gaps,
    apply_D,
    build_truncated,
    conjugated_matrices,
    delta_vector,
    dual_orthogonality_check,
    joint_spectrum,
    norm_vectors,
    normality_residual,
    spectral_points_p0,
    value_table,
)
from ellfusion.partitions import add, enumerate_level, vertical_strips
from ellfusion.polynomials import normalized_p


def test_apply_to_indicator_of_full_column():
    params = ModelParams.free(3, g=0.6, p=0.2, alpha=2.0)
    lam = (2, 1, 0)
    top = tuple(x + 1 for x in lam)
    f = {top: 2.5 + 0.5j}
    assert apply_D(3, f, lam, params) == f[top]  # unit hop weight


def test_apply_to_zero_function():
    params = ModelParams.free(3, g=0.6, p=0.2, alpha=2.0)
    assert apply_D(1, {}, (1, 1, 0), params) == 0.0


def test_full_lattice_commutator_on_random_function():
    params = ModelParams.free(3, g=0.6, p=0.2, alpha=2.0)
    rng = np.random.default_rng(5)
    support = []
    for off in np.ndindex(3, 3, 3):
        kappa = add((2, 1, 0), tuple(off))
        if kappa[0] >= kappa[1] >= kappa[2]:
            support.append(kappa)
    f = {kappa: complex(rng.standard_normal(), rng.standard_normal()) for kappa in support}

    def compose(r, s, lam):
        total = 0.0 + 0.0j
        for nu in vertical_strips(lam, r):
            inner = apply_D(s, f, nu, params)
            if inner:
                total += coeffs.hop_B(lam, nu, params) * inner
        return total

    for lam in [(2, 1, 0), (1, 0, 0), (0, 0, 0)]:
        for r in (1, 2, 3):
            for s in range(r + 1, 4):
                a, b = compose(r, s, lam), compose(s, r, lam)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a) + abs(b))


def test_truncated_matrix_small_case():
    params = ModelParams.locked(2, 1, 0.7, 0.25)
    op = build_truncated(1, params)
    g = params.g
    assert op.labels == ((0, 0), (1, 0))
    up = bracket(2 * g, params) / bracket(g, params)
    down = bracket(1.0, params) / bracket(1 + g, params)
    assert abs(op.matrix[0, 1] - up) < 1e-14 * abs(up)
    assert abs(op.matrix[1, 0] - down) < 1e-14 * abs(down)
    assert op.matrix[0, 0] == 0.0 and op.matrix[1, 1] == 0.0


def test_truncated_matrix_level_zero():
    params = ModelParams.locked(2, 0, 0.7, 0.25)
    op = build_truncated(1, params)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == 0.0


def test_truncated_requires_locked_and_valid_r():
    params = ModelParams.locked(3, 2, 0.7, 0.0)
    with pytest.raises(ValueError):
        build_truncated(3, params)
    free = ModelParams.free(3, g=0.7, p=0.0, alpha=2.0)
    with pytest.raises(ValueError):
        build_truncated(1, free)


def test_truncated_commutator():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    D1 = build_truncated(1, params).matrix
    D2 = build_truncated(2, params).matrix
    comm = np.linalg.norm(D1 @ D2 - D2 @ D1, "fro")
    assert comm < 1e-9 * np.linalg.norm(D1, "fro") * np.linalg.norm(D2, "fro")


@pytest.mark.parametrize("g", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("p", [0.0, 0.4, -0.4])
def test_weighted_normality(g, p):
    params = ModelParams.locked(3, 2, g, p)
    for r in (1, 2):
        assert normality_residual(build_truncated(r, params)) < 1e-9


def test_delta_vector_positive():
    params = ModelParams.locked(3, 3, 0.8, -0.3)
    vals = delta_vector(params)
    assert np.all(vals > 0)


def test_two_site_spectrum_closed_form():
    params = ModelParams.locked(2, 1, 0.7, 0.0)
    spec = joint_spectrum(params, seed=0)
    a, g = params.alpha, params.g
    assert spec.labels == ((0, 0), (1, 0))
    assert abs(spec.e[0, 0] - 2 * math.cos(a * g / 2)) < 1e-12
    assert abs(spec.e[1, 0] - 2 * math.cos(a * (1 + g) / 2)) < 1e-12
    assert np.all(spec.e[:, -1] == 1.0)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_spectrum_count_and_p0_match(n, m):
    params = ModelParams.locked(n, m, 0.8, 0.0)
    spec = joint_spectrum(params, seed=0)
    assert len(spec.labels) == math.comb(n - 1 + m, m)
    closed = spectral_points_p0(params)
    for nu, got in zip(spec.labels, spec.e_matrix()):
        assert np.abs(got - closed[nu]).max() < 1e-10


def test_spectrum_tracks_into_elliptic_regime():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    spec = joint_spectrum(params, seed=0)
    assert spec.homotopy_steps[-1] == 0.4
    assert len(spec.labels) == 6
    # eigenvalues genuinely moved off the trigonometric values
    closed = spectral_points_p0(params)
    moved = max(np.abs(got - closed[nu]).max() for nu, got in zip(spec.labels, spec.e_matrix()))
    assert moved > 1e-4


def test_spectrum_negative_nome():
    params = ModelParams.locked(2, 2, 0.9, -0.35)
    spec = joint_spectrum(params, seed=0)
    assert len(spec.labels) == 3
    assert spec.homotopy_steps[-1] == -0.35


def test_unit_coupling_spectrum_is_nome_independent():
    a = joint_spectrum(ModelParams.locked(3, 2, 1.0, 0.0), seed=0)
    b = joint_spectrum(ModelParams.locked(3, 2, 1.0, 0.5), seed=0)
    assert a.labels == b.labels
    assert np.abs(a.e - b.e).max() < 1e-10


def test_eigenvectors_match_normalized_polynomials():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    spec = joint_spectrum(params, seed=0)
    for j, e in enumerate(spec.e):
        for i, lam in enumerate(spec.labels):
            want = normalized_p(lam, e, params)
            assert abs(spec.vectors[i, j] - want) <= 1e-8 * max(1.0, abs(want))


def test_dual_orthogonality_examples():
    assert dual_orthogonality_check(ModelParams.locked(2, 1, 1.0, 0.0)) < 1e-10
    assert dual_orthogonality_check(ModelParams.locked(3, 2, 0.6, 0.3)) < 1e-8
    assert dual_orthogonality_check(ModelParams.locked(2, 0, 0.7, 0.2)) < 1e-14


def test_dual_orthogonality_matches_pair_loop():
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    spec = joint_spectrum(params, seed=0)
    vals = value_table(params, spec)
    cvec, dvec, dual = norm_vectors(params, spec)
    G = (vals * dual[None, :]) @ vals.conj().T
    targets = 1.0 / (cvec**2 * dvec)
    want = 0.0
    for i in range(len(spec.labels)):
        want = max(want, abs(G[i, i] - targets[i]) / abs(targets[i]))
        for j in range(len(spec.labels)):
            if i != j:
                want = max(want, abs(G[i, j]) / math.sqrt(abs(G[i, i]) * abs(G[j, j])))
    assert dual_orthogonality_check(params, spectrum=spec) == want


def test_spectrum_deterministic_in_seed():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    a = joint_spectrum(params, seed=3)
    coeffs.clear_coeff_caches()  # so that b is computed, not read from the store
    b = joint_spectrum(params, seed=3)
    assert np.array_equal(a.e, b.e)


def test_homotopy_steps_at_large_nome():
    params = ModelParams.locked(4, 4, 0.7, 0.9)
    spec = joint_spectrum(params, seed=0)
    assert len(spec.homotopy_steps) == 13
    assert len(spec.homotopy_steps) <= 39  # the fixed-start continuation's count
    assert spec.homotopy_steps[-1] == 0.9


@pytest.mark.parametrize("g,p", [(0.3125, 0.8984375), (0.3, 0.9), (0.3, -0.9)])
def test_spectrum_tracks_small_coupling_at_large_nome(g, p):
    spec = joint_spectrum(ModelParams.locked(4, 1, g, p), seed=0)
    assert spec.homotopy_steps[-1] == p


@pytest.mark.parametrize("N,k", [(1, 2), (2, 1), (7, 3), (35, 3), (60, 4)])
def test_row_gaps_match_pair_loop(N, k):
    rng = np.random.default_rng(N)
    E = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    got = _row_gaps(E)
    assert got.shape == (N,)
    for i in range(N):
        want = min((float(np.linalg.norm(E[i] - E[j])) for j in range(N) if j != i), default=math.inf)
        assert got[i] == want or abs(got[i] - want) <= 1e-15 * want


def test_rayleigh_quotients_match_per_vector_loop():
    params = ModelParams.locked(3, 3, 0.7, 0.6)
    E, vecs, _, _ = _raw_spectrum(params, np.random.default_rng(1))
    mats, _, _ = conjugated_matrices(params)
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        for r, M in enumerate(mats):
            want = np.vdot(v, M @ v) / np.vdot(v, v)
            assert abs(E[i, r] - want) <= 1e-14 * max(1.0, abs(want))


def _joint_residual(params, spec):
    """max_r max|M_r V - V diag(E_r)| / max_r max|M_r| on the conjugated ops, V the unit eigenvectors."""
    mats, w, _ = conjugated_matrices(params)
    V = w[:, None] * spec.vectors
    V = V / np.linalg.norm(V, axis=0)
    E = spec.e_matrix()
    worst = max(float(np.abs(M @ V - V * E[:, r]).max()) for r, M in enumerate(mats))
    return worst / max(float(np.abs(M).max()) for M in mats)


@pytest.mark.parametrize("n,m,g,p", [(4, 4, 0.7, 0.9), (4, 6, 0.7, 0.3)])
def test_refined_eigenvectors_are_joint_eigenvectors(n, m, g, p):
    """The refinement step brings eigh's vectors to eig's accuracy; unrefined they measure 1.5e-13 and 4.3e-13."""
    params = ModelParams.locked(n, m, g, p)
    assert _joint_residual(params, joint_spectrum(params, seed=0)) <= 1e-13


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    g=st.floats(0.3, 1.9),
    p=st.floats(-0.9, 0.9),
)
@example(n=4, m=1, g=0.31, p=0.9)  # identity residual 7.4e-6 with eig of a real combination
@example(n=4, m=3, g=1.9, p=0.9)  # kappa 2.7e7: identity residual 3.2e-8
def test_joint_spectrum_is_accurate_or_raises(n, m, g, p):
    """Over random parameters: a typed error, or joint eigenvectors and S Sinv = I to binary64 accuracy.

    S Sinv - I = D^-1 (U U^H - I) D, with U the unit eigenvectors of the
    conjugated ops and D = diag(|c| sqrt(Delta)), so even exactly orthonormal
    U leave rounding errors of order eps * kappa, kappa = max D / min D.  The
    bound is 1e-8 up to kappa = 1e5; kappa reaches 2.7e7 at the corner
    n=4 m=3 g=1.9 p=0.9, where eig and eigh alike give 7e-9 to 1.7e-7 over
    seeds 0-9.
    """
    params = ModelParams.locked(n, m, g, p)
    try:
        spec = joint_spectrum(params, seed=0)
        sm = fusion.s_matrix(params, spectrum=spec)
    except ComputationError:
        return
    assert _joint_residual(params, spec) <= 1e-12
    cvec, dvec, _ = norm_vectors(params, spec)
    scale = np.abs(cvec) * np.sqrt(dvec)
    assert sm.identity_residual() < max(1e-8, 1e-13 * scale.max() / scale.min())


def _moved(E_new, E_ref, perm):
    return float(np.linalg.norm(E_new[perm] - E_ref, axis=1).max())


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    reach=st.floats(0.0, 1.5),
    toward=st.booleans(),
)
def test_nearest_row_match_is_the_assignment_under_the_gap_test(N, k, seed, reach, toward):
    """Nearest-row matching accepts exactly when the optimal assignment does, with the same permutation.

    The new rows are the reference rows in C^k moved by up to reach * gap, at
    random or toward their nearest neighbour, then shuffled; reach runs past
    1/2, so both sides of the acceptance test are drawn.
    """
    assert _GAP_SAFETY <= 0.5  # the equivalence rests on it
    rng = np.random.default_rng(seed)
    E_ref = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    gap = _row_gaps(E_ref).min()
    if toward:
        dist = np.linalg.norm(E_ref[None, :, :] - E_ref[:, None, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        step = E_ref[dist.argmin(axis=1)] - E_ref
        step /= np.linalg.norm(step, axis=1, keepdims=True)
    else:
        step = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
        step /= np.linalg.norm(step, axis=1, keepdims=True)
    E_new = E_ref + rng.uniform(0.0, reach * gap, (N, 1)) * step
    E_new = E_new[rng.permutation(N)]

    nearest = _match_rows(E_new, E_ref)
    rows, cols = linear_sum_assignment(np.linalg.norm(E_new[None, :, :] - E_ref[:, None, :], axis=2))
    assignment = cols[np.argsort(rows)]
    nearest_ok = _moved(E_new, E_ref, nearest) < _GAP_SAFETY * gap
    assignment_ok = _moved(E_new, E_ref, assignment) < _GAP_SAFETY * gap
    assert nearest_ok == assignment_ok
    if nearest_ok:
        assert nearest.tolist() == assignment.tolist()


def test_nearest_row_match_rejects_a_shared_row():
    E_ref = np.array([[0.0], [1.0], [3.0]], dtype=complex)
    E_new = np.array([[0.4], [5.0], [3.0]], dtype=complex)  # 0.4 is nearest to both 0 and 1
    perm = _match_rows(E_new, E_ref)
    assert perm.tolist() == [0, 0, 2]
    assert _moved(E_new, E_ref, perm) >= _GAP_SAFETY * _row_gaps(E_ref).min()
    assert not _within_gaps(E_new[perm], E_ref)



@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    reach=st.floats(0.0, 1.5),
    toward=st.booleans(),
)
def test_nearest_row_match_is_the_assignment_under_the_per_row_gap_test(N, k, seed, reach, toward):
    """Under each row's own gap, nearest-row matching accepts exactly when the optimal assignment does.

    The new rows are the reference rows in C^k, row i moved by up to
    reach * gap_i (its own nearest-neighbour distance), at random or toward
    that neighbour, then shuffled; reach runs past 1/2, so both sides of the
    acceptance test are drawn.  Accepted, both give the same permutation.
    """
    assert _GAP_SAFETY <= 0.5  # the disjoint balls rest on it
    rng = np.random.default_rng(seed)
    E_ref = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    gaps = _row_gaps(E_ref)
    if toward:
        dist = np.linalg.norm(E_ref[None, :, :] - E_ref[:, None, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        step = E_ref[dist.argmin(axis=1)] - E_ref
    else:
        step = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    E_new = E_ref + (rng.uniform(0.0, reach, N) * gaps)[:, None] * step
    E_new = E_new[rng.permutation(N)]

    nearest = _match_rows(E_new, E_ref)
    rows, cols = linear_sum_assignment(np.linalg.norm(E_new[None, :, :] - E_ref[:, None, :], axis=2))
    assignment = cols[np.argsort(rows)]
    nearest_ok = _within_gaps(E_new[nearest], E_ref)
    assert nearest_ok == _within_gaps(E_new[assignment], E_ref)
    if nearest_ok:
        assert nearest.tolist() == assignment.tolist()


def test_per_row_gap_test_reads_each_rows_own_gap():
    E_ref = np.array([[0.0], [1.0], [10.0]], dtype=complex)  # own gaps 1, 1, 9
    assert _within_gaps(E_ref + np.array([[0.4], [-0.4], [4.4]]), E_ref)
    assert not _within_gaps(E_ref + np.array([[0.0], [0.0], [4.5]]), E_ref)  # strict
    assert not _within_gaps(E_ref + np.array([[0.5], [0.0], [0.0]]), E_ref)


@pytest.mark.parametrize("where", ["new", "ref"])
def test_per_row_gap_test_rejects_a_nan_row(where):
    E_ref = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 3.0]], dtype=complex)
    E_new = E_ref.copy()
    (E_new if where == "new" else E_ref)[1, 0] = complex(math.nan, 0.0)
    assert not _within_gaps(E_new, E_ref)


def test_a_nan_row_rejects_the_step(monkeypatch):
    """A raw spectrum with a NaN row past p = 0.5 stops the walk there instead of labelling it."""
    raw = operators._raw_spectrum

    def poisoned(params, rng):
        E, vecs, w, labels = raw(params, rng)
        if params.p > 0.5:
            E = E.copy()
            E[1, 0] = complex(math.nan, 0.0)
        return E, vecs, w, labels

    monkeypatch.setattr(operators, "_raw_spectrum", poisoned)
    coeffs.clear_coeff_caches()
    try:
        with pytest.raises(TrackingAmbiguity, match="homotopy step fell below") as info:
            joint_spectrum(ModelParams.locked(3, 2, 0.7, 0.9), seed=0)
        assert 0.49 < float(str(info.value).rsplit("p=", 1)[1]) <= 0.5
    finally:
        coeffs.clear_coeff_caches()


# -- the continuation against a fine fixed-step path --------------------------


def _fixed_step_reference(params, steps, seed=0):
    """E at params.p, continued from p = 0 in equal steps, and the largest move/gap ratio.

    Each step matches the new points to the current ones (``_match_rows``);
    once a ratio reaches _GAP_SAFETY the match is ambiguous and the ratio
    returned is inf.
    """
    rng = np.random.default_rng(seed)
    E, _, _, labels = _raw_spectrum(params.with_p(0.0), rng)
    closed = spectral_points_p0(params)
    E = E[_match_rows(E, np.array([closed[nu] for nu in labels]))]
    worst = 0.0
    for k in range(1, steps + 1):
        E_new = _raw_spectrum(params.with_p(params.p * k / steps), rng)[0]
        perm = _match_rows(E_new, E)
        worst = max(worst, _moved(E_new, E, perm) / _row_gaps(E).min())
        if not worst < _GAP_SAFETY:
            return E, math.inf
        E = E_new[perm]
    return E, worst


def test_secant_does_not_extrapolate_through_closing_eigenvalues():
    """At this point a secant predictor without the current-gap guard swapped all four labels."""
    params = ModelParams.locked(2, 3, 1.6808, -0.9381)
    coeffs.clear_coeff_caches()
    spec = joint_spectrum(params, seed=0)
    ref, worst = _fixed_step_reference(params, 1000)
    coeffs.clear_coeff_caches()
    assert worst < _GAP_SAFETY / 2  # the reference itself is unambiguous, with room
    assert _match_rows(spec.e_matrix(), ref).tolist() == list(range(len(spec.labels)))
    assert np.abs(spec.e_matrix() - ref).max() < 1e-10


@pytest.mark.parametrize("n,m,g,p", [(5, 3, 0.7, 0.9), (4, 3, 1.9, 0.9)])
def test_per_row_gaps_keep_the_labels_of_a_1000_step_path(n, m, g, p):
    """Where the per-row gap test cuts the steps most (36 -> 13 and 46 -> 20), the labels stay those of a fine path."""
    params = ModelParams.locked(n, m, g, p)
    coeffs.clear_coeff_caches()
    spec = joint_spectrum(params, seed=0)
    ref, worst = _fixed_step_reference(params, 1000)
    coeffs.clear_coeff_caches()
    assert worst < _GAP_SAFETY / 2  # 0.198 and 0.241: the reference itself is unambiguous
    assert _match_rows(spec.e_matrix(), ref).tolist() == list(range(len(spec.labels)))
    assert np.abs(spec.e_matrix() - ref).max() <= 1e-10 * max(1.0, float(np.abs(ref).max()))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 4),
    g=st.floats(0.2, 2.0, exclude_min=True, exclude_max=True),
    p=st.floats(-0.95, 0.95),
)
def test_continuation_matches_a_fine_fixed_step_path(n, m, g, p):
    """Same labels as 100 equal steps wherever both continuations succeed."""
    params = ModelParams.locked(n, m, g, p)
    coeffs.clear_coeff_caches()
    ref, worst = _fixed_step_reference(params, 100)
    assume(worst < _GAP_SAFETY)
    try:
        got = joint_spectrum(params, seed=0).e_matrix()
    except TrackingAmbiguity:
        assume(False)
    finally:
        coeffs.clear_coeff_caches()
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.abs(got - ref).max() <= 1e-10 * scale


@pytest.fixture
def synthetic_path(monkeypatch):
    """Replace the spectrum at n=2 m=1 by the two points 3p -+ s(p), s(p) = sqrt((p - 0.6)^2 + delta^2).

    The lower point stays the lower one: the two come within 2 delta of each
    other at p = 0.6 and part again, while both drift by 3p, so that the
    first steps are rejected and the secant predictor is running when they
    meet; its straight line through p = 0.6 ends on the other point.  Yields
    a setter for delta that returns the points as a function of p; the store
    is cleared before and after, so that no synthetic spectrum outlives the
    test.
    """
    labels = enumerate_level(2, 1)
    delta = [0.0]

    def points(p):
        s = math.hypot(p - 0.6, delta[0])
        return np.array([[3.0 * p - s], [3.0 * p + s]], dtype=complex)

    def raw(params, rng):
        return points(params.p)[::-1], np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex), np.ones(2), labels

    def set_delta(value):
        delta[0] = value
        return points

    monkeypatch.setattr(operators, "_raw_spectrum", raw)
    monkeypatch.setattr(operators, "spectral_points_p0", lambda params: dict(zip(labels, points(0.0))))
    coeffs.clear_coeff_caches()
    yield set_delta
    coeffs.clear_coeff_caches()


def test_near_collision_raises_instead_of_swapping_labels(synthetic_path):
    synthetic_path(1e-6)  # closer than any step above the floor can resolve
    with pytest.raises(TrackingAmbiguity):
        joint_spectrum(ModelParams.locked(2, 1, 0.7, 0.9), seed=0)


def test_avoided_crossing_keeps_the_lower_point_lower(synthetic_path):
    points = synthetic_path(0.05)
    spec = joint_spectrum(ModelParams.locked(2, 1, 0.7, 0.9), seed=0)
    assert np.abs(spec.e_matrix() - points(0.9)).max() < 1e-12


# -- finished spectra on the per-parameter store -------------------------------


def _counting_eig(monkeypatch):
    """Record the shape of every Hermitian eigensolve, the one solver ``_raw_spectrum`` calls."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_mirrored_spectrum_equals_a_fresh_one_at_minus_p():
    """Evenness in the nome, tested by two separate computations."""
    params = ModelParams.locked(4, 3, 0.7, 0.6)
    coeffs.clear_coeff_caches()
    fresh = joint_spectrum(params.with_p(-0.6), seed=0)
    coeffs.clear_coeff_caches()
    joint_spectrum(params, seed=0)
    mirrored = joint_spectrum(params.with_p(-0.6), seed=0)
    coeffs.clear_coeff_caches()
    for name in ("e", "vectors", "dual_norms"):
        assert np.array_equal(getattr(fresh, name), getattr(mirrored, name))
    assert fresh.homotopy_steps == mirrored.homotopy_steps


def test_mirrored_spectrum_runs_no_eig(monkeypatch):
    params = ModelParams.locked(3, 3, 0.7, 0.9)
    coeffs.clear_coeff_caches()
    calls = _counting_eig(monkeypatch)
    plus = joint_spectrum(params, seed=0)
    assert calls
    calls.clear()
    minus_params = params.with_p(-0.9)
    minus = joint_spectrum(minus_params, seed=0)
    assert calls == []
    assert minus.params is minus_params
    assert minus.homotopy_steps == tuple(-s for s in plus.homotopy_steps)
    assert minus.homotopy_steps[-1] == -0.9
    assert minus.e is plus.e and minus.vectors is plus.vectors
    assert joint_spectrum(params, seed=0) is plus
    joint_spectrum(params, seed=1)  # another seed is another entry
    assert calls
    coeffs.clear_coeff_caches()



def test_nomes_of_one_coupling_share_one_p0_solve(monkeypatch):
    """Every nome starts from the kept p = 0 spectrum, and the -p leg still runs no eigensolve."""
    params = ModelParams.locked(4, 3, 0.7, 0.3)
    raw = operators._raw_spectrum
    at_p0 = []

    def counted(params, rng):
        if params.p == 0:
            at_p0.append(params)
        return raw(params, rng)

    monkeypatch.setattr(operators, "_raw_spectrum", counted)
    coeffs.clear_coeff_caches()
    for p in (0.3, 0.6, 0.9):
        assert joint_spectrum(params.with_p(p), seed=0).homotopy_steps[-1] == p
    assert len(at_p0) == 1
    calls = _counting_eig(monkeypatch)
    assert joint_spectrum(params.with_p(-0.6), seed=0).homotopy_steps[-1] == -0.6
    assert calls == [] and len(at_p0) == 1
    joint_spectrum(params, seed=1)  # another seed has its own start
    assert len(at_p0) == 2
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("p", [0.6, -0.9])
def test_spectrum_does_not_depend_on_a_kept_p0_start(p):
    params = ModelParams.locked(4, 3, 0.7, p)
    coeffs.clear_coeff_caches()
    fresh = joint_spectrum(params, seed=2)  # computes its start on the way
    coeffs.clear_coeff_caches()
    joint_spectrum(params.with_p(0.0), seed=2)
    joint_spectrum(params.with_p(0.3), seed=2)
    kept = joint_spectrum(params, seed=2)  # reads the kept start
    coeffs.clear_coeff_caches()
    assert fresh is not kept
    for name in ("e", "vectors", "dual_norms"):
        assert getattr(fresh, name).tobytes() == getattr(kept, name).tobytes()
    assert fresh.homotopy_steps == kept.homotopy_steps


def test_free_parameters_raise_after_a_locked_hit():
    locked = ModelParams.locked(3, 2, 0.7, 0.4)
    joint_spectrum(locked, seed=0)
    free = ModelParams(3, 2, 0.7, 0.4, locked.alpha, level_locked=False)
    assert coeffs._table(free) is coeffs._table(locked)
    with pytest.raises(ValueError):
        joint_spectrum(free, seed=0)


def test_one_row_has_no_joint_spectrum(monkeypatch):
    """n = 1 has no operators D_1..D_{n-1}: a ValueError naming n, raised before any table is read."""

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket table was read")

    monkeypatch.setattr(coeffs, "_table", refuse)
    with pytest.raises(ValueError, match=r"^the joint spectrum requires n >= 2, got n=1$"):
        joint_spectrum(ModelParams.locked(1, 1, 0.7, 0.3), seed=0)


def test_kept_spectrum_is_evicted_with_its_table(monkeypatch):
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    first = joint_spectrum(params, seed=0)
    assert coeffs._table(params).spectra[(3, 2, True, 0)] is first
    for k in range(coeffs.TABLE_LIMIT):  # unfilled tables at other |p| push it out
        coeffs._table(params.with_p(0.5 + k / 1000))
    assert (params.alpha, params.g, 0.4, params.precision) not in coeffs._TABLES
    calls = _counting_eig(monkeypatch)
    second = joint_spectrum(params, seed=0)
    assert calls and second is not first
    assert np.array_equal(first.e, second.e)
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("n,m,g,p", [(2, 2, 2.5, 0.97), (2, 2, 1.3, -0.99), (3, 3, 2.5, 0.97)])
def test_tiny_eigenvalues_never_give_a_silently_bad_s(n, m, g, p):
    """Eigenvalues far below 1 in size: either a typed error or a sound S."""
    try:
        sm = fusion.s_matrix(ModelParams.locked(n, m, g, p))
    except ComputationError:
        return
    assert sm.identity_residual() < 1e-8
