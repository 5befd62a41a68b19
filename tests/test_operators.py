import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ellfusion import coeffs
from ellfusion.errors import TrackingAmbiguity
from ellfusion.kernel import ModelParams, bracket
from ellfusion.operators import (
    _GAP_SAFETY,
    _match_rows,
    _min_gap,
    _raw_spectrum,
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
from ellfusion.partitions import add, vertical_strips
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
    a = joint_spectrum(params, seed=3)
    b = joint_spectrum(params, seed=3)
    assert np.array_equal(a.e, b.e)


def test_homotopy_steps_at_large_nome():
    params = ModelParams.locked(4, 4, 0.7, 0.9)
    spec = joint_spectrum(params, seed=0)
    assert len(spec.homotopy_steps) == 39
    assert spec.homotopy_steps[-1] == 0.9


@pytest.mark.xfail(raises=TrackingAmbiguity, strict=True,
                   reason="continuation step falls below its floor near p = 0.896")
def test_spectrum_tracks_small_coupling_at_large_nome():
    spec = joint_spectrum(ModelParams.locked(4, 1, 0.3125, 0.8984375), seed=0)
    assert spec.homotopy_steps[-1] == 0.8984375


@pytest.mark.parametrize("N,k", [(1, 2), (2, 1), (7, 3), (35, 3), (60, 4)])
def test_min_gap_matches_pair_loop(N, k):
    rng = np.random.default_rng(N)
    E = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    want = min(
        (float(np.linalg.norm(E[i] - E[j])) for i in range(N) for j in range(i + 1, N)),
        default=math.inf,
    )
    got = _min_gap(E)
    assert got == want or abs(got - want) <= 1e-15 * want


def test_rayleigh_quotients_match_per_vector_loop():
    params = ModelParams.locked(3, 3, 0.7, 0.6)
    E, vecs, _, _ = _raw_spectrum(params, np.random.default_rng(1))
    mats, _, _ = conjugated_matrices(params)
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        for r, M in enumerate(mats):
            want = np.vdot(v, M @ v) / np.vdot(v, v)
            assert abs(E[i, r] - want) <= 1e-14 * max(1.0, abs(want))


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
    gap = _min_gap(E_ref)
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
    assert _moved(E_new, E_ref, perm) >= _GAP_SAFETY * _min_gap(E_ref)
