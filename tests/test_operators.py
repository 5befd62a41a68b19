import dataclasses
import gc
import math
import os
import random
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ellfusion import coeffs, fusion, operators
from ellfusion.errors import (
    ComputationError,
    DegenerateCombination,
    GradingViolation,
    IllConditioned,
    TrackingAmbiguity,
)
from ellfusion.kernel import ModelParams, bracket
from ellfusion.operators import (
    _GAP_SAFETY,
    _charges,
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
    projection_arrays,
    spectral_points_p0,
)
from ellfusion.partitions import add, level_cone, vertical_strips, weight
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
    D = build_truncated(1, params)
    g = params.g
    assert level_cone(2, 1).labels == ((0, 0), (1, 0))  # the rows and columns of D
    up = bracket(2 * g, params) / bracket(g, params)
    down = bracket(1.0, params) / bracket(1 + g, params)
    assert abs(D[0, 1] - up) < 1e-14 * abs(up)
    assert abs(D[1, 0] - down) < 1e-14 * abs(down)
    assert D[0, 0] == 0.0 and D[1, 1] == 0.0


def test_truncated_matrix_level_zero():
    params = ModelParams.locked(2, 0, 0.7, 0.25)
    D = build_truncated(1, params)
    assert D.shape == (1, 1)
    assert D[0, 0] == 0.0


def test_a_truncated_operator_is_its_complex_matrix():
    """build_truncated returns the N x N complex array itself, N the size of the level cone."""
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    D = build_truncated(1, params)
    assert type(D) is np.ndarray and D.dtype == complex
    assert D.shape == (len(level_cone(3, 2).labels),) * 2


def test_truncated_requires_locked_and_valid_r():
    params = ModelParams.locked(3, 2, 0.7, 0.0)
    with pytest.raises(ValueError):
        build_truncated(3, params)
    free = ModelParams.free(3, g=0.7, p=0.0, alpha=2.0)
    with pytest.raises(ValueError):
        build_truncated(1, free)


def test_truncated_commutator():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    D1 = build_truncated(1, params)
    D2 = build_truncated(2, params)
    comm = np.linalg.norm(D1 @ D2 - D2 @ D1, "fro")
    assert comm < 1e-9 * np.linalg.norm(D1, "fro") * np.linalg.norm(D2, "fro")


@pytest.mark.parametrize("g", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("p", [0.0, 0.4, -0.4])
def test_weighted_normality(g, p):
    params = ModelParams.locked(3, 2, g, p)
    mats = conjugated_matrices(params)[0]
    assert len(mats) == 2
    for M in mats:
        assert normality_residual(M) < 1e-9


def test_normality_residual_of_non_normal_matrices():
    """A Jordan block, and a truncated operator before its conjugation by the weights, are not normal."""
    assert normality_residual(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)) > 1e-9
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    assert normality_residual(build_truncated(1, params)) > 1e-9


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
    assert np.abs(spec.e_matrix() - spectral_points_p0(params)).max() < 1e-10


def test_a_p0_solve_off_the_closed_form_raises(monkeypatch):
    """At p = 0 the walk is one solve, which must match the closed form under the graded gap test."""
    closed = operators.spectral_points_p0
    monkeypatch.setattr(operators, "spectral_points_p0", lambda params: closed(params) + 10.0)
    coeffs.clear_coeff_caches()
    with pytest.raises(TrackingAmbiguity, match="^the p = 0 solve does not match the closed form$"):
        joint_spectrum(ModelParams.locked(3, 3, 0.7, 0.0), seed=0)
    coeffs.clear_coeff_caches()


def test_spectrum_tracks_into_elliptic_regime():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    spec = joint_spectrum(params, seed=0)
    assert spec.homotopy_steps[-1] == 0.4
    assert len(spec.labels) == 6
    # eigenvalues genuinely moved off the trigonometric values
    moved = np.abs(spec.e_matrix() - spectral_points_p0(params)).max()
    assert moved > 1e-4


def test_spectrum_negative_nome():
    """A spectrum asked for at a negative nome is the one at |p|: its params and steps are non-negative."""
    params = ModelParams.locked(2, 2, 0.9, -0.35)
    spec = joint_spectrum(params, seed=0)
    assert len(spec.labels) == 3
    assert spec.params == params.with_p(0.35)
    assert spec.homotopy_steps[-1] == 0.35 and min(spec.homotopy_steps) > 0


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
    vals = projection_arrays(params, spec)[0]
    cvec, dvec, dual = norm_vectors(spec)
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
    assert len(spec.homotopy_steps) == 6
    assert len(spec.homotopy_steps) <= 39  # the fixed-start continuation's count
    assert spec.homotopy_steps[-1] == 0.9


@pytest.mark.parametrize("g,p", [(0.3125, 0.8984375), (0.3, 0.9), (0.3, -0.9)])
def test_spectrum_tracks_small_coupling_at_large_nome(g, p):
    spec = joint_spectrum(ModelParams.locked(4, 1, g, p), seed=0)
    assert spec.homotopy_steps[-1] == abs(p)


@pytest.mark.parametrize("N,k", [(1, 2), (2, 1), (7, 3), (35, 3), (60, 4)])
def test_row_gaps_match_pair_loop(N, k):
    """In one sector and in three: the distance to the nearest other row of the same charge."""
    rng = np.random.default_rng(N)
    E = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    for sectors in (1, 3):
        charge = rng.integers(sectors, size=N)
        got = _row_gaps(E, charge)
        assert got.shape == (N,)
        for i in range(N):
            others = (j for j in range(N) if j != i and charge[j] == charge[i])
            want = min((float(np.linalg.norm(E[i] - E[j])) for j in others), default=math.inf)
            assert got[i] == want or abs(got[i] - want) <= 1e-15 * want


def test_rayleigh_quotients_match_per_vector_loop():
    params = ModelParams.locked(3, 3, 0.7, 0.6)
    E, vecs, _, _ = _raw_spectrum(params, random.Random(1))
    mats, _ = conjugated_matrices(params)
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        for r, M in enumerate(mats):
            want = np.vdot(v, M @ v) / np.vdot(v, v)
            assert abs(E[i, r] - want) <= 1e-14 * max(1.0, abs(want))


# -- the Z_n grading by the simple current ----------------------------------


def _current_matrix(params):
    """P_J as a dense matrix, P_J[lam, J lam] = 1, with J from its formula, and the conjugated ops."""
    mats, _ = conjugated_matrices(params)
    labels = level_cone(params.n, params.m).labels
    index = {lam: i for i, lam in enumerate(labels)}
    n, m = params.n, params.m
    J = [index[tuple(x - lam[n - 2] for x in (m,) + lam[: n - 1])] for lam in labels]
    T = np.zeros((len(labels), len(labels)))
    T[np.arange(len(labels)), J] = 1.0
    return T, mats


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(1, 4), g=st.floats(0.2, 2.0), p=st.floats(-0.95, 0.95))
@example(n=4, m=6, g=0.7, p=0.9)  # gcd(n, m) = 2: J has orbits of length 2
def test_the_operators_are_invariant_under_the_simple_current(n, m, g, p):
    """B_{J nu/J lam} = B_{nu/lam} on every edge of every D_r, and Delta_{J lam} = Delta_lam.

    Both follow from the reflection [m + ng - z] = [z] of the locked bracket,
    and they are why the simple current grades the spectrum as the plain
    permutation P_J; the bound is 100 times the 1.1e-13 measured.
    """
    params = ModelParams.locked(n, m, g, p)
    cone = level_cone(n, m)
    J = cone.J
    for r in range(1, n):
        D = build_truncated(r, params)
        rows, cols, _ = cone.strips(r)
        edges = D[rows, cols]
        assert np.all(np.abs(D[J[rows], J[cols]] - edges) <= 1e-11 * np.abs(edges))
    delta = delta_vector(params)
    assert np.all(np.abs(delta[J] - delta) <= 1e-11 * delta)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    g=st.floats(0.3, 1.9),
    p=st.floats(-0.9, 0.9),
)
@example(n=4, m=3, g=1.9, p=0.9)
def test_simple_current_commutes_and_keeps_the_sector_sizes(n, m, g, p):
    """P_J commutes with every conjugated M_r as dense products, and the charges of the raw
    spectrum fill the same sectors at p as at p = 0."""
    params = ModelParams.locked(n, m, g, p)
    T, mats = _current_matrix(params)
    for M in mats:
        assert np.abs(T @ M - M @ T).max() <= 1e-12 * np.abs(M).max()
    try:
        sizes = [np.bincount(_raw_spectrum(pp, random.Random(0))[3], minlength=n) for pp in (params.with_p(0.0), params)]
    except DegenerateCombination:
        assume(False)
    assert sizes[0].tolist() == sizes[1].tolist()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 4), g=st.floats(0.3, 1.9))
@example(n=5, m=4, g=0.7)
@example(n=4, m=3, g=1.9)
def test_charge_at_p0_is_a_function_of_the_weight_mod_n(n, m, g):
    """At p = 0 the Rayleigh charge of the point nu is -|nu| mod n.

    The charges come from one solve matched in one sector to the closed
    form, so the property does not read the label weights of ``level_cone``,
    which the walk starts from; they must give the same charges.
    """
    params = ModelParams.locked(n, m, g, 0.0)
    try:
        E, _, _, charge = _raw_spectrum(params, random.Random(0))
    except DegenerateCombination:
        assume(False)
    labels = level_cone(n, m).labels
    C = spectral_points_p0(params)
    one = np.zeros(len(labels), dtype=np.intp)
    perm = _match_rows(E, one, C, one)
    assert _within_gaps(E[perm], C, one)
    assert charge[perm].tolist() == [-weight(nu) % n for nu in labels]
    assert (-level_cone(n, m).weights.astype(np.intp) % n).tolist() == charge[perm].tolist()


def test_a_wrong_simple_current_raises(monkeypatch):
    """J with two labels swapped is no symmetry of the M_r: GradingViolation, not a spectrum."""
    cone = dataclasses.replace(level_cone(3, 3))  # a copy, so the kept record keeps its J
    J = cone.J.copy()
    J[[3, 4]] = J[[4, 3]]
    cone.__dict__["J"] = J
    monkeypatch.setattr(operators, "level_cone", lambda n, m: cone)
    with pytest.raises(GradingViolation, match="does not commute with M_1"):
        _raw_spectrum(ModelParams.locked(3, 3, 0.7, 0.6), random.Random(0))


@pytest.mark.parametrize("edge", [1, 7])
def test_one_scaled_edge_of_an_operator_raises(monkeypatch, edge):
    """An edge of M_1 off its J-image by 1e-6 breaks the symmetry: GradingViolation, not a spectrum."""
    conjugated = operators.conjugated_matrices
    rows, cols, _ = level_cone(4, 3).strips(1)

    def scaled(params):
        mats, w = conjugated(params)
        mats[0][rows[edge], cols[edge]] *= 1.0 + 1e-6
        return mats, w

    monkeypatch.setattr(operators, "conjugated_matrices", scaled)
    with pytest.raises(GradingViolation, match="does not commute with M_1"):
        _raw_spectrum(ModelParams.locked(4, 3, 0.7, 0.9), random.Random(0))


def test_a_mixed_eigenvector_has_no_charge():
    """A vector spanning two charge sectors has a Rayleigh quotient between two w^k."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    _, vecs, _, charge = _raw_spectrum(params, random.Random(0))
    mats = conjugated_matrices(params)[0]
    assert _charges(mats, vecs, 3, 3).tolist() == charge.tolist()
    other = int(np.flatnonzero(charge != charge[0])[0])
    mixed = vecs.copy()
    mixed[:, 0] = vecs[:, 0] + vecs[:, other]
    with pytest.raises(GradingViolation, match="off every"):
        _charges(mats, mixed, 3, 3)


@pytest.mark.parametrize("p", [0.6, -0.6])
def test_a_changed_sector_count_raises(p, monkeypatch):
    """The walk runs at the signed p asked for, so its error names that p."""
    raw = operators._raw_spectrum

    def moved(params, rng):
        E, vecs, w, charge = raw(params, rng)
        if params.p:
            charge = charge.copy()
            charge[0] = (charge[0] + 1) % params.n
        return E, vecs, w, charge

    monkeypatch.setattr(operators, "_raw_spectrum", moved)
    coeffs.clear_coeff_caches()
    try:
        with pytest.raises(GradingViolation, match=f"sector sizes at p={p} differ"):
            joint_spectrum(ModelParams.locked(4, 3, 0.7, p), seed=0)
    finally:
        coeffs.clear_coeff_caches()


def test_simple_current_tables_are_kept_per_cone():
    cone = level_cone(3, 2)
    J, labels = cone.J, cone.labels
    # labels: (0,0,0) (1,0,0) (2,0,0) (1,1,0) (2,1,0) (2,2,0); J(lam) = (2 - lam_2, lam_1 - lam_2, 0)
    assert [labels[i] for i in J] == [(2, 0, 0), (2, 1, 0), (2, 2, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)]
    assert not J.flags.writeable
    assert level_cone(3, 2) is cone and cone.J is J


def _fresh_interpreter(code, cwd=None):
    """The stdout of ``code`` run by a fresh interpreter that imports this checkout's ellfusion."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(operators.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True).stdout


def test_the_spectral_path_never_imports_numpy_random():
    code = (
        "import sys, ellfusion\n"
        "sm = ellfusion.s_matrix(ellfusion.ModelParams.locked(3, 3, 0.7, 0.6))\n"
        "assert sm.identity_residual() < 1e-8\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_interpreter(code).strip() == "False"


def test_the_chain_never_imports_littlewood_oracles_or_verification(tmp_path):
    """The S-matrix, both fusion routes, the ring pair call and the smatrix and fusion commands load none of the three."""
    code = """
import sys
import ellfusion
from ellfusion import cli

def loaded():
    return sorted(m for m in ("ellfusion.littlewood", "ellfusion.oracles", "ellfusion.verification") if m in sys.modules)

params = ellfusion.ModelParams.locked(3, 3, 0.7, 0.3)
ellfusion.s_matrix(params)
ellfusion.fusion_table(params, route="verlinde")
ellfusion.fusion_table(params, route="lr")
ellfusion.structure_constants_lr((1, 0, 0), (1, 1, 0), params)
assert cli.main(["smatrix", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.9", "--out", "s.json"]) == 0
assert cli.main(["fusion", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3", "--route", "both", "--out", "f.json"]) == 0
print(loaded())
assert cli.main(["verify", "--suite", "all", "--n", "2", "--m", "2", "--out", "v.json"]) == 0
print(loaded())
"""
    before, after = [line for line in _fresh_interpreter(code, cwd=tmp_path).splitlines() if line.startswith("[")]
    assert before == "[]"
    assert after == "['ellfusion.littlewood', 'ellfusion.oracles', 'ellfusion.verification']"


def _joint_residual(params, spec):
    """max_r max|M_r V - V diag(E_r)| / max_r max|M_r| on the conjugated ops, V the unit eigenvectors."""
    mats, w = conjugated_matrices(params)
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
    cvec, dvec, _ = norm_vectors(spec)
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
    gap = _row_gaps(E_ref, np.zeros(N, dtype=np.intp)).min()
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

    one = np.zeros(N, dtype=np.intp)
    nearest = _match_rows(E_new, one, E_ref, one)
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
    one = np.zeros(3, dtype=np.intp)
    perm = _match_rows(E_new, one, E_ref, one)
    assert perm.tolist() == [0, 0, 2]
    assert _moved(E_new, E_ref, perm) >= _GAP_SAFETY * _row_gaps(E_ref, one).min()
    assert not _within_gaps(E_new[perm], E_ref, one)


def test_points_of_different_charge_are_never_matched():
    """Two points of different charge cross: the graded match follows the charges, and a lone point has gap inf.

    Without charges the same points would be matched across the crossing,
    and that match passes the ungraded gap test.
    """
    E_ref = np.array([[0.0], [1.0], [3.0]], dtype=complex)
    charge = np.array([0, 1, 1])
    E_new = np.array([[0.1], [0.9], [2.9]], dtype=complex)
    k_new = np.array([1, 0, 1])
    perm = _match_rows(E_new, k_new, E_ref, charge)
    assert perm.tolist() == [1, 0, 2]
    assert _row_gaps(E_ref, charge).tolist() == [math.inf, 2.0, 2.0]
    assert _within_gaps(E_new[perm], E_ref, charge)
    one = np.zeros(3, dtype=np.intp)
    assert _match_rows(E_new, one, E_ref, one).tolist() == [0, 1, 2]
    assert _within_gaps(E_new, E_ref, one)


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(2, 40),
    k=st.integers(1, 4),
    sectors=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    reach=st.floats(0.0, 1.5),
    toward=st.booleans(),
)
def test_nearest_row_match_is_the_assignment_under_the_per_row_gap_test(N, k, sectors, seed, reach, toward):
    """Under each row's own gap in its charge sector, nearest-row matching accepts exactly when the
    optimal charge-keeping assignment does.

    The reference rows in C^k get random charges in range(sectors) (one
    sector is the ungraded case).  The new rows are the reference rows, row
    i moved by up to reach * gap_i (its own distance to the nearest row of
    its charge, where that is finite; else by up to reach), at random or
    toward that neighbour, then shuffled with their charges; reach runs past
    1/2, so both sides of the acceptance test are drawn.  The assignment
    forbids pairs of different charge.  Accepted, both give the same
    permutation.
    """
    assert _GAP_SAFETY <= 0.5  # the disjoint balls rest on it
    rng = np.random.default_rng(seed)
    E_ref = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    charge = rng.integers(sectors, size=N)
    gaps = _row_gaps(E_ref, charge)
    step = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    if toward:
        dist = np.linalg.norm(E_ref[None, :, :] - E_ref[:, None, :], axis=2)
        dist[charge[:, None] != charge[None, :]] = np.inf
        np.fill_diagonal(dist, np.inf)
        lone = np.isinf(gaps)
        step[~lone] = E_ref[dist.argmin(axis=1)][~lone] - E_ref[~lone]
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    E_new = E_ref + (rng.uniform(0.0, reach, N) * np.where(np.isinf(gaps), 1.0, gaps))[:, None] * step
    shuffle = rng.permutation(N)
    E_new, k_new = E_new[shuffle], charge[shuffle]

    nearest = _match_rows(E_new, k_new, E_ref, charge)
    cost = np.linalg.norm(E_new[None, :, :] - E_ref[:, None, :], axis=2)
    cost[charge[:, None] != k_new[None, :]] = np.inf
    rows, cols = linear_sum_assignment(cost)
    assignment = cols[np.argsort(rows)]
    assert k_new[nearest].tolist() == charge.tolist() == k_new[assignment].tolist()
    nearest_ok = _within_gaps(E_new[nearest], E_ref, charge)
    assert nearest_ok == _within_gaps(E_new[assignment], E_ref, charge)
    if nearest_ok:
        assert nearest.tolist() == assignment.tolist()


def test_per_row_gap_test_reads_each_rows_own_gap():
    E_ref = np.array([[0.0], [1.0], [10.0]], dtype=complex)  # own gaps 1, 1, 9
    one = np.zeros(3, dtype=np.intp)
    assert _within_gaps(E_ref + np.array([[0.4], [-0.4], [4.4]]), E_ref, one)
    assert not _within_gaps(E_ref + np.array([[0.0], [0.0], [4.5]]), E_ref, one)  # strict
    assert not _within_gaps(E_ref + np.array([[0.5], [0.0], [0.0]]), E_ref, one)
    graded = np.array([0, 1, 1])  # own gaps inf, 9, 9
    assert _within_gaps(E_ref + np.array([[1e6], [4.4], [-4.4]]), E_ref, graded)
    assert not _within_gaps(E_ref + np.array([[0.0], [4.5], [0.0]]), E_ref, graded)


@pytest.mark.parametrize("where", ["new", "ref"])
def test_per_row_gap_test_rejects_a_nan_row(where):
    E_ref = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 3.0]], dtype=complex)
    E_new = E_ref.copy()
    (E_new if where == "new" else E_ref)[1, 0] = complex(math.nan, 0.0)
    assert not _within_gaps(E_new, E_ref, np.zeros(3, dtype=np.intp))


def test_a_nan_row_rejects_the_step(monkeypatch):
    """A raw spectrum with a NaN row past p = 0.5 stops the walk there instead of labelling it."""
    raw = operators._raw_spectrum

    def poisoned(params, rng):
        E, vecs, w, charge = raw(params, rng)
        if params.p > 0.5:
            E = E.copy()
            E[1, 0] = complex(math.nan, 0.0)
        return E, vecs, w, charge

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

    Each step matches the new points to the current ones (``_match_rows``)
    in one sector, ignoring the charges, so that the path is independent of
    the grading; once a ratio reaches _GAP_SAFETY the match is ambiguous
    and the ratio returned is inf.
    """
    rng = random.Random(seed)
    E = _raw_spectrum(params.with_p(0.0), rng)[0]
    one = np.zeros(len(E), dtype=np.intp)
    E = E[_match_rows(E, one, spectral_points_p0(params), one)]
    worst = 0.0
    for k in range(1, steps + 1):
        E_new = _raw_spectrum(params.with_p(params.p * k / steps), rng)[0]
        perm = _match_rows(E_new, one, E, one)
        worst = max(worst, _moved(E_new, E, perm) / _row_gaps(E, one).min())
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
    one = np.zeros(len(spec.labels), dtype=np.intp)
    assert _match_rows(spec.e_matrix(), one, ref, one).tolist() == list(range(len(spec.labels)))
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
    one = np.zeros(len(spec.labels), dtype=np.intp)
    assert _match_rows(spec.e_matrix(), one, ref, one).tolist() == list(range(len(spec.labels)))
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
    delta = [0.0]

    def points(p):
        s = math.hypot(p - 0.6, delta[0])
        return np.array([[3.0 * p - s], [3.0 * p + s]], dtype=complex)

    def raw(params, rng):  # both points of one charge: the ungraded case
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        return points(params.p)[::-1], vecs, np.ones(2), np.zeros(2, dtype=np.intp)

    def set_delta(value):
        delta[0] = value
        return points

    monkeypatch.setattr(operators, "_raw_spectrum", raw)
    monkeypatch.setattr(operators, "spectral_points_p0", lambda params: points(0.0))
    cone = dataclasses.replace(level_cone(2, 1), weights=np.zeros(2, dtype=np.int16))  # one charge for both labels
    monkeypatch.setattr(operators, "level_cone", lambda n, m: cone)
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


def test_spectrum_first_made_at_minus_p_equals_a_fresh_one_at_p():
    """Evenness in the nome, tested by two separate computations."""
    params = ModelParams.locked(4, 3, 0.7, 0.6)
    coeffs.clear_coeff_caches()
    fresh = joint_spectrum(params.with_p(-0.6), seed=0)
    coeffs.clear_coeff_caches()
    joint_spectrum(params, seed=0)
    kept = joint_spectrum(params.with_p(-0.6), seed=0)
    coeffs.clear_coeff_caches()
    for name in ("e", "vectors", "dual_norms"):
        assert np.array_equal(getattr(fresh, name), getattr(kept, name))
    assert fresh.homotopy_steps == kept.homotopy_steps


def test_minus_p_runs_no_eig(monkeypatch):
    """The other sign returns the kept spectrum itself: no eigensolve, the same bits."""
    params = ModelParams.locked(3, 3, 0.7, 0.9)
    coeffs.clear_coeff_caches()
    calls = _counting_eig(monkeypatch)
    plus = joint_spectrum(params, seed=0)
    assert calls
    calls.clear()
    assert joint_spectrum(params.with_p(-0.9), seed=0) is plus
    assert calls == []
    assert plus.params == params and plus.homotopy_steps[-1] == 0.9
    assert joint_spectrum(params, seed=0) is plus
    joint_spectrum(params, seed=1)  # another seed is another entry
    assert calls
    coeffs.clear_coeff_caches()


def test_one_spectrum_is_kept_per_abs_p_and_seed(monkeypatch):
    """Calls at p and -p share one kept entry per seed, S included: no eigh, no second object."""
    params = ModelParams.locked(3, 3, 0.7, 0.6)
    minus = params.with_p(-0.6)
    coeffs.clear_coeff_caches()
    plus = joint_spectrum(params, seed=0)
    calls = _counting_eig(monkeypatch)
    for _ in range(3):
        assert joint_spectrum(minus, seed=0) is plus
        assert fusion.s_matrix(minus).spectrum is plus
    assert fusion.s_matrix(minus).S is fusion.s_matrix(params).S
    assert calls == []
    joint_spectrum(minus, seed=1)
    assert joint_spectrum(params, seed=1) is joint_spectrum(minus, seed=1)
    kept = coeffs._table(params).kept
    assert sorted(key for key in kept if key[0] == "spectrum") == [("spectrum", 3, 3, 0), ("spectrum", 3, 3, 1)]
    coeffs.clear_coeff_caches()


def test_a_spectrum_first_asked_at_minus_p_is_at_plus_p():
    """The first call's sign does not matter: the kept spectrum is at |p|, either way round."""
    params = ModelParams.locked(3, 2, 0.7, -0.4)
    coeffs.clear_coeff_caches()
    kept = joint_spectrum(params, seed=0)
    assert kept.params == params.with_p(0.4) and kept.homotopy_steps[-1] == 0.4
    assert joint_spectrum(params.with_p(0.4), seed=0) is kept
    coeffs.clear_coeff_caches()


def test_kept_spectrum_forms_no_cycle():
    """With the collector off, clearing the store frees the spectrum and its derived values."""
    params = ModelParams.locked(3, 3, 0.7, 0.6)
    coeffs.clear_coeff_caches()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = weakref.ref(joint_spectrum(params.with_p(-0.6), seed=0))
        S = weakref.ref(fusion.s_matrix(params).S)
        projection_arrays(params.with_p(-0.6), None)
        assert kept() is not None and S() is not None
        coeffs.clear_coeff_caches()
        assert kept() is None and S() is None
    finally:
        if enabled:
            gc.enable()


def test_nonzero_nomes_solve_no_p0_spectrum(monkeypatch):
    """The walk starts from the closed form: no solve at p = 0, and the -p call runs no eigensolve."""
    params = ModelParams.locked(4, 3, 0.7, 0.3)
    raw = operators._raw_spectrum
    solved = []

    def counted(params, rng):
        solved.append(params.p)
        return raw(params, rng)

    monkeypatch.setattr(operators, "_raw_spectrum", counted)
    coeffs.clear_coeff_caches()
    for p in (0.3, 0.6, 0.9):
        assert joint_spectrum(params.with_p(p), seed=0).homotopy_steps[-1] == p
    assert solved and 0.0 not in solved
    calls = _counting_eig(monkeypatch)
    assert joint_spectrum(params.with_p(-0.6), seed=0) is joint_spectrum(params.with_p(0.6), seed=0)
    assert calls == []
    assert joint_spectrum(params.with_p(0.0), seed=0).homotopy_steps == ()
    assert solved[-1] == 0.0 and len(calls) == 1  # p = 0 itself is one solve
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_a_bad_seed_raises_before_any_lookup(seed, monkeypatch):
    """random.seed takes |seed|, so -1 would draw seed 1's bits under a key of its own."""
    monkeypatch.setattr(coeffs, "_kept", lambda *a: pytest.fail("the store was read"))
    with pytest.raises(ValueError, match=re.escape(f"got seed={seed}")):
        joint_spectrum(ModelParams.locked(3, 3, 0.7, 0.6), seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(0, 3),
    g=st.floats(0.3, 1.9),
    p=st.floats(0.0, 0.9, exclude_min=True),
    seed=st.integers(0, 3),
)
def test_p_and_minus_p_keep_one_spectrum(n, m, g, p, seed):
    """A first call at -p gives the bits of a fresh first call at p; the other sign then returns that object."""
    plus, minus = ModelParams.locked(n, m, g, p), ModelParams.locked(n, m, g, -p)
    coeffs.clear_coeff_caches()
    first = joint_spectrum(minus, seed=seed)
    coeffs.clear_coeff_caches()
    fresh = joint_spectrum(plus, seed=seed)
    try:
        for name in ("e", "vectors", "dual_norms"):
            assert getattr(first, name).tobytes() == getattr(fresh, name).tobytes()
        assert first.homotopy_steps == fresh.homotopy_steps and min(fresh.homotopy_steps) > 0
        assert joint_spectrum(minus, seed=seed) is fresh
        assert fusion.s_matrix(minus, seed=seed).S is fusion.s_matrix(plus, seed=seed).S
        assert sum(key[0] == "spectrum" for key in coeffs._table(plus).kept) == 1
    finally:
        coeffs.clear_coeff_caches()


@pytest.mark.parametrize("p", [0.6, -0.9])
def test_spectrum_does_not_depend_on_a_kept_p0_start(p):
    params = ModelParams.locked(4, 3, 0.7, p)
    coeffs.clear_coeff_caches()
    fresh = joint_spectrum(params, seed=2)  # nothing else kept
    coeffs.clear_coeff_caches()
    joint_spectrum(params.with_p(0.0), seed=2)
    joint_spectrum(params.with_p(0.3), seed=2)
    kept = joint_spectrum(params, seed=2)  # other spectra of this coupling kept
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
    assert coeffs._table(params).kept[("spectrum", 3, 2, 0)] is first
    key = (params.alpha, params.g, 0.4)
    assert key in coeffs._TABLES
    for k in range(coeffs.TABLE_LIMIT):  # unfilled tables at other |p| push it out
        coeffs._table(params.with_p(0.5 + k / 1000))
    assert key not in coeffs._TABLES
    calls = _counting_eig(monkeypatch)
    second = joint_spectrum(params, seed=0)
    assert calls and second is not first
    assert np.array_equal(first.e, second.e)
    coeffs.clear_coeff_caches()


def test_value_table_is_kept_with_the_kept_spectrum(monkeypatch):
    """V at p and at -p is one read-only array, evaluated once; a spectrum with other e gets its own."""
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    spec = joint_spectrum(params)
    V = projection_arrays(params, spec)[0]
    with pytest.raises(ValueError):
        V[0, 0] = 0.0
    calls = []
    batch = operators.evaluate_batch
    monkeypatch.setattr(operators, "evaluate_batch", lambda *a: calls.append(a) or batch(*a))
    minus = params.with_p(-0.4)
    assert projection_arrays(minus, joint_spectrum(minus))[0] is V and calls == []
    other = dataclasses.replace(spec, e=spec.e.copy())
    own = projection_arrays(params, other)[0]
    assert own is not V and len(calls) == 1 and own.tobytes() == V.tobytes()
    assert projection_arrays(params, spec)[0] is V  # the other spectrum's V was not stored
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("n,m,g,p", [(3, 1, 0.25, 0.95), (4, 1, 0.25, 0.95)])
def test_ill_conditioned_eigenbasis_raises(n, m, g, p):
    """kappa = max/min |c| sqrt(Delta) of 1.7e10 and 4.7e15 raises instead of an S with S Sinv far from I."""
    with pytest.raises(IllConditioned, match=r"^eigenbasis scales spread by \S+ > 1e\+09$"):
        fusion.s_matrix(ModelParams.locked(n, m, g, p))


def test_kappa_limit_passes_the_hypothesis_corner():
    """kappa 2.7e7 at n=4 m=3 g=1.9 p=0.9, the worst of the property domain, builds S."""
    assert fusion.s_matrix(ModelParams.locked(4, 3, 1.9, 0.9)).identity_residual() < 1e-6


@pytest.mark.parametrize(
    "n,m,g,p", [(2, 2, 2.5, 0.97), (2, 2, 1.3, -0.99), (3, 3, 2.5, 0.97), (4, 1, 0.25, 0.95)]
)
def test_tiny_eigenvalues_never_give_a_silently_bad_s(n, m, g, p):
    """Eigenvalues far below 1 in size: either a typed error or a sound S."""
    try:
        sm = fusion.s_matrix(ModelParams.locked(n, m, g, p))
    except ComputationError:
        return
    assert sm.identity_residual() < 1e-8


def test_tiny_eigenvalues_separate_relative_to_their_size():
    """At n=2 m=2 g=2.5 p=0.97 the eigenvalues of the conjugated D_1 are +-2.4e-11 and 0.

    The clustering test scales with max|h|, so they resolve in one step to
    joint eigenvectors; the eigenbasis scales spread by 3.5e21, which
    ``s_matrix`` reports as IllConditioned.
    """
    params = ModelParams.locked(2, 2, 2.5, 0.97)
    assert _joint_residual(params, joint_spectrum(params, seed=0)) <= 1e-13
    with pytest.raises(IllConditioned):
        fusion.s_matrix(params)


def test_clustered_combinations_raise_after_every_attempt(monkeypatch):
    """Identity operators make every random combination cluster: DegenerateCombination after the last eigh."""
    conjugated = operators.conjugated_matrices

    def identities(params):
        mats, w = conjugated(params)
        return [np.eye(len(w), dtype=complex) for _ in mats], w

    monkeypatch.setattr(operators, "conjugated_matrices", identities)
    calls = _counting_eig(monkeypatch)
    with pytest.raises(DegenerateCombination, match="clustered eigenvalues"):
        _raw_spectrum(ModelParams.locked(3, 2, 0.7, 0.3), random.Random(0))
    assert calls == [(6, 6)] * operators._COMBO_ATTEMPTS
