import gc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from ellfusion import coeffs
from ellfusion.errors import GenericityViolation, TrackingAmbiguity
from ellfusion.fusion import fusion_table
from ellfusion.kernel import ModelParams
from ellfusion.littlewood import expand_in_P, lr_coefficients, multiply_monomial
from ellfusion.operators import joint_spectrum
from ellfusion.oracles import schur_eval, schur_in_elementary
from ellfusion.partitions import (
    add,
    column,
    dominance_leq,
    partitions_of_weight,
    vertical_strips,
    weight,
)
from ellfusion.polynomials import (
    PolynomialInE,
    build_P,
    elementary_symmetric,
    evaluate,
    evaluate_batch,
    evaluate_R,
    normalized_p,
)

FREE2 = ModelParams.free(2, g=0.7, p=0.3, alpha=2.0)
FREE3 = ModelParams.free(3, g=0.45, p=0.2, alpha=2.0)


def test_base_cases():
    assert build_P((0, 0, 0), FREE3).coeffs == {(0, 0, 0): 1.0}
    for r in (1, 2, 3):
        mu = column(3, r)
        assert build_P(mu, FREE3).coeffs == {mu: 1.0}
    # constant span shapes reduce to powers of the full column
    assert build_P((2, 2, 2), FREE3).coeffs == {(2, 2, 2): 1.0}
    assert build_P((3, 3), FREE2).coeffs == {(3, 3): 1.0}


def test_two_row_expansion_matches_hand_formula():
    P = build_P((2, 0), FREE2)
    psi = coeffs.psi_prime((1, 0), (1, 1), FREE2)
    assert set(P.coeffs) == {(2, 0), (1, 1)}
    assert P.coeffs[(2, 0)] == 1.0
    assert abs(P.coeffs[(1, 1)] + psi) < 1e-14


def test_two_row_expansion_at_unit_coupling_is_schur():
    params = ModelParams.free(2, g=1.0, p=0.3, alpha=2.0)
    P = build_P((2, 0), params)
    assert abs(P.coeffs[(1, 1)] + 1.0) < 1e-12


def test_evaluate_examples():
    assert evaluate(build_P((0, 0), FREE2), (1.7, 2.9)) == 1.0
    assert evaluate(build_P((1, 0), FREE2), (1.7, 2.9)) == 1.7
    params = ModelParams.free(2, g=1.0, p=0.0, alpha=2.0)
    got = evaluate(build_P((2, 0), params), (2.0, 1.0))
    assert abs(got - 3.0) < 1e-12


def test_normalized_values():
    e = (0.8 + 0.1j, 1.4 - 0.2j)
    assert normalized_p((0, 0), e, FREE2) == 1.0
    c = coeffs.c_norm((1, 0), FREE2)
    assert abs(normalized_p((1, 0), e, FREE2) - c * e[0]) < 1e-14


def test_embedded_evaluation():
    assert evaluate_R((0, 0, 0), (1.2, 0.4, 2.2), FREE3) == 1.0
    got = evaluate_R((1, 0, 0), (1.2, 0.4, 2.2), FREE3)
    assert abs(got - (1.2 + 0.4 + 2.2)) < 1e-14
    params = ModelParams.free(3, g=1.0, p=0.0, alpha=2.0)
    assert abs(evaluate_R((2, 1, 0), (1.0, 1.0, 1.0), params) - 8.0) < 1e-10


def test_elementary_symmetric():
    es = elementary_symmetric((2.0, 3.0, 5.0))
    assert [round(x.real) for x in es] == [10, 31, 30]


def test_unitriangularity_and_homogeneity():
    for w in range(7):
        for mu in partitions_of_weight(3, w):
            P = build_P(mu, FREE3)
            assert P.coeffs[mu] == 1.0
            for key in P.coeffs:
                assert weight(key) == w
                if key != mu:
                    assert dominance_leq(key, mu) and key != mu


def test_pieri_ring_identity():
    for w in range(6):
        for mu in partitions_of_weight(3, w):
            P = build_P(mu, FREE3)
            for s in (1, 2, 3):
                lhs = {add(k, column(3, s)): v for k, v in P.items()}
                rhs = {}
                for nu in vertical_strips(mu, s):
                    wgt = coeffs.psi_prime(mu, nu, FREE3)
                    for k, v in build_P(nu, FREE3).items():
                        rhs[k] = rhs.get(k, 0.0) + wgt * v
                scale = max(abs(v) for v in lhs.values())
                for k in set(lhs) | set(rhs):
                    assert abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) <= 1e-10 * scale


def test_joint_eigenfunction_equation_at_arbitrary_point():
    rng = np.random.default_rng(7)
    for _ in range(3):
        e = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        for mu in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1)]:
            for s in (1, 2, 3):
                lhs = sum(
                    coeffs.hop_B(mu, nu, FREE3) * normalized_p(nu, e, FREE3)
                    for nu in vertical_strips(mu, s)
                )
                rhs = e[s - 1] * normalized_p(mu, e, FREE3)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_coupling_one_limit_matches_schur_expansion():
    lo = ModelParams.free(3, g=1.0 - 1e-6, p=0.3, alpha=2.0)
    hi = ModelParams.free(3, g=1.0 + 1e-6, p=0.3, alpha=2.0)
    for w in range(5):
        for mu in partitions_of_weight(3, w):
            a, b = build_P(mu, lo).coeffs, build_P(mu, hi).coeffs
            want = schur_in_elementary(mu, 3)
            for k in set(a) | set(b) | set(want):
                mean = 0.5 * (a.get(k, 0.0) + b.get(k, 0.0))
                assert abs(mean - want.get(k, 0)) < 1e-4


def test_embedded_limit_matches_schur_values():
    rng = np.random.default_rng(11)
    lo = ModelParams.free(3, g=1.0 - 1e-6, p=0.3, alpha=2.0)
    hi = ModelParams.free(3, g=1.0 + 1e-6, p=0.3, alpha=2.0)
    for mu in [(2, 0, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        x = tuple(rng.uniform(0.5, 1.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3))
        got = 0.5 * (evaluate_R(mu, x, lo) + evaluate_R(mu, x, hi))
        want = schur_eval(mu, x)
        assert abs(got - want) < 1e-4 * max(1.0, abs(want))


def test_buildability_gate():
    # level-locked at resonant coupling: spans beyond m+1 are rejected
    locked = ModelParams.locked(2, 1, 1.0, 0.0)
    build_P((2, 0), locked)  # span m+1 is analytic
    with pytest.raises(GenericityViolation):
        build_P((3, 0), locked)
    # generic locked coupling admits larger spans
    generic = ModelParams.locked(2, 1, 0.7, 0.0)
    build_P((3, 0), generic)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        build_P((1, 0, 0), FREE2)
    with pytest.raises(ValueError):
        evaluate(build_P((1, 0), FREE2), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        evaluate_batch([build_P((1, 0), FREE2)], [(1.0,)])


def test_evaluate_batch_edge_cases():
    points = [(1.7, 2.9), (0.3 - 0.4j, -1.1 + 2.0j)]
    values, scales = evaluate_batch([PolynomialInE(2), build_P((0, 0), FREE2)], points)
    assert values.shape == scales.shape == (2, 2)
    assert np.all(values[0] == 0.0) and np.all(scales[0] == 1.0)
    assert np.all(values[1] == 1.0) and np.all(scales[1] == 1.0)
    schur = build_P((2, 0), ModelParams.free(2, g=1.0, p=0.0, alpha=2.0))  # e_1^2 - e_2
    values, scales = evaluate_batch([schur], [(2.0, 4.0)])  # the terms cancel; the scale does not
    assert abs(values[0, 0]) < 1e-11 and abs(scales[0, 0] - 8.0) < 1e-11
    with pytest.raises(ValueError):
        evaluate_batch([build_P((1, 0), FREE2)], [(1.0, 2.0, 3.0)])
    with pytest.raises(ValueError):
        evaluate_batch([build_P((1, 0), FREE2), build_P((1, 0, 0), FREE3)], points)


def _mp_value(P: PolynomialInE, e) -> complex:
    """P(e) summed term by term at the working precision of mpmath."""
    total = mpmath.mpc(0)
    for kappa, u in P.items():
        term = mpmath.mpf(u)
        for j in range(P.n):
            term *= e[j] ** (kappa[j] - (kappa[j + 1] if j + 1 < P.n else 0))
        total += term
    return complex(total)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 4),
    g=st.floats(0.3, 1.9),
    p=st.floats(-0.9, 0.9),
)
def test_evaluate_batch_matches_extended_precision(n, m, g, p):
    """Every value at the spectral points is within 1e-13 x its scale of a 40-digit sum."""
    params = ModelParams.locked(n, m, g, p)
    try:
        spec = joint_spectrum(params)
    except TrackingAmbiguity:
        reject()
    polys = [build_P(lam, params) for lam in spec.labels]
    values, scales = evaluate_batch(polys, spec.e)
    with mpmath.workdps(40):
        for j, e in enumerate(spec.e.tolist()):
            e = [mpmath.mpc(z) for z in e]
            want = np.array([_mp_value(P, e) for P in polys])
            assert np.all(np.abs(values[:, j] - want) <= 1e-13 * scales[:, j])


def _count_psi_prime(monkeypatch) -> list:
    calls = []
    real = coeffs.psi_prime

    def counted(lam, nu, params):
        calls.append(lam)
        return real(lam, nu, params)

    monkeypatch.setattr(coeffs, "psi_prime", counted)
    return calls


def test_evicting_a_bracket_table_drops_its_polynomials(monkeypatch):
    monkeypatch.setattr(coeffs, "TABLE_LIMIT", 2)
    coeffs.clear_coeff_caches()
    params = ModelParams.locked(3, 4, 0.7, 0.3)
    mu = (3, 1, 0)
    first = build_P(mu, params).coeffs
    F = multiply_monomial(build_P((2, 1, 0), params), build_P((2, 2, 0), params))
    expansion = expand_in_P(F, params)
    products = lr_coefficients((2, 1, 0), (2, 2, 0), params)
    store = weakref.ref(coeffs._table(params, 0, 0))
    calls = _count_psi_prime(monkeypatch)
    for p in (0.4, 0.5):  # two more tables push the first one out
        build_P(mu, params.with_p(p))
    gc.collect()
    assert store() is None  # nothing else holds the table or its P's
    calls.clear()
    assert expand_in_P(F, params) == expansion
    assert calls  # rebuilt from the recurrence
    assert lr_coefficients((2, 1, 0), (2, 2, 0), params) == products
    assert build_P(mu, params).coeffs == first
    coeffs.clear_coeff_caches()


def test_lr_table_at_minus_p_reuses_the_polynomials_of_plus_p(monkeypatch):
    coeffs.clear_coeff_caches()
    calls = []
    real = coeffs.level_psi  # the ring route's one source of Pieri weights
    monkeypatch.setattr(coeffs, "level_psi", lambda r, params: calls.append(r) or real(r, params))
    plus = fusion_table(ModelParams.locked(3, 8, 0.7, 0.3), route="lr")
    assert calls
    calls.clear()
    minus = fusion_table(ModelParams.locked(3, 8, 0.7, -0.3), route="lr")
    assert calls == []
    assert np.array_equal(plus.values, minus.values)


def test_gate_runs_on_a_store_hit():
    """A P built under the level lock is not handed out at a resonant free coupling."""
    locked = ModelParams.locked(3, 13, 0.5, 0.3)  # span 14 = m + 1 is analytic
    free = ModelParams.free(3, 0.5, 0.3, alpha=locked.alpha)  # same bracket table
    build_P((14, 0, 0), locked)
    assert (14, 0, 0) in coeffs._table(free).polys
    with pytest.raises(GenericityViolation):
        build_P((14, 0, 0), free)  # [14 + g] vanishes at this alpha
    with pytest.raises(GenericityViolation):
        lr_coefficients((14, 0, 0), (0, 0, 0), free)
    with pytest.raises(GenericityViolation):
        expand_in_P(PolynomialInE(3, {(14, 0, 0): 1.0}), free)
