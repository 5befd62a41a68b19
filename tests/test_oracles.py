import numpy as np
import pytest

from ellfusion.errors import NonIntegral
from ellfusion.kernel import qpow, trig_bracket
from ellfusion.oracles import (
    classical_fusion,
    kac_peterson_smatrix,
    macdonald_lr_p0,
    macdonald_pieri_p0,
    refined_tensor,
    schur_eval,
    schur_in_elementary,
)
from ellfusion.partitions import contains, partitions_of_weight, weight


def test_schur_single_row_and_column():
    x = (1.0, 2.0, 3.0)
    assert schur_eval((1, 0, 0), x) == 6.0
    assert schur_eval((1, 1, 0), x) == 1 * 2 + 1 * 3 + 2 * 3
    assert schur_eval((1, 1, 1), x) == 6.0


def test_schur_tableau_count():
    assert schur_eval((2, 1, 0), (1.0, 1.0, 1.0)) == 8.0
    assert schur_eval((0, 0, 0), (1.0, 1.0, 1.0)) == 1.0
    # more rows than variables kills the column-strict condition
    assert schur_eval((1, 1, 1), (1.0, 1.0)) == 0.0


def test_schur_in_elementary_small_cases():
    assert schur_in_elementary((2, 0), 2) == {(2, 0): 1, (1, 1): -1}
    assert schur_in_elementary((2, 1, 0), 3) == {(2, 1, 0): 1, (1, 1, 1): -1}
    assert schur_in_elementary((0, 0), 2) == {(0, 0): 1}


def test_schur_in_elementary_consistent_with_tableaux():
    rng = np.random.default_rng(2)
    from ellfusion.polynomials import elementary_symmetric

    for mu in [(2, 1, 0), (3, 1, 0), (2, 2, 1), (3, 2, 1)]:
        x = tuple(rng.uniform(0.5, 2.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3))
        es = elementary_symmetric(x)
        via_e = 0.0 + 0.0j
        for key, c in schur_in_elementary(mu, 3).items():
            term = complex(c)
            for j in range(3):
                exp = key[j] - (key[j + 1] if j < 2 else 0)
                term *= es[j] ** exp
            via_e += term
        direct = schur_eval(mu, x)
        assert abs(via_e - direct) < 1e-10 * max(1.0, abs(direct))


def test_trig_strip_weights():
    alpha, g = 2.0, 0.7
    assert macdonald_pieri_p0((1, 0), (2, 0), alpha, g) == 1.0
    want = (
        trig_bracket(2 * g, alpha)
        * trig_bracket(1.0, alpha)
        / (trig_bracket(g, alpha) * trig_bracket(1 + g, alpha))
    )
    got = macdonald_pieri_p0((1, 0), (1, 1), alpha, g)
    assert abs(got - want) < 1e-14
    with pytest.raises(ValueError, match="parts must be non-increasing"):
        macdonald_pieri_p0((1, 0), (0, 1), alpha, g)


def test_kac_peterson_unitary_after_normalization():
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        labels, S = kac_peterson_smatrix(n, m)
        G = S @ S.conj().T
        scale = G[0, 0].real
        assert np.abs(G - scale * np.eye(len(labels))).max() < 1e-12 * scale


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 2)])
def test_determinant_smatrix_matches_tableau_sums(n, m):
    """The Weyl-determinant S equals the sine form with every Schur value summed over tableaux."""
    labels, S = kac_peterson_smatrix(n, m)
    alpha = 2.0 * np.pi / (m + n)
    rho = [qpow(alpha, n - 1 - j) for j in range(n)]
    want = np.empty_like(S)
    for j, nu in enumerate(labels):
        point = [qpow(alpha, nu[i] + n - 1 - i) for i in range(n)]
        for i, lam in enumerate(labels):
            pref = qpow(alpha, -weight(lam) * weight(nu) / n - (n - 1) * (weight(lam) + weight(nu)) / 2.0)
            want[i, j] = pref * schur_eval(lam, point) * schur_eval(nu, rho)
    assert np.abs(S - want).max() < 1e-12 * np.abs(want).max()


def test_classical_fusion_examples():
    assert classical_fusion((1, 0), (1, 0), 2, 1) == {(0, 0): 1}
    assert classical_fusion((1, 0), (1, 0), 2, 2) == {(0, 0): 1, (2, 0): 1}
    assert classical_fusion((0, 0), (1, 0), 2, 2) == {(1, 0): 1}
    got = classical_fusion((1, 0, 0), (1, 1, 0), 3, 2)
    assert got == {(0, 0, 0): 1, (2, 1, 0): 1}


@pytest.mark.parametrize("factor", [(3, 0), (1, 1), (1, 0, 0)])
def test_classical_fusion_rejects_a_factor_off_the_cone(factor):
    with pytest.raises(ValueError, match=r"is not a label of the level cone n=2 m=2"):
        classical_fusion(factor, (1, 0), 2, 2)
    with pytest.raises(ValueError, match=r"factor \(.*\) is not a label"):
        classical_fusion((1, 0), factor, 2, 2)


def test_classical_fusion_ring_axioms():
    n, m = 3, 2
    from ellfusion.partitions import enumerate_level

    labels = enumerate_level(n, m)
    tables = {
        (lam, mu): classical_fusion(lam, mu, n, m) for lam in labels for mu in labels
    }
    for lam in labels:
        for mu in labels:
            assert tables[(lam, mu)] == tables[(mu, lam)]
            for kappa, v in tables[(lam, mu)].items():
                assert isinstance(v, int) and v >= 0
    zero = (0,) * n
    for mu in labels:
        assert tables[(zero, mu)] == {mu: 1}


def test_classical_fusion_builds_the_sine_matrix_once(monkeypatch):
    from ellfusion import oracles
    from ellfusion.partitions import enumerate_level

    calls = []
    monkeypatch.setattr(
        oracles, "kac_peterson_smatrix",
        lambda n, m: calls.append((n, m)) or kac_peterson_smatrix(n, m),
    )
    oracles._classical_transform.cache_clear()
    labels = enumerate_level(3, 3)
    tables = [classical_fusion(lam, mu, 3, 3) for lam in labels for mu in labels]
    oracles._classical_transform.cache_clear()
    assert calls == [(3, 3)]
    assert tables[0] == {(0, 0, 0): 1}
    # the public builder still hands out a fresh array
    assert kac_peterson_smatrix(2, 2)[1] is not kac_peterson_smatrix(2, 2)[1]


def test_non_integral_classical_tensor_names_a_label(monkeypatch):
    from ellfusion import oracles

    def perturbed(n, m):
        labels, S = kac_peterson_smatrix(n, m)
        S[1, 1] *= 1.1
        return labels, S

    monkeypatch.setattr(oracles, "kac_peterson_smatrix", perturbed)
    oracles._classical_transform.cache_clear()
    try:
        with pytest.raises(NonIntegral, match=r"for \(\d, \d, \d\) in \(\d, \d, \d\) x \(\d, \d, \d\)"):
            classical_fusion((0, 0, 0), (1, 0, 0), 3, 2)
    finally:
        oracles._classical_transform.cache_clear()


def test_repeated_trig_structure_coefficients_reuse_the_table(monkeypatch):
    from ellfusion import oracles

    first = macdonald_lr_p0((2, 1, 0), (1, 1, 0), 2.0, 0.65)
    calls = []
    real = oracles.macdonald_pieri_p0
    monkeypatch.setattr(
        oracles, "macdonald_pieri_p0", lambda *args: calls.append(args) or real(*args)
    )
    again = macdonald_lr_p0((2, 1, 0), (1, 1, 0), 2.0, 0.65)
    assert calls == []
    assert again == first


def test_trig_structure_coefficients_support_and_symmetry():
    shapes = [mu for w in range(1, 4) for mu in partitions_of_weight(3, w)]
    for lam in shapes:
        for mu in shapes:
            a = macdonald_lr_p0(lam, mu, 2.0, 0.65)
            b = macdonald_lr_p0(mu, lam, 2.0, 0.65)
            assert set(a) == set(b)
            for k, v in a.items():
                assert contains(lam, k) and contains(mu, k)
                assert weight(k) == weight(lam) + weight(mu)
                assert abs(v - b[k]) < 1e-11



@pytest.mark.parametrize("n,m", [(3, 3), (4, 4)])
def test_refined_tensor_matches_the_reduced_trig_structure_coefficients(n, m):
    """At low weight the greedy peel is sound: the Verlinde tensor equals it, reduced, on every pair."""
    from ellfusion.fusion import reduce_mod_ideal
    from ellfusion.kernel import ModelParams

    g = 0.8
    params = ModelParams.locked(n, m, g, 0.0)
    labels, tensor = refined_tensor(n, m, g)
    assert tensor.shape == (len(labels),) * 3
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            want = reduce_mod_ideal(macdonald_lr_p0(lam, mu, params.alpha, g), params)
            assert np.abs(tensor[i, j] - [want.get(kappa, 0.0) for kappa in labels]).max() < 1e-12


def test_refined_tensor_matches_the_ring_route_where_the_peel_fails(monkeypatch):
    """n=4 m=8: within 1e-8 of the ring route on (8,8,4,0) x (8,8,3,0), where the binary64 peel
    is 1e-6 off; the imaginary parts that the tensor drops are rounding."""
    from ellfusion import oracles
    from ellfusion.fusion import _ring_table
    from ellfusion.kernel import ModelParams

    dropped = []
    rows = oracles._verlinde_rows

    def recorded(V):
        for row in rows(V):
            dropped.append(np.abs(row.imag).max())
            yield row

    monkeypatch.setattr(oracles, "_verlinde_rows", recorded)
    labels, tensor = refined_tensor(4, 8, 0.8)
    assert len(dropped) == len(labels) == 165 and max(dropped) <= 1e-10
    ring = _ring_table(ModelParams.locked(4, 8, 0.8, 0.0))
    i, j = labels.index((8, 8, 4, 0)), labels.index((8, 8, 3, 0))
    assert np.abs(tensor[i, j] - ring[i, j]).max() < 1e-8
