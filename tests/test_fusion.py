import dataclasses
import math
import re
import sys
from array import array

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from ellfusion import coeffs, fusion, operators, polynomials
from ellfusion.errors import ComputationError, TrackingAmbiguity
from ellfusion.kernel import ModelParams, trig_bracket
from ellfusion.littlewood import lr_coefficients
from ellfusion.fusion import (
    fusion_pieri,
    fusion_table,
    reduce_mod_ideal,
    s_matrix,
    structure_constants_lr,
    structure_constants_projection,
    structure_constants_verlinde,
)
from ellfusion.operators import delta_vector, joint_spectrum, projection_arrays
from ellfusion.oracles import kac_peterson_smatrix, macdonald_pieri_p0
from ellfusion.partitions import (
    contains,
    enumerate_level,
    level_cone,
    partitions_of_weight,
    span,
    underline,
    vertical_strips,
    weight,
)
from ellfusion.polynomials import build_P, evaluate_batch


def test_reduce_mod_ideal_examples():
    params = ModelParams.locked(2, 1, 0.7, 0.0)
    got = reduce_mod_ideal({(2, 0): 2.5, (1, 1): 1.5}, params)
    assert got == {(0, 0): 1.5}
    assert reduce_mod_ideal({}, params) == {}
    table = {(1, 0): 0.5, (0, 0): 1.25}
    assert reduce_mod_ideal(table, params) == table


def test_reduce_mod_ideal_refuses_free_parameters():
    """Without the level lock the keys of span > m form no ideal: free parameters raise, as in fusion_pieri."""
    free = ModelParams.free(3, 0.7, 0.3, 2.0, m=2)
    for expansion in ({(3, 0, 0): 1.0, (2, 1, 1): 2.0}, {}):
        with pytest.raises(ValueError, match="level-locked"):
            reduce_mod_ideal(expansion, free)


def test_fusion_pieri_drops_boundary_strips():
    params = ModelParams.locked(2, 1, 0.8, 0.3)
    got = fusion_pieri((1, 0), 1, params)
    # the (2,0) strip leaves the level cone; only (1,1) -> (0,0) survives
    want = coeffs.psi_prime((1, 0), (1, 1), params)
    assert set(got) == {(0, 0)}
    assert abs(got[(0, 0)] - want) < 1e-14


def test_fusion_pieri_rejects_a_partition_of_another_length():
    with pytest.raises(ValueError, match="does not match n=3"):
        fusion_pieri((1, 0), 1, ModelParams.locked(3, 2, 0.7, 0.3))


def test_fusion_pieri_rejects_free_parameters():
    """Free mode has no level ideal: no m = 0 default, and no m = 2 'fusion' weights."""
    for m in (0, 2):
        params = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=m)
        for lam in ((1, 0, 0), (2, 1, 0)):
            with pytest.raises(ValueError, match="level-locked"):
                fusion_pieri(lam, 1, params)


def test_two_site_fusion_at_general_coupling():
    for g in (0.7, 1.3):
        params = ModelParams.locked(2, 1, g, 0.3)
        got = structure_constants_verlinde((1, 0), (1, 0), params)
        want = coeffs.psi_prime((1, 0), (1, 1), params)
        assert set(got) == {(0, 0)}
        assert abs(got[(0, 0)] - want) < 1e-9


def test_unit_element():
    params = ModelParams.locked(3, 2, 0.9, 0.2)
    sm = s_matrix(params)
    for mu in sm.labels:
        got = structure_constants_verlinde((0, 0, 0), mu, params, spectrum=sm.spectrum)
        for kappa in sm.labels:
            want = 1.0 if kappa == mu else 0.0
            assert abs(got.get(kappa, 0.0) - want) < 1e-10


def test_classical_su2_level2_point():
    params = ModelParams.locked(2, 2, 1.0, 0.0)
    got = structure_constants_verlinde((1, 0), (1, 0), params)
    assert set(got) == {(0, 0), (2, 0)}
    assert abs(got[(0, 0)] - 1.0) < 1e-10
    assert abs(got[(2, 0)] - 1.0) < 1e-10


def test_lr_route_agrees_with_spectral_route():
    for n, m in [(2, 2), (3, 2)]:
        for g, p in [(0.7, 0.4), (1.3, 0.0)]:
            params = ModelParams.locked(n, m, g, p)
            t_lr = fusion_table(params, route="lr")
            t_v = fusion_table(params, route="verlinde")
            assert np.abs(t_lr.values - t_v.values).max() < 1e-7


def test_limit_protocol_at_resonant_coupling():
    params = ModelParams.locked(2, 1, 1.0, 0.0)
    got, flags = structure_constants_lr((1, 0), (1, 0), params, return_flags=True)
    assert not flags
    assert abs(got[(0, 0)] - 1.0) < 1e-8
    t_v = structure_constants_verlinde((1, 0), (1, 0), params)
    assert abs(got[(0, 0)] - t_v[(0, 0)]) < 1e-7


def test_limit_protocol_at_a_half_integer_resonance():
    params = ModelParams.locked(3, 6, 0.5, 0.3)  # [7 + g] vanishes
    got, flags = structure_constants_lr((5, 0, 0), (6, 6, 0), params, return_flags=True)
    want = structure_constants_verlinde((5, 0, 0), (6, 6, 0), params)
    assert not flags and set(got) == set(want)
    assert all(abs(got[k] - want[k]) < 1e-7 for k in want)


def test_every_pair_of_the_half_integer_resonance_matches_verlinde():
    """At n=3 m=6 g=0.5, where [7 + g] vanishes, every ordered pair agrees with Verlinde to 1e-7."""
    for p in (0.0, 0.3):
        params = ModelParams.locked(3, 6, 0.5, p)
        t_v = fusion_table(params, route="verlinde")
        assert np.abs(fusion_table(params, route="lr").values - t_v.values).max() < 1e-7
        for i, lam in enumerate(t_v.labels):
            for j, mu in enumerate(t_v.labels):
                got, flags = structure_constants_lr(lam, mu, params, return_flags=True)
                want = t_v.values[i, j]
                assert not flags
                assert all(abs(got.get(k, 0.0) - w) < 1e-7 for k, w in zip(t_v.labels, want.tolist()))
                assert set(got) <= {k for k, w in zip(t_v.labels, want.tolist()) if w}


def test_lr_table_at_level_8_of_four_sites_matches_verlinde():
    params = ModelParams.locked(4, 8, 0.7, 0.3)
    t_lr, t_v = fusion_table(params, route="lr"), fusion_table(params, route="verlinde")
    assert np.abs(t_lr.values - t_v.values).max() < 1e-7


def _lr_row_of(table, i, j):
    labels = table.labels
    values = {k: v for k, v in zip(labels, table.values[i, j].tolist()) if v}
    return values, set()


@pytest.mark.parametrize("params", [ModelParams.locked(3, 3, 0.7, 0.3), ModelParams.locked(3, 2, 1.0, 0.3)])
@pytest.mark.parametrize("table_first", [True, False])
def test_lr_pairs_are_the_rows_of_the_table(params, table_first):
    """Pair calls and fusion_table(route="lr") read the same kept table, bit for bit, in either order."""
    coeffs.clear_coeff_caches()
    labels = enumerate_level(params.n, params.m)
    if table_first:
        table = fusion_table(params, route="lr")
    pairs = {
        (lam, mu): structure_constants_lr(lam, mu, params, return_flags=True) for lam in labels for mu in labels
    }
    if not table_first:
        table = fusion_table(params, route="lr")
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            assert pairs[(lam, mu)] == _lr_row_of(table, i, j)
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize(
    "params", [ModelParams.locked(3, 4, 0.7, 0.3), ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=3)]
)
def test_lr_rows_are_the_reduced_pair_products(params):
    """Level-locked, the Pieri table is the reduced product of every pair; free parameters raise."""
    coeffs.clear_coeff_caches()
    labels = enumerate_level(params.n, params.m)
    if not params.level_locked:
        with pytest.raises(ValueError, match="level-locked"):
            structure_constants_lr(labels[1], labels[1], params)
        return
    for lam in labels:
        for mu in labels:
            want = reduce_mod_ideal(lr_coefficients(lam, mu, params), params)
            got = structure_constants_lr(lam, mu, params)
            assert set(got) <= set(want)
            assert all(abs(got.get(k, 0.0) - v) < 1e-9 for k, v in want.items())


@pytest.mark.parametrize(
    "lam, mu",
    [
        ((8, 1, 0), (7, 3, 0)),
        ((7, 3, 0), (8, 1, 0)),
        ((8, 1, 0), (8, 3, 0)),
        ((8, 3, 0), (8, 1, 0)),
        ((8, 2, 0), (8, 2, 0)),
    ],
)
def test_free_ring_products_reduce_to_the_ring_route_at_level_8(lam, mu):
    """Pairs whose free-ring expansion once broke its own support check agree with the Pieri table."""
    params = ModelParams.locked(3, 8, 0.7, 0.3)
    want = structure_constants_lr(lam, mu, params)
    got = reduce_mod_ideal(lr_coefficients(lam, mu, params), params)
    assert all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= 1e-7 for k in set(got) | set(want))


def test_lr_results_are_fresh_objects():
    params = ModelParams.locked(2, 1, 1.0, 0.0)  # resonant: the limit protocol runs
    first, flags = structure_constants_lr((1, 0), (1, 0), params, return_flags=True)
    want = (dict(first), set(flags))
    first[(0, 0)] = 99.0
    first[(1, 0)] = -1.0
    flags.add((1, 0))
    assert structure_constants_lr((1, 0), (1, 0), params, return_flags=True) == want
    assert structure_constants_lr((1, 0), (1, 0), params) == want[0]


_OFF_CONE = ModelParams.locked(3, 2, 0.7, 0.3)


@pytest.mark.parametrize(
    "params, lam, mu",
    [
        (_OFF_CONE, (1, 0, 0), (3, 1, 0)),  # mu_1 > m
        (_OFF_CONE, (2, 1, 0), (2, 1, 1)),  # mu_n > 0
        (_OFF_CONE, (3, 1, 1), (1, 1, 0)),  # lam outside
        (ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=2), (2, 1, 0), (3, 2, 1)),
    ],
)
def test_lr_pair_outside_the_level_cone(params, lam, mu):
    """A factor outside the cone is underlined, one of span > m gives {}; free parameters raise."""
    coeffs.clear_coeff_caches()
    if not params.level_locked:
        with pytest.raises(ValueError, match="level-locked"):
            structure_constants_lr(lam, mu, params, return_flags=True)
        return
    got, flags = structure_constants_lr(lam, mu, params, return_flags=True)
    assert flags == set()
    want = {} if max(span(lam), span(mu)) > params.m else structure_constants_lr(underline(lam), underline(mu), params)
    assert got == want
    reduced = reduce_mod_ideal(lr_coefficients(lam, mu, params), params)
    assert set(got) <= set(reduced)
    assert all(abs(got.get(k, 0.0) - v) < 1e-9 for k, v in reduced.items())


@pytest.mark.parametrize("route", ["lr", "verlinde", "projection"])
def test_one_off_cone_rule_for_every_pair_function(route):
    pair_function = {
        "lr": structure_constants_lr,
        "verlinde": structure_constants_verlinde,
        "projection": structure_constants_projection,
    }[route]
    params = _OFF_CONE
    got = pair_function((3, 1, 1), (1, 1, 0), params)
    assert got == pair_function((2, 0, 0), (1, 1, 0), params)
    assert abs(got[(1, 0, 0)] - 1.5754) < 1e-4 and set(got) == {(1, 0, 0)}
    assert pair_function((2, 1, 0), (2, 1, 1), params) == pair_function((2, 1, 0), (1, 0, 0), params)
    assert pair_function((1, 0, 0), (3, 1, 0), params) == {}
    assert pair_function((4, 1, 1), (0, 0, 0), params) == {}
    for bad in [((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0, 0, 0))]:
        with pytest.raises(ValueError, match="does not match n=3"):
            pair_function(*bad, params)
    with pytest.raises(ValueError):
        pair_function((0, 1, 0), (1, 0, 0), params)


_PAIR_FUNCTIONS = [structure_constants_lr, structure_constants_verlinde, structure_constants_projection]


# Largest relative residuals measured over 300 random points of the hypothesis
# grid and the examples below: conjugation 1e-14, duality 3.4e-13.
_RING_SYMMETRY_TOL = 1e-11


def _conjugation(n, m):
    """Index map of lam -> lam* = (lam_1 - lam_n, lam_1 - lam_{n-1}, ..., 0) on the level cone."""
    labels = enumerate_level(n, m)
    index = {lam: i for i, lam in enumerate(labels)}
    return [index[tuple(lam[0] - lam[n - 1 - j] for j in range(n))] for lam in labels]


def _ring_symmetry_residuals(params, star=None, w=None):
    """Residuals of charge conjugation and duality on the ring-route table, each relative to its scale.

    Conjugation: N^{kappa*}_{lam* mu*} = N^kappa_{lam mu} (``_conjugation``).
    Duality: N^kappa_{lam mu} w_kappa = N^mu_{lam* kappa} w_mu with
    w = 1 / (c^2 Delta), multiplication by P_lam being adjoint to
    multiplication by P_{lam*} under the Delta orthogonality.  ``star``
    replaces the index map of lam -> lam*, and ``w`` the weights.
    """
    values = fusion._ring_table(params)  # [lam, mu, kappa] = N^kappa_{lam mu}
    if star is None:
        star = _conjugation(params.n, params.m)
    if w is None:
        w = 1.0 / (coeffs.level_c(params) ** 2 * delta_vector(params))
    conj = np.abs(values[np.ix_(star, star, star)] - values).max() / np.abs(values).max()
    lhs = values * w[None, None, :]
    rhs = values[star].transpose(0, 2, 1) * w[None, :, None]  # [lam, mu, kappa] = N^mu_{lam* kappa} w_mu
    return conj, np.abs(lhs - rhs).max() / np.abs(lhs).max()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 3), g=st.floats(0.3, 1.9), p=st.floats(-0.9, 0.9))
@example(n=4, m=5, g=0.45, p=-0.8)
@example(n=5, m=3, g=1.9, p=0.9)
@example(n=3, m=6, g=0.5, p=0.3)  # a resonance
def test_ring_table_is_conjugation_invariant_and_self_dual(n, m, g, p):
    """The ring route reads no S matrix and no charge conjugation, so both identities test it."""
    conj, dual = _ring_symmetry_residuals(ModelParams.locked(n, m, g, p))
    assert conj <= _RING_SYMMETRY_TOL and dual <= _RING_SYMMETRY_TOL


@pytest.mark.parametrize("wrong", ["identity", "swap", "weights"])
def test_a_wrong_conjugation_or_weight_breaks_the_ring_symmetries(wrong):
    """lam* = lam, the right map with two labels swapped, or w = 1/c fails at n=3 m=4."""
    params = ModelParams.locked(3, 4, 0.7, 0.3)
    star, w = _conjugation(3, 4), None
    if wrong == "identity":
        star = list(range(len(star)))
    elif wrong == "swap":
        star[1], star[2] = star[2], star[1]
    else:
        w = 1.0 / coeffs.level_c(params)
    assert max(_ring_symmetry_residuals(params, star, w)) > 0.1


def _spellings(label):
    """The ways a caller may spell a cone label: all of them stand for the label itself."""
    return [
        tuple(label),
        list(label),
        tuple(np.int64(x) for x in label),
        np.array(label),
        tuple({0: False, 1: True}.get(x, x) for x in label),
    ]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 3), g=st.floats(0.3, 1.9), p=st.floats(-0.9, 0.9))
@example(n=4, m=3, g=1.9, p=0.9)
def test_ring_route_simple_current_is_monomial(n, m, g, p):
    """N_J, the ring-route fusion matrix of J(0) = (m, 0, ..., 0), is monomial on the simple current
    J(lam) = (m, lam_1, ..., lam_{n-1}) - lam_{n-1}, and N_J^n = c I.

    The ring route reads no spectrum, so this is independent of the grading
    that the continuation reads from the conjugated D_1.
    """
    params = ModelParams.locked(n, m, g, p)
    table = fusion_table(params, route="lr")
    index = {lam: i for i, lam in enumerate(table.labels)}
    J = [index[tuple(x - lam[n - 2] for x in (m,) + lam[: n - 1])] for lam in table.labels]
    NJ = table.values[index[(m,) + (0,) * (n - 1)]]  # [mu, kappa] = N^kappa_{J(0), mu}
    on = NJ[np.arange(len(J)), J]
    off = NJ.copy()
    off[np.arange(len(J)), J] = 0.0
    assert np.all(on != 0.0) and np.abs(off).max() <= 1e-12 * np.abs(NJ).max()
    power = np.linalg.matrix_power(NJ, n)
    c = power[0, 0]
    assert c != 0.0 and np.abs(power - c * np.eye(len(J))).max() <= 1e-10 * abs(c)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), m=st.integers(1, 4), i=st.integers(0, 10**6), j=st.integers(0, 10**6))
@example(n=4, m=4, i=1, j=5)
def test_every_spelling_of_a_label_gives_the_same_pair(n, m, i, j):
    """Each pair function returns the same dict, keys in the same order, for every spelling of its factors."""
    params = ModelParams.locked(n, m, 0.7, 0.3)
    labels = enumerate_level(n, m)
    lam, mu = labels[i % len(labels)], labels[j % len(labels)]
    for pair_function in _PAIR_FUNCTIONS:
        want = list(pair_function(lam, mu, params).items())
        for a, b in zip(_spellings(lam), _spellings(mu)):
            assert list(pair_function(a, b, params).items()) == want
        assert list(pair_function(list(lam), mu, params).items()) == want
        assert list(pair_function(lam, np.array(mu), params).items()) == want


@pytest.mark.parametrize("pair_function", _PAIR_FUNCTIONS)
@pytest.mark.parametrize(
    "lam, mu, message",
    [
        ((1, 0), (1, 0, 0), "partition length 2 does not match n=3"),
        ((1, 0, 0), (1, 0, 0, 0), "partition length 4 does not match n=3"),
        ((0, 1, 0), (1, 0, 0), "parts must be non-increasing: (0, 1, 0)"),
        ((1, 0, 0), (2, 3, 0), "parts must be non-increasing: (2, 3, 0)"),
        ((1, -1, 0), (1, 0, 0), "negative part in (1, -1, 0)"),
        ((1, 0, 0), (0, 0, -2), "negative part in (0, 0, -2)"),
    ],
)
def test_malformed_factors_raise_the_validation_error(pair_function, lam, mu, message):
    """A malformed factor, in any spelling, raises the ValueError of ``check_partition`` or the length check."""
    for a, b in [(lam, mu), (list(lam), list(mu)), (np.array(lam), np.array(mu))]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pair_function(a, b, _OFF_CONE)


def test_lr_pair_outside_the_level_cone_at_a_resonance():
    """At a resonant coupling the off-cone rule is the same as at a generic one."""
    params = ModelParams.locked(2, 1, 1.0, 0.0)
    assert structure_constants_lr((1, 0), (2, 0), params) == {}
    assert structure_constants_lr((1, 0), (1, 1), params) == structure_constants_lr((1, 0), (0, 0), params)
    assert structure_constants_lr((2, 1), (1, 0), params) == structure_constants_lr((1, 0), (1, 0), params)


def test_free_parameters_that_differ_in_m_share_a_table_but_not_rows():
    """Free parameters share a bracket table across m, and the ring route raises for both before building any table."""
    small = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=2)
    large = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=3)
    coeffs.clear_coeff_caches()
    for params in (small, large):
        for lam, mu in [((2, 1, 0), (2, 0, 0)), ((2, 1, 0), (3, 0, 0)), ([2, 1, 1], (1, 1, 1))]:
            with pytest.raises(ValueError, match="level-locked"):
                structure_constants_lr(lam, mu, params)
        with pytest.raises(ValueError, match="level-locked"):
            fusion_table(params, route="lr")
    assert coeffs._TABLES == {}  # the level lock is checked before any table is built
    assert coeffs._table(small) is coeffs._table(large)
    assert coeffs._table(small).kept == {}
    coeffs.clear_coeff_caches()


def _count_ring_builders(monkeypatch):
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(coeffs, "level_psi", counting("level_psi", coeffs.level_psi))
    return calls


def test_lr_pairs_after_the_table_run_no_kernel(monkeypatch):
    """Once fusion_table(route="lr") has run, every pair call reads its table."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    coeffs.clear_coeff_caches()
    calls = _count_ring_builders(monkeypatch)
    table = fusion_table(params, route="lr")
    assert "level_psi" in calls
    calls.clear()
    for i, lam in enumerate(table.labels):
        for j, mu in enumerate(table.labels):
            assert structure_constants_lr(lam, mu, params, return_flags=True) == _lr_row_of(table, i, j)
    assert calls == []
    coeffs.clear_coeff_caches()


def test_lr_table_at_minus_p_is_the_table_at_plus_p(monkeypatch):
    coeffs.clear_coeff_caches()
    plus = fusion_table(ModelParams.locked(3, 4, 0.7, 0.3), route="lr")
    pair = structure_constants_lr((2, 1, 0), (3, 1, 0), ModelParams.locked(3, 4, 0.7, 0.3))
    calls = _count_ring_builders(monkeypatch)
    minus_params = ModelParams.locked(3, 4, 0.7, -0.3)
    assert structure_constants_lr((2, 1, 0), (3, 1, 0), minus_params) == pair
    minus = fusion_table(minus_params, route="lr")
    assert calls == []
    assert minus.values is plus.values and minus.params == minus_params
    coeffs.clear_coeff_caches()


def test_lr_route_runs_without_the_spectrum(monkeypatch):
    """The ring route reads no spectrum, runs no eigensolver and fills no polynomial table.

    So route agreement compares two computations.
    """
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    want = fusion_table(params, route="verlinde")
    coeffs.clear_coeff_caches()

    def refuse(*args, **kwargs):
        raise AssertionError("the ring route reached the spectral chain")

    monkeypatch.setattr(operators, "joint_spectrum", refuse)
    monkeypatch.setattr(fusion, "_spectrum_for", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert np.abs(fusion_table(params, route="lr").values - want.values).max() < 1e-7
    store = coeffs._table(params)
    assert store.polys == {}  # the Pieri recurrence builds no eigenpolynomial
    assert set(store.kept) == {("ring", 3, 3)}  # and keeps no spectrum
    coeffs.clear_coeff_caches()


def _lr_pair_mismatches(params):
    """Pairs, in any spelling, whose ring-route pair call is not ``_nonzero`` of its table row, item for item.

    Each pair of labels is also called with both factors one column of n
    boxes taller, as lists (off the cone, underlined back to the pair), and
    every label is paired with a factor of span m + 1, which gives {}.
    """
    n, m = params.n, params.m
    labels = level_cone(n, m).labels
    values = fusion._ring_table(params)
    wide = (m + 1,) + (0,) * (n - 1)
    bad = []
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            want = list(fusion._nonzero(labels, values[i, j]).items())
            tall = structure_constants_lr([x + 1 for x in lam], [x + 1 for x in mu], params)
            if list(structure_constants_lr(lam, mu, params).items()) != want or list(tall.items()) != want:
                bad.append((lam, mu))
        if structure_constants_lr(lam, wide, params) != {} or structure_constants_lr(wide, lam, params) != {}:
            bad.append((lam, wide))
    return bad


@pytest.mark.parametrize(
    "params",
    [
        ModelParams.locked(2, 2, 0.7, 0.3),
        ModelParams.locked(3, 3, 0.7, 0.3),
        ModelParams.locked(4, 5, 1.0, 0.3),  # resonant
        ModelParams.locked(3, 8, 0.7, 0.3),
    ],
)
def test_lr_pairs_read_the_kept_pair_index(params):
    """Every pair call is its table row, key order included, read from an index of exact size."""
    coeffs.clear_coeff_caches()
    assert _lr_pair_mismatches(params) == []
    labels = level_cone(params.n, params.m).labels
    values = fusion._ring_table(params)
    ptr, kappas, vals = coeffs._table(params).kept[("pairs", params.n, params.m)]
    nnz = int(np.count_nonzero(values))
    assert len(ptr) == len(labels) ** 2 + 1 and ptr.itemsize == 8 and len(kappas) == len(vals) == nnz
    assert sys.getsizeof(ptr) - sys.getsizeof(array("q")) == 8 * len(ptr)
    assert sys.getsizeof(vals) - sys.getsizeof(array("d")) == 8 * nnz
    assert sys.getsizeof(kappas) - sys.getsizeof([]) == 8 * nnz
    assert {id(k) for k in kappas} <= {id(k) for k in labels}  # shared label tuples
    got = structure_constants_lr(labels[-1], labels[-1], params)
    want = dict(got)
    got.clear()
    got[labels[0]] = 99.0
    assert structure_constants_lr(labels[-1], labels[-1], params) == want
    coeffs.clear_coeff_caches()


def test_entries_keep_what_nonzero_keeps_in_its_order():
    """Negative values, -0.0 and subnormals of any table: ``entries`` keeps what ``_nonzero`` keeps, in its order."""
    labels = level_cone(3, 2).labels
    N = len(labels)
    values = np.random.default_rng(3).choice([0.0, -0.0, -1.5, 2.0, 5e-324], size=(N, N, N))
    table = fusion.FusionTable(params=ModelParams.locked(3, 2, 0.7, 0.3), labels=labels, values=values, route="lr")
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            assert list(table.entries[(lam, mu)].items()) == list(fusion._nonzero(labels, values[i, j]).items())


def test_a_shifted_pair_index_fails_the_row_check():
    """Mutation: offsets shifted by one make every pair call read a neighbour's entries."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    coeffs.clear_coeff_caches()
    assert _lr_pair_mismatches(params) == []
    store = coeffs._table(params)
    ptr, kappas, vals = store.kept[("pairs", 3, 3)]
    store.kept[("pairs", 3, 3)] = (array("q", [0, *(x + 1 for x in ptr[1:-1]), ptr[-1]]), kappas, vals)
    assert len(_lr_pair_mismatches(params)) > len(level_cone(3, 3).labels)
    coeffs.clear_coeff_caches()


def test_lr_table_and_row_writer_build_no_pair_index(tmp_path):
    """Only a pair call keeps the pair index; the table, its rows and the CLI writer read the ring table alone."""
    from ellfusion.cli import main

    params = ModelParams.locked(3, 3, 0.7, 0.3)
    coeffs.clear_coeff_caches()
    fusion_table(params, route="lr")
    labels, rows = fusion._rows(params, "lr")
    assert len(list(rows)) == len(labels)
    assert main(["fusion", "--route", "lr", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3",
                 "--out", str(tmp_path / "table.json")]) == 0
    store = coeffs._table(params)
    assert set(store.kept) == {("ring", 3, 3)}
    structure_constants_lr(labels[1], labels[2], params)
    assert set(store.kept) == {("ring", 3, 3), ("pairs", 3, 3)}
    coeffs.clear_coeff_caches()


def test_pair_index_is_dropped_with_its_bracket_table(monkeypatch):
    """clear_coeff_caches and the LRU bound drop the pair index with the ring table."""
    params, other = ModelParams.locked(3, 3, 0.7, 0.3), ModelParams.locked(3, 3, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    structure_constants_lr((1, 0, 0), (1, 0, 0), params)
    store = coeffs._table(params)
    assert ("pairs", 3, 3) in store.kept
    coeffs.clear_coeff_caches()
    assert coeffs._TABLES == {} and coeffs._table(params).kept == {}
    structure_constants_lr((1, 0, 0), (1, 0, 0), params)
    store = coeffs._table(params)
    monkeypatch.setattr(coeffs, "TABLE_LIMIT", 1)
    coeffs._table(other)  # evicts the table of params
    assert list(coeffs._TABLES.values()) == [coeffs._table(other)]
    assert coeffs._table(params) is not store and coeffs._table(params).kept == {}
    coeffs.clear_coeff_caches()


def _covariance_residual(values, J, c):
    """Simple-current covariance N^{J kappa}_{J lam, mu} = r N^kappa_{lam, mu} of a table, relative to max |N|.

    r = c_lam c_{J kappa} / (c_{J lam} c_kappa).  Both sides are divided by
    sqrt|r|, so that a large ratio scales them alike.
    """
    r = np.outer(c / c[J], c[J] / c)[:, None, :]  # [lam, ., kappa]
    root = np.sqrt(np.abs(r))
    return float(np.abs(values[J][:, :, J] / root - np.sign(r) * root * values).max() / np.abs(values).max())


# Measured at these five points, relative to max |N|: 1.5e-15 - 3.9e-12 on the
# pair calls of the ring route (the largest at n=4 m=8, growing with the depth of
# the Pieri recurrence), 2.1e-15 - 2.5e-14 on the Verlinde table and 2.1e-15 -
# 4.9e-12 on the projection table (the largest at n=4 m=8).
_COVARIANCE_TOL = {"lr": 2e-11, "verlinde": 2e-13, "projection": 5e-11}


@pytest.mark.parametrize(
    "n, m, g, p", [(3, 4, 0.7, 0.3), (4, 4, 1.3, 0.6), (4, 6, 0.7, 0.3), (3, 6, 0.5, 0.3), (4, 8, 0.7, 0.3)]
)
def test_simple_current_covariance(n, m, g, p):
    """N^{J kappa}_{J lam, mu} = (c_lam c_{J kappa}) / (c_{J lam} c_kappa) N^kappa_{lam, mu} on the pair calls
    of the ring route and on the Verlinde and projection tables; J is the cone's simple current and c comes
    from ``coeffs``."""
    params = ModelParams.locked(n, m, g, p)
    cone = level_cone(n, m)
    labels, J, N = cone.labels, cone.J, len(cone.labels)
    c = coeffs.level_c(params)
    pairs = np.zeros((N, N, N))
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            got = structure_constants_lr(lam, mu, params)
            pairs[i, j, [cone.index[k] for k in got]] = list(got.values())
    assert _covariance_residual(pairs, J, c) < _COVARIANCE_TOL["lr"]
    swapped = J.copy()
    swapped[[0, 1]] = J[[1, 0]]
    for route in ("verlinde", "projection"):
        values = fusion_table(params, route=route).values
        assert _covariance_residual(values, J, c) < _COVARIANCE_TOL[route]
        assert _covariance_residual(values, swapped, c) > 1e-3  # mutation: J composed with a transposition
    coeffs.clear_coeff_caches()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(1, 3), g=st.floats(0.3, 1.9), p=st.floats(-0.6, 0.6))
@example(n=4, m=4, g=0.7, p=0.3)
@example(n=5, m=3, g=0.7, p=0.3)
def test_lr_table_matches_verlinde(n, m, g, p):
    """The Pieri table is the Verlinde table, resonant couplings included."""
    params = ModelParams.locked(n, m, g, p)
    table = fusion_table(params, route="lr")
    assert np.abs(table.values - fusion_table(params, route="verlinde").values).max() < 1e-7


def test_projection_route_matches_spectral_sum():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    sm = s_matrix(params)
    for lam in sm.labels:
        for mu in sm.labels:
            a = structure_constants_verlinde(lam, mu, params, spectrum=sm.spectrum)
            b = structure_constants_projection(lam, mu, params, spectrum=sm.spectrum)
            for k in set(a) | set(b):
                assert abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-8


def test_fusion_table_symmetry_and_support():
    params = ModelParams.locked(3, 2, 0.8, 0.3)
    table = fusion_table(params, route="verlinde")
    for lam in table.labels:
        for mu in table.labels:
            a = table.entries[(lam, mu)]
            b = table.entries[(mu, lam)]
            for k in set(a) | set(b):
                assert abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-9
            assert all(kappa in table.labels for kappa in a)


def _brute_support(lam, mu, m):
    """underline(nu) over nu of weight |lam| + |mu| containing lam and mu, span(nu) <= m."""
    return {
        underline(nu)
        for nu in partitions_of_weight(len(lam), weight(lam) + weight(mu))
        if contains(lam, nu) and contains(mu, nu) and span(nu) <= m
    }


def test_support_mask_matches_brute_force():
    for n in (2, 3, 4):
        for m in range(1, 5):
            labels = enumerate_level(n, m)
            keys = np.array(labels)
            for i, lam in enumerate(labels):
                mask = fusion._support_row(keys, keys.sum(axis=1), i)
                for j, mu in enumerate(labels):
                    got = {labels[k] for k in np.flatnonzero(mask[j])}
                    assert got == _brute_support(lam, mu, m), (n, m, lam, mu)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 5), row=st.integers(0, 10**6))
@example(n=5, m=3, row=17)
def test_support_mask_property(n, m, row):
    """A random row of the mask, on the label array the table routes build, against brute force."""
    cone = level_cone(n, m)
    labels, keys, w = cone.labels, cone.keys, cone.weights
    i = row % len(labels)
    mask = fusion._support_row(keys, w, i)
    for j, mu in enumerate(labels):
        got = {labels[k] for k in np.flatnonzero(mask[j])}
        assert got == _brute_support(labels[i], mu, m), (n, m, labels[i], mu)


def _assert_pair_is_the_row(got, labels, row):
    """A spectral pair call against its table row: the same support, values within 1e-12 * max(1, max|row|)."""
    assert list(got) == [labels[k] for k in np.flatnonzero(row)]
    bound = 1e-12 * max(1.0, float(np.abs(row).max()))
    assert max((abs(v - row[labels.index(k)]) for k, v in got.items()), default=0.0) <= bound


def test_support_mask_slice_is_rows_of_the_mask():
    cone = level_cone(4, 4)
    labels, keys, w = cone.labels, cone.keys, cone.weights
    for i in (0, 7, len(labels) - 1):
        mask = fusion._support_row(keys, w, i)
        for j in (0, 11, len(labels) - 1):
            assert np.array_equal(fusion._support_row(keys, w, i, slice(j, j + 1)), mask[j : j + 1])


def test_table_rows_and_pairs_agree():
    """Entries are the table rows bit for bit; spectral pair calls, which compute one vector, are them to rounding."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    sm = s_matrix(params)
    table = fusion_table(params, spectrum=sm.spectrum)
    projection = fusion_table(params, route="projection", spectrum=sm.spectrum)
    assert np.abs(table.values - projection.values).max() < 1e-8
    labels = table.labels
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            want = {k: v for k, v in zip(labels, table.values[i, j].tolist()) if v}
            assert table.entries[(lam, mu)] == want
            got = structure_constants_verlinde(lam, mu, params, spectrum=sm.spectrum)
            _assert_pair_is_the_row(got, labels, table.values[i, j])
            got = structure_constants_projection(lam, mu, params, spectrum=sm.spectrum)
            _assert_pair_is_the_row(got, labels, projection.values[i, j])


@pytest.mark.parametrize("n, m", [(4, 4), (5, 3)])
def test_spectral_pair_calls_are_the_table_rows(n, m):
    """The one-vector pair calls against the Verlinde and projection tables, on a seeded sample of pairs."""
    params = ModelParams.locked(n, m, 0.7, 0.3)
    sm = s_matrix(params)
    tables = {
        structure_constants_verlinde: fusion_table(params, spectrum=sm.spectrum),
        structure_constants_projection: fusion_table(params, route="projection", spectrum=sm.spectrum),
    }
    labels = sm.labels
    rng = np.random.default_rng(5)
    for i, j in [(0, 0), (len(labels) - 1, len(labels) - 1), *rng.integers(len(labels), size=(40, 2)).tolist()]:
        for pair_function, table in tables.items():
            got = pair_function(labels[i], labels[j], params, spectrum=sm.spectrum)
            _assert_pair_is_the_row(got, labels, table.values[i, j])


@pytest.mark.parametrize("bad", [1e-3, math.nan])
def test_spectral_pair_errors_name_the_pair(bad, monkeypatch):
    """A pair finished as a one-row block names its own (lam, mu) in a check error."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    sm = s_matrix(params)
    Sinv = sm.Sinv.copy()
    Sinv[2, 3] += bad
    monkeypatch.setattr(fusion, "s_matrix", lambda *args, **kwargs: dataclasses.replace(sm, Sinv=Sinv))
    labels = sm.labels
    raised = set()
    for lam in labels:
        for j, mu in enumerate(labels):
            try:
                structure_constants_verlinde(lam, mu, params)
            except ComputationError as exc:
                assert str(exc).endswith(f" in {lam} x {mu} (verlinde)"), (lam, mu, str(exc))
                raised.add(j)
    assert max(raised) > 0


def test_fusion_table_is_read_only():
    table = fusion_table(ModelParams.locked(2, 1, 0.7, 0.3))
    with pytest.raises(ValueError):
        table.values[0, 0, 0] = 2.0
    with pytest.raises(TypeError):
        table.entries[((0, 0), (0, 0))] = {}


def test_perturbed_inverse_is_caught_by_the_support(monkeypatch):
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    sm = s_matrix(params)
    Sinv = sm.Sinv.copy()
    Sinv[2, 3] += 1e-3
    monkeypatch.setattr(fusion, "s_matrix", lambda *args, **kwargs: dataclasses.replace(sm, Sinv=Sinv))
    label = r"\(\d, \d, \d\)"
    message = rf"^fusion .+: {label} -> .+ in {label} x {label} \(verlinde\)$"
    with pytest.raises(ComputationError, match=message):
        fusion_table(params)


@pytest.mark.parametrize("route", ["verlinde", "projection"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
@pytest.mark.parametrize("on_support", [True, False])
def test_non_finite_raw_value_raises(route, bad, on_support):
    """A NaN or infinity in a raw row is an error naming the pair and route, never a 0.0."""
    params = ModelParams.locked(2, 2, 0.7, 0.3)
    sm = s_matrix(params)
    rows = fusion._raw_rows(params, route, sm.spectrum)
    labels, i = sm.labels, 1
    keys = np.array(labels)
    mask = fusion._support_row(keys, keys.sum(axis=1), i)
    j, k = np.argwhere(mask if on_support else ~mask)[0]
    raw = rows(i).copy()
    fusion._fusion_row(raw, labels, i, route, mask)  # finite: no error
    raw[j, k] = bad
    kappa, lam, mu = (re.escape(str(labels[x])) for x in (k, i, j))
    message = rf"^fusion non-finite value: {kappa} -> .+ in {lam} x {mu} \({route}\)$"
    with pytest.raises(ComputationError, match=message):
        fusion._fusion_row(raw, labels, i, route, mask)


def test_fusion_row_names_the_first_bad_value():
    """Each check of a raw row: an imaginary residue on the support, a value off it, the first of
    several in row order, and an imaginary part above the tolerance that its real part allows."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    sm = s_matrix(params)
    labels, i = sm.labels, 2
    mask = fusion._support_row(level_cone(3, 2).keys, level_cone(3, 2).weights, i)
    raw = fusion._raw_rows(params, "verlinde")(i)
    clean = fusion._fusion_row(raw, labels, i, "verlinde", mask)
    on, off = (tuple(map(int, np.argwhere(m)[-1])) for m in (mask, ~mask))

    def error(changes):
        bad = raw.copy()
        for (j, k), z in changes.items():
            bad[j, k] = z
        with pytest.raises(ComputationError) as info:
            fusion._fusion_row(bad, labels, i, "verlinde", mask)
        return str(info.value)

    assert error({on: raw[on] + 1e-6j}).startswith(f"fusion imaginary residue: {labels[on[1]]} -> ")
    assert error({off: 1e-6}).startswith(f"fusion coefficient outside the support: {labels[off[1]]} -> ")
    first = min(on, off)
    what = "imaginary residue" if mask[first] else "coefficient outside the support"
    assert error({on: raw[on] + 1e-6j, off: 1e-6}).startswith(f"fusion {what}: {labels[first[1]]} -> ")
    large = raw.copy()
    large[on] = 1e9 + 1e-2j  # |imag| > FUSION_IMAG_TOL, yet below FUSION_IMAG_TOL * |real|
    row = fusion._fusion_row(large, labels, i, "verlinde", mask)
    assert row[on] == 1e9 and row.tobytes() != clean.tobytes()


def test_fusion_table_associativity():
    params = ModelParams.locked(2, 2, 0.8, 0.3)
    table = fusion_table(params, route="verlinde")
    labels = table.labels

    def N(lam, mu, kappa):
        return table.entries[(lam, mu)].get(kappa, 0.0)

    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    left = sum(N(a, b, k) * N(k, c, d) for k in labels)
                    right = sum(N(b, c, k) * N(a, k, d) for k in labels)
                    assert abs(left - right) < 1e-8


def test_lr_route_pairs_near_the_support_cut_at_level_8():
    # These products carry large cancelling coefficients; residuals a basis
    # expansion leaves unpropagated surface as support violations.
    params = ModelParams.locked(3, 8, 0.7, 0.3)
    sm = s_matrix(params)
    pairs = [
        ((8, 1, 0), (7, 3, 0)),
        ((7, 3, 0), (8, 1, 0)),
        ((8, 1, 0), (8, 3, 0)),
        ((8, 3, 0), (8, 1, 0)),
        ((8, 2, 0), (8, 2, 0)),
    ]
    for lam, mu in pairs:
        got, flags = structure_constants_lr(lam, mu, params, return_flags=True)
        assert flags == set()
        want = structure_constants_verlinde(lam, mu, params, spectrum=sm.spectrum)
        for k in set(got) | set(want):
            assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-7, (lam, mu, k)


def test_smatrix_first_row_and_identity():
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    sm = s_matrix(params)
    for j, nu in enumerate(sm.labels):
        want = 1.0 / coeffs.c_norm(nu, params)
        assert abs(sm.S[0, j] - want) < 1e-12 * abs(want)
    assert sm.identity_residual() < 1e-8
    assert sm.det_residual() < 1e-6


def test_smatrix_det_residual_finite_at_large_nome():
    # det S and its closed form both overflow binary64 here; the residual
    # is compared in log space.
    sm = s_matrix(ModelParams.locked(4, 4, 0.7, 0.9))
    res = sm.det_residual()
    assert math.isfinite(res) and res < 1e-6


def test_smatrix_even_in_the_nome():
    plus = s_matrix(ModelParams.locked(3, 3, 0.7, 0.6))
    minus = s_matrix(ModelParams.locked(3, 3, 0.7, -0.6))
    assert np.array_equal(plus.S, minus.S)
    assert np.array_equal(plus.Sinv, minus.Sinv)


def test_smatrix_classical_point_matches_sine_oracle():
    for n, m in [(2, 1), (3, 2)]:
        params = ModelParams.locked(n, m, 1.0, 0.0)
        sm = s_matrix(params)
        labels, KP = kac_peterson_smatrix(n, m)
        assert list(labels) == list(sm.labels)
        assert np.abs(sm.S - KP).max() < 1e-8


def _evaluation_asymmetry(S):
    """max |X - X^T| / max |X| for X[lam, nu] = S[lam, nu] S[0, 0] / (S[lam, 0] S[0, nu])."""
    X = S * S[0, 0] / np.outer(S[:, 0], S[0])
    return float(np.abs(X - X.T).max() / np.abs(X).max())


@pytest.mark.parametrize(
    "n, m, g",
    [(2, 3, 0.7), (3, 3, 0.7), (3, 4, 1.3), (4, 3, 0.45), (3, 5, 0.7),
     (4, 4, 0.7), (4, 6, 0.7), (5, 3, 0.7), (2, 6, 1.9), (3, 3, 0.25)],
)
def test_smatrix_evaluation_symmetry_at_p0(n, m, g):
    """P_lam(q^(nu+g rho)) / P_lam(q^(g rho)) is symmetric in (lam, nu) at p = 0 (Macdonald, ch. VI (6.6)).

    Measured 1.1e-15 - 1.3e-13 over these points; S with columns 1 and 2 swapped reads 1.7 - 2.0.
    """
    S = s_matrix(ModelParams.locked(n, m, g, 0.0)).S
    assert _evaluation_asymmetry(S) < 1e-11
    swapped = S.copy()
    swapped[:, [1, 2]] = S[:, [2, 1]]
    assert _evaluation_asymmetry(swapped) > 1.0


def test_smatrix_gauge_factor_at_unit_coupling():
    # away from the trigonometric point the matrix differs per column by the
    # ratio of normalization coefficients only
    base = ModelParams.locked(3, 2, 1.0, 0.0)
    ell = ModelParams.locked(3, 2, 1.0, 0.45)
    sm0, smp = s_matrix(base), s_matrix(ell)
    ratio = np.array(
        [
            coeffs.c_norm(nu, base) / coeffs.c_norm(nu, ell)
            for nu in sm0.labels
        ]
    )
    assert np.abs(smp.S - sm0.S * ratio[None, :]).max() < 1e-10


def test_normalization_closed_form_at_classical_point():
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        params = ModelParams.locked(n, m, 1.0, 0.0)
        sm = s_matrix(params)
        alpha = 2.0 * math.pi / (m + n)
        denom = 1.0
        for j in range(n):
            for k in range(j + 1, n):
                denom *= trig_bracket(k - j, alpha) ** 2
        closed = (
            (2.0 * math.sin(math.pi / (m + n))) ** (-n * (n - 1))
            * n
            * (n + m) ** (n - 1)
            / denom
        )
        assert abs(sm.normalization - closed) < 1e-8 * closed


def test_refined_pieri_at_trigonometric_point():
    params = ModelParams.locked(3, 2, 0.85, 0.0)
    for lam in enumerate_level(3, 2):
        for r in (1, 2):
            got = fusion_pieri(lam, r, params)
            want = {}
            for nu in vertical_strips(lam, r):
                if span(nu) <= 2:
                    want[underline(nu)] = macdonald_pieri_p0(lam, nu, params.alpha, params.g)
            assert set(got) == set(want)
            for k in want:
                assert abs(got[k] - want[k]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    g=st.floats(0.3, 1.9),
    p=st.floats(-0.9, 0.9),
)
def test_eigenvector_data_match_polynomial_values(n, m, g, p):
    """S and the dual norms read off the eigenvectors agree with evaluate_batch.

    The dual norm is compared within 1e-10 relative, times the condition
    number kappa >= 1 of the evaluated sum: c_lam P_lam(e_nu) can be a small
    difference of large terms (kappa reaches 2e5 at n=4 m=2 g=1.9 p=0.9,
    where the eigenvectors match extended-precision ones to 4e-15).  A point
    whose continuation fails has no eigenvectors to compare; the known one is
    pinned in test_operators.py.
    """
    params = ModelParams.locked(n, m, g, p)
    try:
        spec = joint_spectrum(params)
    except TrackingAmbiguity:
        reject()
    cvec = np.array([coeffs.c_norm(lam, params) for lam in spec.labels])
    S = s_matrix(params, spectrum=spec).S
    assert np.abs(S - projection_arrays(params, spec)[0] / cvec[None, :]).max() <= 1e-10 * np.abs(S).max()
    dvec = delta_vector(params)[:, None]
    values, scales = evaluate_batch([build_P(lam, params) for lam in spec.labels], spec.e)
    f, bound = cvec[:, None] * values, cvec[:, None] * scales  # [lam, nu]
    total = np.sum(np.abs(f) ** 2 * dvec, axis=0)
    kappa = np.sum(np.abs(f) * bound * dvec, axis=0) / total
    assert np.all(np.abs(spec.dual_norms - 1.0 / total) <= 1e-10 * kappa / total)


def test_verlinde_route_evaluates_no_polynomial(monkeypatch):
    calls = []

    def counted(polys, points):
        calls.append(polys)
        return evaluate_batch(polys, points)

    # evaluate_batch, the one evaluation path (evaluate calls it too), is
    # patched wherever the spectrum or the Verlinde route could call it
    for module in (operators, fusion, polynomials):
        monkeypatch.setattr(module, "evaluate_batch", counted, raising=False)
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    spec = joint_spectrum(params)
    sm = s_matrix(params, spectrum=spec)
    table = fusion_table(params, route="verlinde", spectrum=spec)
    assert calls == []
    assert sm.identity_residual() < 1e-8 and table.values.shape == (10, 10, 10)


def test_spectrum_arrays_are_read_only():
    spec = joint_spectrum(ModelParams.locked(2, 2, 0.7, 0.3))
    N = len(spec.labels)
    assert spec.e.shape == (N, 2) and spec.vectors.shape == (N, N) and spec.dual_norms.shape == (N,)
    assert np.all(spec.vectors[0] == 1.0)
    for arr in (spec.e, spec.vectors, spec.dual_norms, spec.e_matrix()):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_smatrix_data_compares_by_identity_and_hashes():
    """Two S-matrices are equal only if they are one object, and hashing works, whether S is kept or not."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    a, b = s_matrix(params), s_matrix(params)
    assert a.S is b.S  # the kept arrays
    assert a == a and not a == b and a != b
    assert isinstance(hash(a), int) and hash(a) != hash(b)


def _fresh(spec):
    """The spectrum with copies of its arrays: no kept transform serves it."""
    return dataclasses.replace(spec, e=spec.e.copy(), vectors=spec.vectors.copy())


def test_smatrix_at_p_and_minus_p_share_the_kept_read_only_arrays():
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    plus, minus = s_matrix(params), s_matrix(params.with_p(-0.4))
    assert minus.params.p == -0.4 and minus.spectrum is plus.spectrum  # one spectrum, at |p|
    assert minus.S is plus.S and minus.Sinv is plus.Sinv and minus.normalization == plus.normalization
    for arr in (plus.S, plus.Sinv):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    kept = coeffs._table(params).kept
    assert [key for key in kept if key[0] == "spectrum"] == [("spectrum", 3, 3, 0)]
    assert kept[("spectrum", 3, 3, 0)] is plus.spectrum and plus.spectrum._derived["s_matrix"][0] is plus.S


def test_kept_transform_is_rebuilt_with_identical_bits():
    """After clear_coeff_caches, and after its table is evicted, S and Sinv are rebuilt bit for bit."""
    params = ModelParams.locked(3, 2, 0.7, 0.4)
    coeffs.clear_coeff_caches()
    first = s_matrix(params)
    coeffs.clear_coeff_caches()
    cleared = s_matrix(params)
    for k in range(coeffs.TABLE_LIMIT):  # unfilled tables at other |p| push it out
        coeffs._table(params.with_p(0.5 + k / 1000))
    assert (params.alpha, params.g, 0.4) not in coeffs._TABLES
    evicted = s_matrix(params)
    for again in (cleared, evicted):
        assert again.S is not first.S
        assert again.S.tobytes() == first.S.tobytes() and again.Sinv.tobytes() == first.Sinv.tobytes()
    coeffs.clear_coeff_caches()


def test_a_spectrum_that_is_not_the_kept_one_gets_its_own_s():
    """Only the kept spectrum (by the identity of its vectors) reads the kept S; nothing else is stored."""
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    spec = joint_spectrum(params)
    kept = s_matrix(params, spectrum=spec)
    other = dataclasses.replace(spec, vectors=spec.vectors * 2.0)
    own = s_matrix(params, spectrum=other)
    assert own.S is not kept.S
    assert np.array_equal(own.S, 2.0 * kept.S)
    assert s_matrix(params).S is kept.S  # the store still holds the kept spectrum's S


def test_warm_pair_calls_rebuild_no_transform(monkeypatch):
    """Warm Verlinde and projection pair calls read the kept S and V: no norm_vectors, no evaluate_batch."""
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    lam, mu = (1, 0, 0), (1, 1, 0)
    want = structure_constants_verlinde(lam, mu, params), structure_constants_projection(lam, mu, params)
    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for module in (operators, fusion, polynomials):
        for name in ("norm_vectors", "evaluate_batch"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for p in (0.4, -0.4):
        got = structure_constants_verlinde(lam, mu, params.with_p(p)), structure_constants_projection(lam, mu, params.with_p(p))
        assert got == want
    assert calls == []


@pytest.mark.parametrize("n,m,g", [(2, 3, 0.7), (3, 3, 0.45), (4, 2, 1.3)])
@pytest.mark.parametrize("p", [0.0, 0.3, -0.6, 0.9])
def test_kept_transform_has_the_bits_of_a_fresh_one(n, m, g, p):
    """S, Sinv, V and both spectral tables read from the kept transform equal a fresh computation bit for bit."""
    params = ModelParams.locked(n, m, g, p)
    spec = joint_spectrum(params)
    fresh = _fresh(spec)
    kept, own = s_matrix(params, spectrum=spec), s_matrix(params, spectrum=fresh)
    assert kept.S is not own.S
    assert kept.S.tobytes() == own.S.tobytes() and kept.Sinv.tobytes() == own.Sinv.tobytes()
    assert kept.normalization == own.normalization
    assert projection_arrays(params, spec)[0].tobytes() == projection_arrays(params, fresh)[0].tobytes()
    for route in ("verlinde", "projection"):
        kept_bits, fresh_bits = (fusion_table(params, route, spectrum=s).values.tobytes() for s in (spec, fresh))
        assert kept_bits == fresh_bits


def test_a_spectrum_with_other_dual_norms_gets_its_own_sinv():
    """A copy that shares the kept spectrum's vectors but not its dual norms builds its own Sinv."""
    params = ModelParams.locked(3, 3, 0.7, 0.4)
    spec = joint_spectrum(params)
    kept = s_matrix(params, spectrum=spec)
    doubled = dataclasses.replace(spec, dual_norms=2 * spec.dual_norms)
    own, fresh = s_matrix(params, spectrum=doubled), s_matrix(params, spectrum=_fresh(doubled))
    assert own.S.tobytes() == kept.S.tobytes()
    assert own.Sinv.tobytes() == fresh.Sinv.tobytes() == (2 * kept.Sinv).tobytes()


# Every entry point that takes a spectrum, called at params with that spectrum.
_SPECTRUM_CALLS = {
    "s_matrix": lambda params, spec: s_matrix(params, spectrum=spec),
    "verlinde_pair": lambda params, spec: structure_constants_verlinde((1, 0, 0), (1, 1, 0), params, spectrum=spec),
    "projection_pair": lambda params, spec: structure_constants_projection((1, 0, 0), (1, 1, 0), params, spectrum=spec),
    "fusion_table": lambda params, spec: fusion_table(params, spectrum=spec),
    "projection_table": lambda params, spec: fusion_table(params, route="projection", spectrum=spec),
    "lr_table": lambda params, spec: fusion_table(params, route="lr", spectrum=spec),
    "dual_orthogonality_check": lambda params, spec: operators.dual_orthogonality_check(params, spectrum=spec),
    "projection_arrays": projection_arrays,
}


def _bits(result):
    """The bytes of what an entry point of ``_SPECTRUM_CALLS`` returns."""
    if isinstance(result, fusion.SMatrixData):
        return result.S.tobytes(), result.Sinv.tobytes(), result.normalization
    if isinstance(result, fusion.FusionTable):
        return result.values.tobytes()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    return result


@pytest.mark.parametrize("entry", sorted(_SPECTRUM_CALLS))
def test_a_spectrum_at_other_parameters_raises(entry):
    """Another |p|, m or g raises ValueError instead of mixing c and Delta of params with that spectrum."""
    params = ModelParams.locked(3, 3, 0.7, 0.2)
    others = [ModelParams.locked(3, 2, 0.7, 0.2), ModelParams.locked(3, 3, 0.45, 0.2)]
    for other in [params.with_p(0.4), params.with_p(-0.4), *others]:
        with pytest.raises(ValueError, match="up to the sign of p$"):
            _SPECTRUM_CALLS[entry](params, joint_spectrum(other))


@pytest.mark.parametrize("entry", sorted(_SPECTRUM_CALLS))
def test_the_minus_p_spectrum_is_accepted(entry):
    """The spectrum at -p gives what the spectrum at p gives, bit for bit."""
    params = ModelParams.locked(3, 3, 0.7, 0.2)
    call = _SPECTRUM_CALLS[entry]
    assert _bits(call(params, joint_spectrum(params.with_p(-0.2)))) == _bits(call(params, joint_spectrum(params)))


def test_ring_route_checks_a_spectrum_but_builds_none(monkeypatch):
    """The ring route accepts the kept spectrum and reads the kept ring table; without a spectrum it builds none."""
    params = ModelParams.locked(3, 3, 0.7, 0.2)
    coeffs.clear_coeff_caches()
    kept = fusion_table(params, route="lr", spectrum=joint_spectrum(params)).values
    assert kept is fusion._ring_table(params)
    coeffs.clear_coeff_caches()

    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(operators, "joint_spectrum", refuse)
    assert fusion_table(params, route="lr").values.tobytes() == kept.tobytes()
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("route", ["both", "ring", "Verlinde", ""])
def test_an_unknown_route_raises_before_any_spectrum_or_table(route, monkeypatch):
    params = ModelParams.locked(3, 3, 0.7, 0.2)
    spec = joint_spectrum(params)

    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum or a table was built")

    for module, name in [(operators, "joint_spectrum"), (fusion, "s_matrix"), (fusion, "_spectrum_for"),
                         (fusion, "_ring_table"), (fusion, "projection_arrays")]:
        monkeypatch.setattr(module, name, refuse)
    for spectrum in (None, spec):
        with pytest.raises(ValueError, match=f"^unknown route {re.escape(repr(route))}$"):
            fusion_table(params, route=route, spectrum=spectrum)
        with pytest.raises(ValueError, match="^unknown route"):
            fusion._rows(params, route, spectrum)


def test_smatrix_command_factors_s_once(monkeypatch, tmp_path):
    """The smatrix payload reads three determinant values: one slogdet and one closed form per call."""
    from ellfusion import cli

    argv = ["smatrix", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.9", "--out", str(tmp_path / "s.json")]
    s_matrix(ModelParams.locked(3, 3, 0.7, 0.9))  # S kept: the call below builds no transform
    calls = []
    slogdet, norms = np.linalg.slogdet, fusion.norm_vectors
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append("slogdet") or slogdet(a))
    monkeypatch.setattr(fusion, "norm_vectors", lambda *a: calls.append("norm_vectors") or norms(*a))
    assert cli.main(argv) == 0
    assert sorted(calls) == ["norm_vectors", "slogdet"]
