import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from ellfusion import coeffs, fusion, operators, polynomials
from ellfusion.errors import ComputationError, TrackingAmbiguity
from ellfusion.kernel import ModelParams, realify, trig_bracket
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
from ellfusion.operators import delta_vector, joint_spectrum, value_table
from ellfusion.oracles import kac_peterson_smatrix, macdonald_pieri_p0
from ellfusion.partitions import (
    contains,
    enumerate_level,
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


def test_fusion_pieri_drops_boundary_strips():
    params = ModelParams.locked(2, 1, 0.8, 0.3)
    got = fusion_pieri((1, 0), 1, params)
    # the (2,0) strip leaves the level cone; only (1,1) -> (0,0) survives
    want = realify(coeffs.psi_prime((1, 0), (1, 1), params))
    assert set(got) == {(0, 0)}
    assert abs(got[(0, 0)] - want) < 1e-14


def test_fusion_pieri_rejects_a_partition_of_another_length():
    with pytest.raises(ValueError, match="does not match n=3"):
        fusion_pieri((1, 0), 1, ModelParams.locked(3, 2, 0.7, 0.3))


def test_two_site_fusion_at_general_coupling():
    for g in (0.7, 1.3):
        params = ModelParams.locked(2, 1, g, 0.3)
        got = structure_constants_verlinde((1, 0), (1, 0), params)
        want = realify(coeffs.psi_prime((1, 0), (1, 1), params))
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
            assert t_lr.max_difference(t_v) < 1e-7


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
        assert fusion_table(params, route="lr").max_difference(t_v) < 1e-7
        for i, lam in enumerate(t_v.labels):
            for j, mu in enumerate(t_v.labels):
                got, flags = structure_constants_lr(lam, mu, params, return_flags=True)
                want = t_v.values[i, j]
                assert not flags
                assert all(abs(got.get(k, 0.0) - w) < 1e-7 for k, w in zip(t_v.labels, want.tolist()))
                assert set(got) <= {k for k, w in zip(t_v.labels, want.tolist()) if w}


def test_lr_table_at_level_8_of_four_sites_matches_verlinde():
    params = ModelParams.locked(4, 8, 0.7, 0.3)
    assert fusion_table(params, route="lr").max_difference(fusion_table(params, route="verlinde")) < 1e-7


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


def test_lr_pair_outside_the_level_cone_at_a_resonance():
    """At a resonant coupling the off-cone rule is the same as at a generic one."""
    params = ModelParams.locked(2, 1, 1.0, 0.0)
    assert structure_constants_lr((1, 0), (2, 0), params) == {}
    assert structure_constants_lr((1, 0), (1, 1), params) == structure_constants_lr((1, 0), (0, 0), params)
    assert structure_constants_lr((2, 1), (1, 0), params) == structure_constants_lr((1, 0), (1, 0), params)


def test_free_parameters_that_differ_in_m_share_a_table_but_not_rows():
    """Free parameters share a bracket table across m, and the ring route raises for both."""
    small = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=2)
    large = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0, m=3)
    coeffs.clear_coeff_caches()
    assert coeffs._table(small) is coeffs._table(large)
    for params in (small, large):
        with pytest.raises(ValueError, match="level-locked"):
            structure_constants_lr((2, 1, 0), (2, 0, 0), params)
        with pytest.raises(ValueError, match="level-locked"):
            fusion_table(params, route="lr")
    assert coeffs._table(small).rings == {}
    coeffs.clear_coeff_caches()


def _count_ring_builders(monkeypatch):
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(fusion, "_pieri", counting("_pieri", fusion._pieri))
    return calls


def test_lr_pairs_after_the_table_run_no_kernel(monkeypatch):
    """Once fusion_table(route="lr") has run, every pair call reads its table."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    coeffs.clear_coeff_caches()
    calls = _count_ring_builders(monkeypatch)
    table = fusion_table(params, route="lr")
    assert "_pieri" in calls
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
    monkeypatch.setattr(fusion, "joint_spectrum", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert fusion_table(params, route="lr").max_difference(want) < 1e-7
    store = coeffs._table(params)
    assert store.polys == {} and (3, 3) in store.rings  # the Pieri recurrence builds no eigenpolynomial
    coeffs.clear_coeff_caches()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(1, 3), g=st.floats(0.3, 1.9), p=st.floats(-0.6, 0.6))
@example(n=4, m=4, g=0.7, p=0.3)
@example(n=5, m=3, g=0.7, p=0.3)
def test_lr_table_matches_verlinde(n, m, g, p):
    """The Pieri table is the Verlinde table, resonant couplings included."""
    params = ModelParams.locked(n, m, g, p)
    table = fusion_table(params, route="lr")
    assert table.max_difference(fusion_table(params, route="verlinde")) < 1e-7


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
    labels = enumerate_level(n, m)
    keys, w = fusion._support_keys(labels)
    i = row % len(labels)
    mask = fusion._support_row(keys, w, i)
    for j, mu in enumerate(labels):
        got = {labels[k] for k in np.flatnonzero(mask[j])}
        assert got == _brute_support(labels[i], mu, m), (n, m, labels[i], mu)


def test_table_rows_and_pairs_agree():
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    sm = s_matrix(params)
    table = fusion_table(params, spectrum=sm.spectrum)
    projection = fusion._projection_table(sm.spectrum)
    assert table.max_difference(projection) < 1e-8
    labels = table.labels
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            want = {k: v for k, v in zip(labels, table.values[i, j].tolist()) if v}
            assert table.entries[(lam, mu)] == want
            assert structure_constants_verlinde(lam, mu, params, spectrum=sm.spectrum) == want
            got = structure_constants_projection(lam, mu, params, spectrum=sm.spectrum)
            assert got == {k: v for k, v in zip(labels, projection.values[i, j].tolist()) if v}


def test_fusion_table_is_read_only_and_compares_equal_labels_only():
    table = fusion_table(ModelParams.locked(2, 1, 0.7, 0.3))
    with pytest.raises(ValueError):
        table.values[0, 0, 0] = 2.0
    with pytest.raises(TypeError):
        table.entries[((0, 0), (0, 0))] = {}
    with pytest.raises(ValueError):
        table.max_difference(fusion_table(ModelParams.locked(2, 2, 0.7, 0.3)))


def test_perturbed_inverse_is_caught_by_the_support():
    sm = s_matrix(ModelParams.locked(3, 2, 0.7, 0.3))
    Sinv = sm.Sinv.copy()
    Sinv[2, 3] += 1e-3
    label = r"\(\d, \d, \d\)"
    message = rf"^fusion .+: {label} -> .+ in {label} x {label} \(verlinde\)$"
    with pytest.raises(ComputationError, match=message):
        fusion._verlinde_table(dataclasses.replace(sm, Sinv=Sinv))


@pytest.mark.parametrize("route", ["verlinde", "projection"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
@pytest.mark.parametrize("on_support", [True, False])
def test_non_finite_raw_value_raises(route, bad, on_support):
    """A NaN or infinity in a raw row is an error naming the pair and route, never a 0.0."""
    params = ModelParams.locked(2, 2, 0.7, 0.3)
    sm = s_matrix(params)
    rows = fusion._verlinde_rows(sm) if route == "verlinde" else fusion._projection_rows(params, sm.spectrum)
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
    mask = fusion._support_row(*fusion._support_keys(labels), i)
    raw = fusion._verlinde_rows(sm)(i)
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
        want = 1.0 / realify(coeffs.c_norm(nu, params))
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


def test_smatrix_gauge_factor_at_unit_coupling():
    # away from the trigonometric point the matrix differs per column by the
    # ratio of normalization coefficients only
    base = ModelParams.locked(3, 2, 1.0, 0.0)
    ell = ModelParams.locked(3, 2, 1.0, 0.45)
    sm0, smp = s_matrix(base), s_matrix(ell)
    ratio = np.array(
        [
            realify(coeffs.c_norm(nu, base)) / realify(coeffs.c_norm(nu, ell))
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
    cvec = np.array([realify(coeffs.c_norm(lam, params)) for lam in spec.labels])
    S = s_matrix(params, spectrum=spec).S
    assert np.abs(S - value_table(params, spec) / cvec[None, :]).max() <= 1e-10 * np.abs(S).max()
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
