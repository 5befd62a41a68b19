import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from ellfusion import coeffs, fusion, operators
from ellfusion.errors import GenericityViolation, NotAStrip, SingularDenominator
from ellfusion.kernel import SINGULAR_TOL, ModelParams, bracket
from ellfusion.oracles import macdonald_pieri_p0
from ellfusion.partitions import enumerate_level, partitions_of_weight, span, underline, vertical_strips

FREE = ModelParams.free(2, g=0.7, p=0.25, alpha=2.0)


def test_hop_weight_of_full_column_is_one():
    params = ModelParams.locked(3, 2, 0.8, 0.3)
    for lam in [(0, 0, 0), (2, 1, 0), (2, 2, 1)]:
        nu = tuple(x + 1 for x in lam)
        assert coeffs.hop_B(lam, nu, params) == 1.0


def test_hop_weight_single_box():
    g = FREE.g
    want = bracket(2 * g, FREE) / bracket(g, FREE)
    assert abs(coeffs.hop_B((0, 0), (1, 0), FREE) - want) < 1e-14 * abs(want)


def test_hop_weight_rejects_non_strips():
    with pytest.raises(ValueError, match="parts must be non-increasing"):
        coeffs.hop_B((0, 0), (0, 1), FREE)
    with pytest.raises(NotAStrip):
        coeffs.hop_B((1, 0), (3, 0), FREE)
    with pytest.raises(ValueError, match="parts must be non-increasing"):
        coeffs.psi_prime((0, 0), (0, 1), FREE)


@pytest.mark.parametrize("weight", [coeffs.hop_B, coeffs.psi_prime])
def test_float_parts_go_through_the_gate(weight):
    """An integral float is its label, as in ``c_norm``; any other part raises the gate's ValueError."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    coeffs.clear_coeff_caches()  # the float reaches the growth of a fresh table, too
    assert weight((2.0, 1, 0), (3, 1, 0), params) == weight((2, 1, 0), (3, 1, 0), params)
    assert weight((2, 1, 0), (3.0, 1.0, 0), params) == weight((2, 1, 0), (3, 1, 0), params)
    with pytest.raises(ValueError, match=r"^parts must be integers: \(2\.5, 1, 0\)$"):
        weight((2.5, 1, 0), (3.5, 1, 0), params)
    assert coeffs.c_norm((2.0, 1, 0), params) == coeffs.c_norm((2, 1, 0), params)
    coeffs.clear_coeff_caches()


@pytest.mark.parametrize("weight", [coeffs.hop_B, coeffs.psi_prime])
def test_a_non_integral_factor_raises_the_gate_not_a_strip(weight):
    """A part that is no integer is a usage error; a true non-strip stays ``NotAStrip``."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    with pytest.raises(ValueError, match=r"^parts must be integers: \(2\.5, 1, 0\)$"):
        weight((2, 1, 0), (2.5, 1, 0), params)
    with pytest.raises(ValueError, match=r"^parts must be integers: \(1\.5, 1, 0\)$"):
        weight((1.5, 1, 0), (2, 1, 0), params)
    with pytest.raises(NotAStrip, match="is not a vertical strip"):
        weight((2, 1, 0), (4, 1, 0), params)
    with pytest.raises(NotAStrip, match="is not a vertical strip"):
        weight((2.0, 1, 0), (4, 1, 0), params)


def test_recurrence_weight_of_leading_column_is_one():
    params = ModelParams.locked(3, 3, 0.55, 0.4)
    for lam in [(0, 0, 0), (1, 0, 0), (2, 2, 0)]:
        for s in (1, 2, 3):
            nu = tuple(x + 1 if i < s else x for i, x in enumerate(lam))
            if all(nu[i] >= nu[i + 1] for i in range(2)):
                assert coeffs.psi_prime(lam, nu, params) == 1.0


def test_recurrence_weight_single_pair():
    g = FREE.g
    want = (
        bracket(2 * g, FREE)
        * bracket(1.0, FREE)
        / (bracket(g, FREE) * bracket(1 + g, FREE))
    )
    got = coeffs.psi_prime((1, 0), (1, 1), FREE)
    assert abs(got - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("g", [0.4, 0.7, 1.3])
@pytest.mark.parametrize("p", [0.0, 0.4, -0.5])
def test_level_boundary_zero(g, p):
    params = ModelParams.locked(2, 1, g, p)
    # hopping back into the cone from span m+1 carries a vanishing weight
    assert abs(coeffs.psi_prime((2, 0), (2, 1), params)) < 1e-11


def test_normalization_examples():
    g = FREE.g
    assert coeffs.c_norm((0, 0), FREE) == 1.0
    want = bracket(g, FREE) / bracket(2 * g, FREE)
    assert abs(coeffs.c_norm((1, 0), FREE) - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("g", [0.3, 0.8, 1.0, 1.6])
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5])
def test_normalization_positive_on_level_cone(g, p):
    params = ModelParams.locked(2, 2, g, p)
    for mu in enumerate_level(2, 2):
        assert coeffs.c_norm(mu, params) > 0.0


def test_delta_examples():
    params = ModelParams.locked(2, 1, 0.7, 0.2)
    g = params.g
    assert coeffs.delta_weight((0, 0), params) == 1.0
    want = (
        bracket(1 + g, params)
        / bracket(g, params)
        * bracket(2 * g, params)
        / bracket(1.0, params)
    )
    got = coeffs.delta_weight((1, 0), params)
    assert abs(got - want) < 1e-13 * abs(want)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
@pytest.mark.parametrize("g", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("p", [-0.4, 0.0, 0.4])
def test_delta_positive_on_level_cone(n, m, g, p):
    params = ModelParams.locked(n, m, g, p)
    for lam in enumerate_level(n, m):
        assert coeffs.delta_weight(lam, params) > 0.0


@pytest.mark.parametrize("g", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5])
def test_gauge_identity_free_mode(g, p):
    params = ModelParams.free(3, g=g, p=p, alpha=2.0)
    for mu in enumerate_level(3, 3):
        for r in (1, 2, 3):
            for nu in vertical_strips(mu, r):
                lhs = coeffs.psi_prime(mu, nu, params) * coeffs.c_norm(mu, params)
                rhs = coeffs.hop_B(mu, nu, params) * coeffs.c_norm(nu, params)
                assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-30)


@pytest.mark.parametrize("g", [0.6, 1.0, 1.45])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_recurrence_weights_real_positive_on_cone(g, p):
    params = ModelParams.locked(3, 2, g, p)
    for lam in enumerate_level(3, 2):
        for r in (1, 2, 3):
            for nu in vertical_strips(lam, r):
                v = coeffs.psi_prime(lam, nu, params)
                if span(nu) <= params.m:
                    assert v > 0.0
                else:
                    assert v >= 0.0  # boundary strips may carry the pinned zero


def test_trigonometric_degeneration_of_recurrence_weight():
    params = ModelParams.locked(3, 2, 0.75, 0.0)
    for w in range(5):
        for lam in partitions_of_weight(3, w, max_part=4):
            for r in (1, 2, 3):
                for nu in vertical_strips(lam, r):
                    got = coeffs.psi_prime(lam, nu, params)
                    want = macdonald_pieri_p0(lam, nu, params.alpha, params.g)
                    assert abs(got - want) < 1e-12


def test_coupling_one_limit_of_recurrence_weight():
    for delta in (-1e-6, 1e-6):
        params = ModelParams.free(3, g=1.0 + delta, p=0.3, alpha=2.0)
        for lam in [(1, 0, 0), (2, 1, 0), (2, 2, 1)]:
            for r in (1, 2, 3):
                for nu in vertical_strips(lam, r):
                    assert abs(coeffs.psi_prime(lam, nu, params) - 1.0) < 1e-4


# -- the bracket table and the level-cone gathers ------------------------------

# (least |p|, largest |p|) of each kernel regime.
_REGIMES = {"direct": (0.0, 0.49), "modular": (0.5, 0.99)}


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(0, 4),
    g=st.floats(0.1, 2.0),
    regime=st.sampled_from(sorted(_REGIMES)),
    nome=st.floats(0.0, 1.0),
    sign=st.sampled_from((1.0, -1.0)),
    alpha=st.floats(0.3, 3.0),
    locked=st.booleans(),
    a=st.integers(0, 12),
    b=st.integers(0, 6),
)
def test_brackets_of_real_arguments_are_real_and_coefficients_are_floats(
    n, m, g, regime, nome, sign, alpha, locked, a, b
):
    """[a + b*g] has imaginary part exactly 0, so every coefficient is a float, scalar and gathered."""
    lo, hi = _REGIMES[regime]
    p = sign * (lo + (hi - lo) * nome)
    if locked:
        params = ModelParams.locked(n, m, g, p)
    else:
        try:
            params = ModelParams.free(n, g=g, p=p, alpha=alpha, m=m)
        except GenericityViolation:
            reject()
    assert bracket(a + b * params.g, params).imag == 0.0
    labels = enumerate_level(n, m)
    try:
        scalars = [f(lam, params) for lam in labels for f in (coeffs.c_norm, coeffs.delta_weight)]
        scalars += [
            f(lam, nu, params)
            for lam in labels
            for r in range(1, n + 1)
            for nu in vertical_strips(lam, r)
            for f in (coeffs.hop_B, coeffs.psi_prime)
        ]
        gathers = [coeffs.level_c(params), coeffs.level_delta(params)]
        gathers += [f(r, params)[2] for r in range(1, n) for f in (coeffs.level_hops, coeffs.level_psi)]
    except SingularDenominator:
        reject()  # a free coupling on a bracket zero
    assert all(type(x) is float for x in scalars)
    assert all(v.dtype == np.float64 for v in gathers)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(0, 8),
    g=st.floats(0.1, 2.0),
    p=st.floats(-0.95, 0.95),
    alpha=st.floats(0.3, 3.0),
    locked=st.booleans(),
    rows=st.lists(st.integers(1, 12), min_size=1, max_size=3),
)
def test_bracket_table_entries_are_the_scalar_bracket(n, m, g, p, alpha, locked, rows):
    """Every entry is the real part of bracket(a + b*g) bit for bit, however the table grew."""
    if locked:
        params = ModelParams.locked(n, m, g, p)
    else:
        try:
            params = ModelParams.free(n, g=g, p=p, alpha=alpha, m=m)
        except GenericityViolation:
            reject()
    coeffs.clear_coeff_caches()
    for i, r in enumerate(rows):  # grow in rows and, on the second request, in columns
        coeffs.bracket_table(params, r, n + 1 + min(i, 1))
    shape = (max(rows), n + 1 + min(len(rows) - 1, 1))
    table = coeffs.bracket_table(params, *shape)
    want = np.array([[bracket(a + b * params.g, params).real for b in range(shape[1])] for a in range(shape[0])])
    assert table.shape == shape
    assert np.array_equal(table.view(np.int64), want.view(np.int64))
    assert not table.flags.writeable


def _ratio(num: float, den: float, params: ModelParams) -> complex:
    return bracket(num, params) / bracket(den, params)


def _hop_reference(lam, nu, params) -> complex:
    g, out = params.g, 1.0 + 0.0j
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            d, t = lam[j] - lam[k], (nu[j] - lam[j]) - (nu[k] - lam[k])
            out *= _ratio(d + g * (k - j + t), d + g * (k - j), params)
    return out


def _c_reference(mu, params) -> complex:
    g, out = params.g, 1.0 + 0.0j
    for j in range(len(mu)):
        for k in range(j + 1, len(mu)):
            for l in range(mu[j] - mu[k]):
                out *= _ratio(l + (k - j) * g, l + (k - j + 1) * g, params)
    return out


def _delta_reference(lam, params) -> complex:
    g, out = params.g, 1.0 + 0.0j
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            d, s = lam[j] - lam[k], k - j
            out *= _ratio(d + s * g, s * g, params)
            for l in range(d):
                out *= _ratio(l + (s + 1) * g, 1.0 + l + (s - 1) * g, params)
    return out


def _psi_reference(lam, nu, params) -> complex:
    g, out = params.g, 1.0 + 0.0j
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            if (nu[j] - lam[j]) - (nu[k] - lam[k]) == -1:
                dn, dl, s = nu[j] - nu[k], lam[j] - lam[k], k - j
                out *= _ratio(dn + g * (s + 1), dn + g * s, params)
                out *= _ratio(dl + g * (s - 1), dl + g * s, params)
    return out


def _bits(values) -> np.ndarray:
    return np.asarray(values).view(np.int64)


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 4) for m in range(5)] + [(5, 3)])
def test_level_gathers_match_scalar_products(n, m):
    """Array and scalar weights against the products written out with ``bracket``."""
    params = ModelParams.locked(n, m, 0.7, 0.45)
    labels = enumerate_level(n, m)
    index = {lam: i for i, lam in enumerate(labels)}
    delta, c = coeffs.level_delta(params), coeffs.level_c(params)
    assert delta.shape == c.shape == (len(labels),)
    for i, lam in enumerate(labels):
        assert _close(delta[i], _delta_reference(lam, params))
        assert _close(coeffs.delta_weight(lam, params), _delta_reference(lam, params))
        assert _close(c[i], _c_reference(lam, params))
        assert _close(coeffs.c_norm(lam, params), _c_reference(lam, params))
    for r in range(1, n):
        for gather, reference in ((coeffs.level_hops, _hop_reference), (coeffs.level_psi, _psi_reference)):
            rows, cols, vals = gather(r, params)
            want = {
                (index[lam], index[underline(nu)]): reference(lam, nu, params)
                for lam in labels
                for nu in vertical_strips(lam, r)
                if span(nu) <= m
            }
            got = {(int(i), int(j)): v for i, j, v in zip(rows, cols, vals)}
            assert len(rows) == len(want) and got.keys() == want.keys()
            for key, value in want.items():
                assert _close(got[key], value)
        # The rows of the ring route's E_r, against fusion_pieri, which enumerates its own strips.
        rows, cols, vals = coeffs.level_psi(r, params)
        pieri = {
            (i, index[kappa]): v
            for i, lam in enumerate(labels)
            for kappa, v in fusion.fusion_pieri(lam, r, params).items()
        }
        assert list(zip(rows.tolist(), cols.tolist())) == list(pieri)
        assert _bits(vals).tolist() == _bits(list(pieri.values())).tolist()
    for lam in labels:
        for r in range(1, n + 1):
            for nu in vertical_strips(lam, r):
                assert _close(coeffs.hop_B(lam, nu, params), _hop_reference(lam, nu, params))
                assert _close(coeffs.psi_prime(lam, nu, params), _psi_reference(lam, nu, params))


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 6) for m in range(6)])
def test_scalar_coefficients_are_their_gathers_bit_for_bit(n, m):
    """hop_B, psi_prime, c_norm and delta_weight equal their level-cone gathers in every bit.

    So do the walks that read the weights without the strip gate: the row
    of ``fusion_pieri`` at each label, and ``apply_D`` of each unit function.
    Both kernel regimes (|p| < 0.5 and |p| >= 0.5) at both signs of p, at
    couplings across [0.3, 1.9], a resonant one included.
    """
    labels = enumerate_level(n, m)
    strips = {
        r: [(i, nu) for i, lam in enumerate(labels) for nu in vertical_strips(lam, r) if span(nu) <= m]
        for r in range(1, n)
    }
    for g in (0.3, 1.0, 1.9):
        for p in (0.3, -0.3, 0.7, -0.7):
            params = ModelParams.locked(n, m, g, p)
            for gather, scalar in ((coeffs.level_c, coeffs.c_norm), (coeffs.level_delta, coeffs.delta_weight)):
                want = [scalar(lam, params) for lam in labels]
                assert _bits(gather(params)).tolist() == _bits(want).tolist()
            for r, listed in strips.items():
                for gather, scalar in ((coeffs.level_hops, coeffs.hop_B), (coeffs.level_psi, coeffs.psi_prime)):
                    rows, _, vals = gather(r, params)
                    want = [scalar(labels[i], nu, params) for i, nu in listed]
                    assert rows.tolist() == [i for i, _ in listed]
                    assert _bits(vals).tolist() == _bits(want).tolist()
                    if gather is coeffs.level_psi:
                        pieri = [fusion.fusion_pieri(lam, r, params) for lam in labels]
                        assert sum(map(len, pieri)) == len(listed)
                        got = [pieri[i][underline(nu)] for i, nu in listed]
                    else:
                        got = [operators.apply_D(r, {nu: 1.0}, labels[i], params) for i, nu in listed]
                        assert all(v.imag == 0.0 for v in got)
                        got = [v.real for v in got]
                    assert _bits(got).tolist() == _bits(vals).tolist()


def _resonant(n: int, m: int, zero: float) -> ModelParams:
    """Free parameters with the bracket zero 2*pi/alpha at ``zero`` (past the genericity gate)."""
    return ModelParams(n, m, 0.7, 0.3, 2.0 * math.pi / zero, level_locked=False)


def test_singular_denominator_through_scalar_and_array_paths():
    params = _resonant(2, 1, 1.7)  # [1 + g] = 0
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.7\] vanished"):
        coeffs.psi_prime((1, 0), (1, 1), params)
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.7\] vanished"):
        coeffs.hop_B((1, 0), (1, 1), params)
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.7\] vanished"):
        coeffs.level_hops(1, params)
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.7\] vanished"):
        coeffs.level_psi(1, params)
    assert coeffs.psi_prime((0, 0), (1, 0), params) == 1.0  # no pair with theta_j - theta_k = -1
    params = _resonant(2, 1, 1.4)  # [2g] = 0
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.4\] vanished"):
        coeffs.c_norm((1, 0), params)
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.4\] vanished"):
        coeffs.level_c(params)
    params = _resonant(2, 1, 0.7)  # [g] = 0
    with pytest.raises(SingularDenominator, match=r"bracket \[0\.7\] vanished"):
        coeffs.delta_weight((0, 0), params)
    with pytest.raises(SingularDenominator, match=r"bracket \[0\.7\] vanished"):
        coeffs.level_delta(params)
    params = _resonant(2, 1, 1.0)  # [1] = 0, in the running product of the Delta tail
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.0\] vanished"):
        coeffs.delta_weight((1, 0), params)
    with pytest.raises(SingularDenominator, match=r"bracket \[1\.0\] vanished"):
        coeffs.level_delta(params)


def test_level_gathers_of_an_empty_strip_set():
    params = ModelParams.locked(3, 0, 0.7, 0.3)
    for r in (1, 2):
        rows, cols, vals = coeffs.level_hops(r, params)
        assert rows.dtype == cols.dtype == np.intp and vals.shape == (0,)
    assert coeffs.level_delta(params).tolist() == [1.0] and coeffs.level_c(params).tolist() == [1.0]


def _factor_cells(values: np.ndarray) -> np.ndarray:
    """The six factor layers of ``BracketTable`` from values, cell by cell in Python floats."""
    B = values.tolist()
    R, K = values.shape

    def ratio(num, den):
        return math.nan if abs(den) < SINGULAR_TOL else num / den

    out = np.full((6, R, K), math.nan)
    for s in range(1, K - 1):
        c = tail = 1.0
        for a in range(R):
            for t in (-1, 0, 1):
                out[t + 1, a, s] = ratio(B[a][s + t], B[a][s])
            out[3, a, s], out[4, a, s], out[5, a, s] = c, ratio(B[a][s], B[0][s]), tail
            c *= ratio(B[a][s], B[a][s + 1])
            if a + 1 < R:
                tail *= ratio(B[a][s + 1], B[a + 1][s - 1])
    return out


@pytest.mark.parametrize(
    "params, shape",
    [
        (ModelParams.locked(1, 3, 0.7, 0.3), (4, 2)),  # n = 1: no pair distance, every cell NaN
        (ModelParams.locked(3, 3, 0.7, 0.3), (1, 3)),
        (ModelParams.locked(3, 3, 0.7, 0.3), (1, 4)),
        (ModelParams.locked(3, 3, 0.7, 0.3), (2, 2)),
        (ModelParams.locked(4, 5, 1.0, 0.3), (10, 6)),  # resonant: NaN cells
        (ModelParams.locked(3, 6, 0.5, 0.3), (9, 5)),
        (_resonant(2, 1, 1.0), (4, 4)),
        (ModelParams.locked(4, 4, 0.7, -0.9), (5, 5)),
    ],
)
def test_factor_layers_are_the_cellwise_ratios(params, shape):
    """The array layers of ``BracketTable`` are the cell-by-cell ratios and running products, bit for bit."""
    table = coeffs.BracketTable(params)
    table.grow(*shape)
    assert table.factors.shape == (6, *shape)
    assert table.factors.tobytes() == _factor_cells(table.values).tobytes()


def test_a_table_of_no_rows_is_empty_and_grows_to_the_bits_of_a_fresh_one():
    """Grown to zero rows, a table holds empty arrays of its width; grown on, it is bit for bit a table built at once."""
    params = ModelParams.locked(3, 2, 0.7, 0.3)
    table, fresh = coeffs.BracketTable(params), coeffs.BracketTable(params)
    table.grow(0, 5)
    assert table.values.shape == (0, 5) and table.factors.shape == table.vanished.shape == (6, 0, 5)
    table.grow(3, 5)
    fresh.grow(3, 5)
    for name in ("values", "factors", "vanished"):
        assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()
    coeffs.clear_coeff_caches()
    assert coeffs.bracket_table(params, 0, 5).shape == (0, 5)
    coeffs.clear_coeff_caches()


def test_one_row_coefficients_are_empty_products():
    params = ModelParams.locked(1, 3, 0.7, 0.3)
    assert coeffs.c_norm((3,), params) == coeffs.delta_weight((2,), params) == 1.0
    assert coeffs.hop_B((2,), (3,), params) == coeffs.psi_prime((2,), (3,), params) == 1.0


def test_opposite_nome_reuses_every_bracket(monkeypatch):
    """The tables are keyed on |p|: s_matrix at -p evaluates no bracket after p."""
    calls = []

    def counted(z, params):
        calls.append(z)
        return bracket(z, params)

    monkeypatch.setattr(coeffs, "bracket", counted)
    params = ModelParams.locked(4, 4, 0.7, 0.6)
    first = fusion.s_matrix(params)
    assert calls
    calls.clear()
    second = fusion.s_matrix(params.with_p(-0.6))
    assert calls == []
    assert np.array_equal(first.spectrum.e, second.spectrum.e)


def test_weights_reject_non_partitions():
    params = ModelParams.locked(2, 2, 0.7, 0.3)
    with pytest.raises(ValueError):
        coeffs.c_norm((0, 1), params)
    with pytest.raises(ValueError):
        coeffs.delta_weight((0, 2), params)


def test_bracket_tables_are_a_bounded_lru(monkeypatch):
    calls = []

    def counted(z, params):
        calls.append(z)
        return bracket(z, params)

    monkeypatch.setattr(coeffs, "bracket", counted)
    coeffs.clear_coeff_caches()
    sweep = [ModelParams.locked(2, 1, 0.7, k / 1000) for k in range(coeffs.TABLE_LIMIT + 1)]
    for params in sweep:
        coeffs.bracket_table(params, 1, 3)
    calls.clear()
    coeffs.bracket_table(sweep[-1], 1, 3)
    assert calls == []
    coeffs.bracket_table(sweep[0], 1, 3)  # the least recently used table was dropped
    assert len(calls) == 3
    coeffs.clear_coeff_caches()


def test_concurrent_growth_keeps_every_entry():
    """Threads growing one table at once leave it equal to the scalar brackets."""
    params = ModelParams.free(3, g=0.65, p=0.4, alpha=1.3)
    lams = [(w, w // 3, 0) for w in range(2, 30)]
    want = {lam: coeffs.c_norm(lam, params) for lam in lams}
    coeffs.clear_coeff_caches()
    got: dict = {}
    errors: list = []

    def work(order):
        try:
            for lam in order:
                got[lam] = coeffs.c_norm(lam, params)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(lams[k::2] + lams[::-1],)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert got == want
    table = coeffs.bracket_table(params, 30, 4)
    expected = np.array([[bracket(a + b * params.g, params).real for b in range(4)] for a in range(30)])
    assert np.array_equal(table.view(np.int64), expected.view(np.int64))


def test_lock_free_hits_under_growth_and_eviction(monkeypatch):
    """Four threads hit, grow and evict tables at 8 values of |p| through a store of 4: the single-threaded bits."""
    monkeypatch.setattr(coeffs, "TABLE_LIMIT", 4)
    sweep = [ModelParams.free(3, g=0.65, p=p, alpha=1.3) for p in (0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8)]
    lams = [(w, w // 3, 0) for w in range(2, 24)]
    coeffs.clear_coeff_caches()
    want = {(params, lam): coeffs.c_norm(lam, params) for lam in lams for params in sweep}
    coeffs.clear_coeff_caches()
    got: dict = {}
    errors: list = []

    def work(k):
        try:
            for lam in lams:  # each lam grows its rows, and each |p| evicts another table
                for params in sweep[k:] + sweep[:k]:
                    got[params, lam] = coeffs.c_norm(lam, params)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(2 * k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert got.keys() == want.keys()
    assert np.array([got[key] for key in want]).tobytes() == np.array(list(want.values())).tobytes()
    assert len(coeffs._TABLES) <= coeffs.TABLE_LIMIT
    coeffs.clear_coeff_caches()


def test_a_hit_takes_no_lock(monkeypatch):
    """A table that is there and large enough is served without the lock; a growth takes it."""

    class Refused:
        def __enter__(self):
            raise AssertionError("the lock was taken")

        def __exit__(self, *exc):
            return False

    params = ModelParams.locked(3, 2, 0.7, 0.3)
    coeffs.clear_coeff_caches()
    table = coeffs._table(params, 3, 4)
    monkeypatch.setattr(coeffs, "_TABLES_LOCK", Refused())
    assert coeffs._table(params.with_p(-0.3), 2, 3) is table
    assert coeffs.c_norm((2, 1, 0), params) > 0
    with pytest.raises(AssertionError, match="the lock was taken"):
        coeffs._table(params, 4, 4)
    monkeypatch.undo()
    coeffs.clear_coeff_caches()


def test_growth_publishes_the_brackets_last():
    """``grow`` sets ``factors`` and ``vanished`` before ``values``: a reader seeing the grown shape reads grown arrays."""
    order = []

    class Recorded(coeffs.BracketTable):
        def __setattr__(self, name, value):
            order.append(name)
            super().__setattr__(name, value)

    table = Recorded(ModelParams.locked(3, 2, 0.7, 0.3))
    order.clear()
    table.grow(3, 4)
    assert order.index("values") > max(order.index("factors"), order.index("vanished"))
    assert table.factors.shape == (6, *table.values.shape)
