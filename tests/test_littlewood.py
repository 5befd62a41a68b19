import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellfusion import coeffs
from ellfusion.kernel import ModelParams, g_regularity_margin
from ellfusion.littlewood import expand_in_P, lr_coefficients, multiply_monomial
from ellfusion.oracles import macdonald_lr_p0
from ellfusion.partitions import (
    add,
    column,
    contains,
    partitions_of_weight,
    underline,
    vertical_strips,
    weight,
)
from ellfusion.polynomials import PolynomialInE, build_P

FREE2 = ModelParams.free(2, g=0.7, p=0.3, alpha=2.0)
FREE3 = ModelParams.free(3, g=0.65, p=0.3, alpha=2.0)


def test_multiply_by_one_is_identity():
    Q = build_P((2, 0), FREE2)
    got = multiply_monomial(PolynomialInE.one(2), Q)
    assert got.coeffs == Q.coeffs


def test_multiply_monomials_add_keys():
    e1 = PolynomialInE(2, {(1, 0): 1.0})
    got = multiply_monomial(e1, e1)
    assert got.coeffs == {(2, 0): 1.0}
    # both factors are plain monomials here
    got = multiply_monomial(build_P((1, 0), FREE2), build_P((1, 1), FREE2))
    assert got.coeffs == {(2, 1): 1.0}


def test_expand_basis_element_is_delta():
    for mu in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        got = expand_in_P(build_P(mu, FREE2), FREE2)
        assert set(got) == {mu}
        assert abs(got[mu] - 1.0) < 1e-12


def test_expand_square_of_first_monomial():
    e1 = PolynomialInE(2, {(1, 0): 1.0})
    got = expand_in_P(multiply_monomial(e1, e1), FREE2)
    psi = coeffs.psi_prime((1, 0), (1, 1), FREE2)
    assert abs(got[(2, 0)] - 1.0) < 1e-12
    assert abs(got[(1, 1)] - psi) < 1e-12


def test_expand_zero_polynomial():
    assert expand_in_P(PolynomialInE(2, {}), FREE2) == {}


@pytest.mark.parametrize(
    "coeffs_, bad",
    [({(2, 0): 1.0, (0, 2): 1.0}, (0, 2)), ({(1, -1): 1.0}, (1, -1)), ({(0, 1): 1.0}, (0, 1))],
)
def test_expand_rejects_keys_that_are_not_partitions(coeffs_, bad):
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        expand_in_P(PolynomialInE(2, coeffs_), FREE2)


def test_lr_with_unit_factor():
    for mu in [(1, 0, 0), (2, 1, 0)]:
        got = lr_coefficients((0, 0, 0), mu, FREE3)
        assert set(got) == {mu}
        assert abs(got[mu] - 1.0) < 1e-12


def test_lr_pieri_case_matches_strip_weights():
    for lam in [(1, 0, 0), (2, 1, 0)]:
        for r in (1, 2, 3):
            got = lr_coefficients(lam, column(3, r), FREE3)
            want = {
                nu: coeffs.psi_prime(lam, nu, FREE3)
                for nu in vertical_strips(lam, r)
            }
            assert set(got) == set(want)
            for k in want:
                assert abs(got[k] - want[k]) < 1e-11


def test_lr_at_unit_coupling_matches_classical():
    params = ModelParams.free(3, g=1.0, p=0.0, alpha=2.0)
    got = lr_coefficients((1, 0, 0), (1, 1, 0), params)
    assert set(got) == {(2, 1, 0), (1, 1, 1)}
    assert abs(got[(2, 1, 0)] - 1.0) < 1e-10
    assert abs(got[(1, 1, 1)] - 1.0) < 1e-10


def test_lr_commutativity():
    shapes = [mu for w in range(4) for mu in partitions_of_weight(3, w)]
    for lam in shapes:
        for mu in shapes:
            a = lr_coefficients(lam, mu, FREE3)
            b = lr_coefficients(mu, lam, FREE3)
            assert set(a) == set(b)
            for k in a:
                assert abs(a[k] - b[k]) <= 1e-10 * max(1.0, abs(a[k]))


def test_lr_associativity_sampled():
    for n, params in ((2, FREE2), (3, FREE3)):
        lam = (1,) + (0,) * (n - 1)
        mu = (1, 1) + (0,) * (n - 2)
        sig = (2,) + (0,) * (n - 1)
        left = {}
        for kappa, c1 in lr_coefficients(lam, mu, params).items():
            for nu, c2 in lr_coefficients(kappa, sig, params).items():
                left[nu] = left.get(nu, 0.0) + c1 * c2
        right = {}
        for kappa, c1 in lr_coefficients(mu, sig, params).items():
            for nu, c2 in lr_coefficients(lam, kappa, params).items():
                right[nu] = right.get(nu, 0.0) + c1 * c2
        for k in set(left) | set(right):
            assert abs(left.get(k, 0.0) - right.get(k, 0.0)) < 1e-9


def test_lr_support_is_exact():
    shapes = [mu for w in range(1, 4) for mu in partitions_of_weight(3, w)]
    for lam in shapes:
        for mu in shapes:
            for nu in lr_coefficients(lam, mu, FREE3):
                assert contains(lam, nu)
                assert contains(mu, nu)
                assert weight(nu) == weight(lam) + weight(mu)


def test_lr_trigonometric_limit_matches_oracle():
    params = ModelParams.free(3, g=0.65, p=0.0, alpha=2.0)
    shapes = [mu for w in range(1, 4) for mu in partitions_of_weight(3, w)]
    for lam in shapes:
        for mu in shapes:
            got = lr_coefficients(lam, mu, params)
            want = macdonald_lr_p0(lam, mu, 2.0, 0.65)
            for k in set(got) | set(want):
                assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-9


def test_lr_translation_covariance():
    full = column(3, 3)
    for lam, mu in [((1, 0, 0), (1, 1, 0)), ((2, 1, 0), (1, 0, 0))]:
        plain = lr_coefficients(lam, mu, FREE3)
        shifted = lr_coefficients(add(lam, full), mu, FREE3)
        a = {underline(k): v for k, v in plain.items()}
        b = {underline(k): v for k, v in shifted.items()}
        assert set(a) == set(b)
        for k in a:
            assert abs(a[k] - b[k]) <= 1e-10 * max(1.0, abs(a[k]))


def _label(n):
    """A partition with n rows and parts <= 3 (the last part may be nonzero)."""
    return st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


@st.composite
def _lr_case(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    g = draw(st.floats(0.3, 1.7))
    p = draw(st.floats(-0.6, 0.6))
    if draw(st.booleans()):
        params = ModelParams.locked(n, draw(st.integers(1, 4)), g, p)
    else:
        params = ModelParams.free(n, g=g, p=p, alpha=draw(st.floats(1.0, 3.0)))
    return params, draw(_label(n)), draw(_label(n))


@settings(max_examples=60, deadline=None)
@given(_lr_case())
def test_lr_coefficients_reconstruct_the_product(case):
    """sum_kappa a_kappa P_kappa rebuilds P_lam * P_mu, convolved key by key."""
    params, lam, mu = case
    window = weight(lam) + weight(mu)
    margin = g_regularity_margin(params.alpha, params.g, params.n, window, jmax=params.n - 1)
    assume(margin > 0.05)
    product = multiply_monomial(build_P(lam, params), build_P(mu, params))
    rebuilt = {}
    for kappa, a in lr_coefficients(lam, mu, params).items():
        for k, u in build_P(kappa, params).items():
            rebuilt[k] = rebuilt.get(k, 0.0) + a * u
    scale = product.max_abs()
    for k in set(rebuilt) | set(product.coeffs):
        assert abs(rebuilt.get(k, 0.0) - product.coeffs.get(k, 0.0)) <= 1e-10 * scale


def test_lr_coefficients_do_not_depend_on_cache_state():
    """Bit-identical on a cold cache, after larger products are expanded, and after a clear."""
    params = ModelParams.locked(3, 4, 0.7, 0.3)
    lam, mu = (3, 1, 0), (2, 2, 0)
    coeffs.clear_coeff_caches()
    cold = lr_coefficients(lam, mu, params)
    # Equal and larger weight and first part: their bases are built first.
    for a, b in [((4, 0, 0), (4, 0, 0)), ((4, 4, 0), (4, 0, 0)), ((4, 1, 0), (4, 0, 0))]:
        lr_coefficients(a, b, params)
    warm = lr_coefficients(lam, mu, params)
    coeffs.clear_coeff_caches()
    cleared = lr_coefficients(lam, mu, params)
    assert list(cold.items()) == list(warm.items()) == list(cleared.items())
    swapped = lr_coefficients(mu, lam, params)
    assert set(swapped) == set(cold)
    for k, v in cold.items():
        assert abs(swapped[k] - v) <= 1e-12 * max(1.0, abs(v))


def test_expand_groups_by_weight():
    """A mixed-weight polynomial expands weight by weight."""
    F = multiply_monomial(build_P((1, 0), FREE2), build_P((1, 0), FREE2))
    mixed = PolynomialInE(2, {**F.coeffs, (1, 0): 2.0, (1, 1): -0.5})
    got = expand_in_P(mixed, FREE2)
    want = expand_in_P(F, FREE2)
    assert abs(got[(1, 0)] - 2.0) < 1e-14
    assert abs(got[(2, 0)] - want[(2, 0)]) < 1e-14
    assert abs(got[(1, 1)] - (want[(1, 1)] - 0.5)) < 1e-12


def test_bad_partitions_are_rejected_with_warm_caches():
    """Validation does not depend on what the caches already hold."""
    params = ModelParams.locked(2, 2, 0.7, 0.3)
    lr_coefficients((1, 0), (1, 0), params)
    build_P((0, 0), params)
    for bad in [(0, 1), (1, -1), [1, -1]]:
        with pytest.raises(ValueError):
            build_P(bad, params)
        with pytest.raises(ValueError):
            lr_coefficients(bad, (1, 0), params)
        with pytest.raises(ValueError):
            lr_coefficients((1, 0), bad, params)


def test_lr_path_validates_each_factor_once(monkeypatch):
    from ellfusion import fusion, littlewood, partitions, polynomials

    calls = []

    def counted(parts, n=None):
        calls.append(parts)
        return partitions.check_partition(parts, n)

    for module in (fusion, littlewood, polynomials):
        monkeypatch.setattr(module, "check_partition", counted)
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    fusion.structure_constants_lr((2, 1, 0), (1, 1, 0), params)
    assert calls == []  # labels of the cone are looked up as they are
    fusion.structure_constants_lr([2, 1, 0], (2, 1, 1), params)  # a list, and a factor off the cone
    assert calls == [[2, 1, 0], (2, 1, 1)]
