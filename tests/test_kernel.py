import cmath
import dataclasses
import math
import pickle

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from ellfusion.errors import GenericityViolation, NonConvergent, SingularDenominator
from ellfusion.kernel import (
    ModelParams,
    bracket,
    g_regularity_margin,
    trig_bracket,
    trig_factorial,
)


def _theta1_ratio_product(w, p):
    """theta1(w)/theta1'(0) = sin w prod_{l>=1} (1 - 2 p^2l cos 2w + p^4l)/(1 - p^2l)^2.

    The product form of theta1 (DLMF 20.5(i)) over theta1'(0) = 2 p^(1/4)
    prod (1 - p^2l)^3: an oracle independent of both series of the kernel.
    """
    out = cmath.sin(w)
    p2l = 1.0
    while True:
        p2l *= p * p
        if abs(p2l) < 5e-17:
            return out
        out *= (1.0 - 2.0 * p2l * cmath.cos(2.0 * w) + p2l * p2l) / (1.0 - p2l) ** 2


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.6, 0.9, -0.3, -0.9])
@pytest.mark.parametrize("w", [0.3, math.pi / 2, 1.1, 2.7])
def test_bracket_matches_product_form(p, w):
    # alpha = 2 makes [w] = theta1(w)/theta1'(0) with no rescaling of w
    params = ModelParams.free(2, g=0.7, p=p, alpha=2.0)
    want = _theta1_ratio_product(complex(w), p)
    assert abs(bracket(w, params) - want) <= 1e-12 * max(abs(want), 1e-30)


def test_bracket_trigonometric_limit():
    params = ModelParams.locked(2, 1, 0.7, 0.0)
    for z in (-2.2, -0.4, 0.3, 1.0, 2.9):
        want = (2.0 / params.alpha) * math.sin(params.alpha * z / 2.0)
        assert abs(bracket(z, params) - want) < 1e-14


def test_bracket_odd_and_zero_at_origin():
    for p in (-0.5, 0.0, 0.5):
        params = ModelParams.locked(2, 1, 0.7, p)
        assert bracket(0.0, params) == 0.0
        for k in range(1, 26):
            z = -5.0 + 10.0 * k / 26.0
            a, b = bracket(-z, params), bracket(z, params)
            assert abs(a + b) <= 1e-12 * max(abs(b), 1e-30)


def test_bracket_quasi_periodicity():
    for p in (-0.5, 0.0, 0.5):
        params = ModelParams.locked(2, 1, 0.7, p)
        period = 2.0 * math.pi / params.alpha
        for z in (0.3, 1.1, 2.6, -0.8):
            lhs = bracket(z + period, params)
            rhs = -bracket(z, params)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-30)


def test_bracket_zero_at_period():
    params = ModelParams.locked(2, 1, 0.7, 0.25)
    z0 = 2.0 * math.pi / params.alpha
    assert abs(bracket(z0, params)) < 1e-12


def test_bracket_positive_inside_fundamental_window():
    for p in (-0.8, -0.3, 0.0, 0.3, 0.8):
        params = ModelParams.locked(2, 1, 0.7, p)
        period = 2.0 * math.pi / params.alpha
        for k in range(1, 40):
            z = period * k / 40.0
            v = bracket(z, params)
            assert abs(v.imag) < 1e-12
            assert v.real > 0.0


def test_trig_bracket_examples():
    assert trig_bracket(1.0, 1.3) == 1.0
    assert trig_bracket(0.0, 1.3) == 0.0
    assert abs(trig_bracket(2.0, math.pi / 3) - math.sqrt(3.0)) < 1e-14
    with pytest.raises(SingularDenominator):
        trig_bracket(1.0, 2.0 * math.pi)
    assert trig_factorial(0.5, 2, 1.1) == trig_bracket(0.5, 1.1) * trig_bracket(1.5, 1.1)


def test_model_params_level_lock():
    params = ModelParams.locked(3, 2, 0.6, 0.1)
    assert abs(params.alpha * (2 + 3 * 0.6) - 2 * math.pi) <= 1e-14 * 2 * math.pi
    assert params.level_locked
    assert abs(params.q - cmath.exp(1j * params.alpha)) == 0.0
    bumped = params.with_p(0.4)
    assert bumped.p == 0.4 and bumped.alpha == params.alpha


def test_model_params_fields_are_the_model_alone():
    """The bracket has one binary64 path: no precision field or argument."""
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["n", "m", "g", "p", "alpha", "level_locked"]
    for make in (
        lambda: ModelParams.locked(2, 1, 0.7, 0.3, precision="mp30"),
        lambda: ModelParams.free(2, g=0.7, p=0.3, alpha=2.0, precision="mp30"),
    ):
        with pytest.raises(TypeError):
            make()


def test_model_params_validation():
    with pytest.raises(ValueError, match="nome p=1.5"):
        ModelParams.locked(2, 1, 0.7, 1.5)
    with pytest.raises(ValueError):
        ModelParams.locked(2, 1, -0.7, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, 1, 0.7, 0.0, alpha=1.0, level_locked=True)
    # m + n*g = 0: the validation's ValueError, not a ZeroDivisionError
    for n, m, g, what in [(2, 0, 0.0, "g > 0"), (2, 2, -1.0, "g > 0"), (0, 0, 0.7, "n must be")]:
        with pytest.raises(ValueError, match=what):
            ModelParams.locked(n, m, g, 0.3)


_BAD_ARGUMENTS = [
    ("free", 0.7, 0.3, 0.0, "alpha=0.0"),
    ("free", 0.7, 0.3, math.inf, "alpha=inf"),
    ("free", 0.7, 0.3, math.nan, "alpha=nan"),
    ("free", math.inf, 0.3, 2.0, "g=inf"),
    ("free", math.nan, 0.3, 2.0, "g=nan"),
    ("free", 0.7, 1.5, 2.0, "p=1.5"),
    ("locked", math.inf, 0.3, None, "g=inf"),
    ("locked", math.nan, 0.3, None, "g=nan"),
    ("locked", 0.7, 1.5, None, "p=1.5"),
    ("locked", 0.7, -1.0, None, "p=-1.0"),
    ("locked", 0.7, math.nan, None, "p=nan"),
]


@pytest.mark.parametrize(
    "mode, g, p, alpha, what", _BAD_ARGUMENTS, ids=[f"{c[0]}-{c[4]}" for c in _BAD_ARGUMENTS]
)
def test_out_of_range_arguments_raise_a_value_error_that_names_them(mode, g, p, alpha, what):
    """Checked before the free-mode gate, which would divide by alpha or round g / period."""
    with pytest.raises(ValueError, match=what):
        if mode == "free":
            ModelParams.free(2, g=g, p=p, alpha=alpha)
        else:
            ModelParams.locked(2, 2, g, p)


def test_free_mode_gate_rejects_resonance():
    # 2*pi/alpha = 3 makes [3] = [period] a denominator zero at g = 1
    with pytest.raises(GenericityViolation):
        ModelParams.free(2, g=1.0, p=0.0, alpha=2.0 * math.pi / 3.0)
    # an incommensurate phase scale passes
    ModelParams.free(2, g=1.0, p=0.0, alpha=2.0)


def test_regularity_margin():
    assert g_regularity_margin(2.0 * math.pi / 3.0, 1.0, 2, 6) < 1e-12
    assert g_regularity_margin(2.0, 1.0, 2, 6) > 0.1
    # the boundary combination m + n*g is excluded for jmax = n - 1
    params = ModelParams.locked(3, 2, 0.7, 0.0)
    assert g_regularity_margin(params.alpha, 0.7, 3, 8, jmax=2) > 1e-2
    assert g_regularity_margin(params.alpha, 0.7, 3, 8, jmax=3) < 1e-12


def _jtheta_ratio(w, p):
    """theta1(w)/theta1'(0) and its w-derivative at 60 digits (sin, cos at p = 0)."""
    with mpmath.workdps(60):
        if p == 0:
            return complex(mpmath.sin(w)), complex(mpmath.cos(w))
        d0 = mpmath.jtheta(1, 0, p, 1)
        return complex(mpmath.jtheta(1, w, p) / d0), complex(mpmath.jtheta(1, w, p, 1) / d0)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-20.0, 20.0), p=st.floats(-0.97, 0.97))
@example(x=1.3, p=0.4999)  # the last direct-series nome below the crossover
@example(x=-7.1, p=-0.4999)
@example(x=1.3, p=0.5)  # the first modular nome
@example(x=-7.1, p=-0.5)
@example(x=0.0, p=0.3)  # the zero z = 0 in both regimes
@example(x=0.0, p=0.9)
def test_bracket_matches_jtheta(x, p):
    # Both regimes are accurate to 1e-12 relative, except that the direct
    # series (|p| < 0.5) is only backward stable in w next to the zeros:
    # rounding (2l+1)w costs about eps*|w| in the argument, hence the
    # second tolerance term.  The floor 1e-30 absorbs the reference's own
    # error at the zero z = 0 (the 60-digit ratio reads 4e-34 there at |p| = 0.97).
    params = ModelParams.locked(2, 1, 0.7, p)
    with mpmath.workdps(60):
        w = mpmath.mpf(params.alpha) * mpmath.mpf(x) / 2
        ref, dref = _jtheta_ratio(w, p)
    half = params.alpha / 2.0
    got = bracket(x, params) * half
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-14 * abs(w) * abs(dref) + 1e-30


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9, 0.97])
def test_bracket_is_exactly_even_in_the_nome(p):
    plus = ModelParams.locked(3, 2, 0.7, p)
    minus = ModelParams.locked(3, 2, 0.7, -p)
    for z in (0.3, 1.1, 2.7, 3.8, -6.2):
        assert bracket(z, plus) == bracket(z, minus)


def test_bracket_beyond_binary64_range_raises_typed_error():
    params = ModelParams.locked(2, 1, 0.7, 0.999)
    # next to a zero the bracket is still representable ...
    v = bracket(0.05, params)
    assert math.isfinite(v.real) and v.real > 0.0
    # ... mid-period it is about exp(2470) and cannot be
    with pytest.raises(NonConvergent):
        bracket(1.2, params)


def test_model_params_hash_is_consistent():
    params = ModelParams.locked(3, 2, 0.6, 0.1)
    twin = ModelParams.locked(3, 2, 0.6, 0.1)
    round_trip = params.with_p(-0.4).with_p(0.1)
    assert params == twin == round_trip
    assert hash(params) == hash(twin) == hash(round_trip)
    assert hash(params.with_p(0.4)) != hash(params)
    assert {params: 1}[round_trip] == 1
    restored = pickle.loads(pickle.dumps(params))
    assert restored == params and hash(restored) == hash(params)
    free = ModelParams.free(2, g=0.7, p=0.25, alpha=2.0)
    assert hash(dataclasses.replace(free, p=0.25)) == hash(free)
    assert [f.name for f in dataclasses.fields(ModelParams)] == list(free.as_dict())
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.p = 0.2
