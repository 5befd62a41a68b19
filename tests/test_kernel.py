import cmath
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import ellfusion

from ellfusion.errors import GenericityViolation, NonConvergent, SingularDenominator
from ellfusion.kernel import (
    ModelParams,
    bracket,
    elliptic_factorial,
    g_regularity_margin,
    theta1,
    theta1_prime0,
    theta1_product,
    trig_bracket,
    trig_factorial,
)


def test_theta1_vanishes_at_lattice_points():
    for p in (0.0, 0.1, 0.3, -0.4):
        assert abs(theta1(0.0, p)) < 1e-12
    assert abs(theta1(math.pi, 0.3)) < 1e-12


def test_theta1_series_matches_product():
    got = theta1(math.pi / 2, 0.1)
    want = theta1_product(math.pi / 2, 0.1)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.6, 0.9, -0.3, -0.9])
@pytest.mark.parametrize("z", [0.3, 1.1, 2.7, 0.4 + 0.3j])
def test_theta1_series_product_sweep(p, z):
    got = theta1(z, p)
    want = theta1_product(z, p)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_theta1_rejects_bad_nome():
    with pytest.raises(NonConvergent):
        theta1(1.0, 1.0)
    with pytest.raises(NonConvergent):
        theta1(1.0, -1.2)


def test_theta1_prime0_positive_and_consistent():
    # finite difference of the series against the term-wise derivative
    for p in (0.0, 0.2, 0.5):
        h = 1e-6
        fd = (theta1(h, p) - theta1(-h, p)) / (2 * h)
        assert abs(fd - theta1_prime0(p)) < 1e-8 * max(1.0, abs(theta1_prime0(p)))


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


def test_elliptic_factorial():
    params = ModelParams.locked(2, 1, 0.7, 0.2)
    g = params.g
    assert elliptic_factorial(1.3, 0, params) == 1.0
    assert elliptic_factorial(1.0, 1, params) == bracket(1.0, params)
    want = bracket(g, params) * bracket(g + 1, params)
    assert abs(elliptic_factorial(g, 2, params) - want) < 1e-14 * abs(want)


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


def test_extended_precision_backend_matches_double():
    base = ModelParams.locked(2, 1, 0.7, 0.35)
    wide = ModelParams.locked(2, 1, 0.7, 0.35, precision="mp40")
    for z in (0.3, 1.4, 2.2):
        a, b = bracket(z, base), bracket(z, wide)
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))
    with pytest.raises(ValueError):
        ModelParams.locked(2, 1, 0.7, 0.0, precision="single")


def _jtheta_ratio(w, p):
    """theta1(w)/theta1'(0) and its w-derivative at 60 digits (sin, cos at p = 0)."""
    with mpmath.workdps(60):
        if p == 0:
            return complex(mpmath.sin(w)), complex(mpmath.cos(w))
        d0 = mpmath.jtheta(1, 0, p, 1)
        return complex(mpmath.jtheta(1, w, p) / d0), complex(mpmath.jtheta(1, w, p, 1) / d0)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-20.0, 20.0),
    y=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    p=st.floats(-0.97, 0.97),
)
def test_bracket_and_theta1_match_jtheta(x, y, p):
    # Both regimes are accurate to 1e-12 relative, except that the direct
    # series (|p| < 0.5) is only backward stable in w next to the zeros:
    # rounding (2l+1)w costs about eps*|w| in the argument, hence the
    # second tolerance term.  The floor 1e-30 absorbs the reference's own
    # error at the zero z = 0 (the 60-digit ratio reads 4e-34 there at |p| = 0.97).
    params = ModelParams.locked(2, 1, 0.7, p)
    z = complex(x, y)
    with mpmath.workdps(60):
        w = mpmath.mpf(params.alpha) * mpmath.mpc(z) / 2
        ref, dref = _jtheta_ratio(w, p)
        theta_ref = complex(mpmath.jtheta(1, mpmath.mpc(z), p))
        dtheta_ref = complex(mpmath.jtheta(1, mpmath.mpc(z), p, 1))
    half = params.alpha / 2.0
    got = bracket(z, params) * half
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-14 * abs(w) * abs(dref) + 1e-30
    got = theta1(z, p)
    assert abs(got - theta_ref) <= 1e-12 * abs(theta_ref) + 1e-14 * abs(z) * abs(dtheta_ref) + 1e-30


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9, 0.97])
def test_bracket_is_exactly_even_in_the_nome(p):
    plus = ModelParams.locked(3, 2, 0.7, p)
    minus = ModelParams.locked(3, 2, 0.7, -p)
    for z in (0.3, 1.1, 2.7, 3.8, -6.2, 0.4 + 0.3j):
        assert bracket(z, plus) == bracket(z, minus)


@pytest.mark.parametrize("p", [0.5, 0.9, -0.97])
def test_theta1_prime0_matches_jtheta(p):
    with mpmath.workdps(60):
        want = complex(mpmath.jtheta(1, 0, p, 1))
    assert abs(theta1_prime0(p) - want) <= 1e-13 * abs(want)


def test_bracket_beyond_binary64_range_raises_typed_error():
    params = ModelParams.locked(2, 1, 0.7, 0.999)
    # next to a zero the bracket is still representable ...
    v = bracket(0.05, params)
    assert math.isfinite(v.real) and v.real > 0.0
    # ... mid-period it is about exp(2470) and cannot be
    with pytest.raises(NonConvergent):
        bracket(1.2, params)


def test_double_precision_never_imports_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellfusion.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, ellfusion\n"
        "sm = ellfusion.s_matrix(ellfusion.ModelParams.locked(3, 3, 0.7, 0.9))\n"
        "assert sm.identity_residual() < 1e-8\n"
        "print('mpmath' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
