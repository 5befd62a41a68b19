"""The argument checks of every layer, one table: each raises its typed error with a message that names the fault."""

import re

import numpy as np
import pytest

from ellfusion import coeffs, fusion, littlewood, operators, partitions, polynomials
from ellfusion.errors import NotAStrip
from ellfusion.kernel import ModelParams, bracket, trig_factorial
from ellfusion.oracles import macdonald_pieri_p0
from ellfusion.polynomials import PolynomialInE
from ellfusion.verification import run_suite

_PARAMS = ModelParams.locked(3, 2, 0.7, 0.3)

# Every entry that takes a strip, called on an upper factor nu over (2, 1, 0).
_STRIP_ENTRIES = {
    "check_strip": lambda nu: partitions.check_strip((2, 1, 0), nu, 3),
    "hop_B": lambda nu: coeffs.hop_B((2, 1, 0), nu, _PARAMS),
    "psi_prime": lambda nu: coeffs.psi_prime((2, 1, 0), nu, _PARAMS),
    "macdonald_pieri_p0": lambda nu: macdonald_pieri_p0((2, 1, 0), nu, 2.0, 0.7),
}
_STRIP_CASES = [
    ("with a short upper factor", (3, 1), ValueError, "partition length 2 does not match n=3"),
    ("with a non-integral upper part", (2.5, 1, 0), ValueError, "parts must be integers: (2.5, 1, 0)"),
    ("on a true non-strip", (4, 1, 0), NotAStrip, "(4, 1, 0) is not a vertical strip over (2, 1, 0)"),
]

_RAISES = {
    "fusion_pieri with r = n": (
        lambda: fusion.fusion_pieri((1, 0, 0), 3, _PARAMS), ValueError, "need 1 <= r <= n-1, got r=3"
    ),
    "column with r = 0": (lambda: partitions.column(3, 0), ValueError, "need 1 <= r <= n, got r=0, n=3"),
    "column with r > n": (lambda: partitions.column(3, 4), ValueError, "need 1 <= r <= n, got r=4, n=3"),
    "level_cone with n < 1": (lambda: partitions.level_cone(0, 2), ValueError, "n must be >= 1"),
    "level_cone with m < 0": (lambda: partitions.level_cone(3, -1), ValueError, "m must be >= 0"),
    "locked with m < 0": (lambda: ModelParams.locked(3, -1, 0.7, 0.3), ValueError, "m must be >= 0"),
    "bracket at a complex argument": (lambda: bracket(0.4 + 0.3j, _PARAMS), TypeError, "not 'complex'"),
    "bracket at a numpy complex64 argument": (
        lambda: bracket(np.complex64(0.4 + 0.3j), _PARAMS), TypeError, "not 'complex64'"
    ),
    "bracket at a numpy complex128 argument": (
        lambda: bracket(np.complex128(0.4 + 0.3j), _PARAMS), TypeError, "not 'complex128'"
    ),
    "trig_factorial with k < 0": (lambda: trig_factorial(0.5, -1, 2.0), ValueError, "factorial length k must be >= 0"),
    "multiply_monomial across n": (
        lambda: littlewood.multiply_monomial(PolynomialInE.one(2), PolynomialInE.one(3)),
        ValueError,
        "polynomials live in different variable counts",
    ),
    "expand_in_P of another n": (
        lambda: littlewood.expand_in_P(PolynomialInE.one(2), _PARAMS),
        ValueError,
        "polynomial has n=2, parameters have n=3",
    ),
    "evaluate_R at a point of n - 1 variables": (
        lambda: polynomials.evaluate_R((1, 0, 0), (0.5, 0.25), _PARAMS),
        ValueError,
        "point has 2 variables, expected n=3",
    ),
    "evaluate_R at a point of n - 1 variables before the build": (  # building P_(20, 0) here raises GenericityViolation
        lambda: polynomials.evaluate_R((20, 0), (0.5,), ModelParams.free(2, g=2.7079632679489656, p=0.3, alpha=2.0)),
        ValueError,
        "point has 1 variables, expected n=2",
    ),
    **{
        f"{name} {case}": (lambda call=call, nu=nu: call(nu), error, fragment)
        for name, call in _STRIP_ENTRIES.items()
        for case, nu, error, fragment in _STRIP_CASES
    },
    "joint_spectrum with a negative seed": (
        lambda: operators.joint_spectrum(ModelParams.locked(3, 3, 0.7, 0.6), seed=-1), ValueError, "got seed=-1"
    ),
    "joint_spectrum with a non-integral seed": (
        lambda: operators.joint_spectrum(ModelParams.locked(3, 3, 0.7, 0.6), seed=1.5), ValueError, "got seed=1.5"
    ),
    "run_suite with a negative seed": (lambda: run_suite("all", 2, 2, seed=-1), ValueError, "got seed=-1"),
    "apply_D with r = 0": (lambda: operators.apply_D(0, {}, (1, 0, 0), _PARAMS), ValueError, "need 1 <= r <= n, got r=0"),
    "apply_D with r > n": (lambda: operators.apply_D(4, {}, (1, 0, 0), _PARAMS), ValueError, "need 1 <= r <= n, got r=4"),
}


@pytest.mark.parametrize("case", sorted(_RAISES))
def test_each_argument_check_raises_its_typed_error(case):
    call, error, fragment = _RAISES[case]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is error


def test_apply_D_reports_a_bad_partition_before_a_bad_r():
    with pytest.raises(ValueError, match="^partition length 2 does not match n=3$"):
        operators.apply_D(0, {}, (1, 0), _PARAMS)
