"""Scaled theta kernel and model parameters.

The basic building block is the bracket

    [z] = theta1(alpha*z/2; p) / ((alpha/2) * theta1'(0; p)),

an odd entire function of z whose zeros sit on (2*pi/alpha) * Z.  The nome
lives in (-1, 1); at p = 0 the bracket degenerates to (2/alpha)*sin(alpha*z/2).
The common branch factor p^(1/4) of theta1 and theta1' cancels in the ratio,
so the bracket is evaluated from the reduced sums

    S(w, p)  = sum_{l>=0} (-1)^l p^(l(l+1)) sin((2l+1) w),
    S'(0, p) = sum_{l>=0} (-1)^l (2l+1) p^(l(l+1)),

which stay real for real inputs, are analytic across p = 0 and depend on p
only through p^2.  Both are evaluated in binary64, in one of two regimes:

* |p| < MODULAR_CROSSOVER (0.5): the series above, summed directly.
* |p| >= MODULAR_CROSSOVER: Jacobi's imaginary transformation tau -> -1/tau
  (DLMF 20.7(viii)).  With t = -ln|p|/pi the dual nome p' = exp(-pi/t) is
  at most 7e-7, so three or four Gaussian-weighted sinh terms, combined in
  log space after reducing w modulo pi, reach full precision until the
  bracket itself leaves the binary64 range (|p| > 0.9966 away from its
  zeros), where NonConvergent is raised.

The crossover comes from a sweep against a 60-digit theta1 (the oracle of
the kernel tests) over real w in [-20, 20]: the direct series keeps a worst relative error below
6e-13 up to |p| = 0.5 and degrades to 2e-12 at 0.6 and 1e-4 at 0.9, while the
transformed form stays within 2e-15 from 0.3 to 0.75 and 2e-14 at 0.97, at
the same cost per call as the direct series at 0.5.  All evaluators here
are stateless and safe to call concurrently; the bracket is not cached here,
because ``coeffs`` keeps one table of the brackets it needs per
(alpha, g, |p|).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from .errors import GenericityViolation, NonConvergent, SingularDenominator

TRUNCATION_RTOL = 1e-16
SINGULAR_TOL = 1e-12
GENERICITY_TOL = 1e-8
DEFAULT_GATE_WINDOW = 12
_MAX_TERMS = 600
_TWO_PI = 2.0 * math.pi
# pi = _PI_A + _PI_B + _PI_C to 3e-33; _PI_A and _PI_B carry 26 significant
# bits, so k * _PI_A and k * _PI_B are exact and w - k*pi keeps full relative
# accuracy next to the zeros of theta1 (Cody-Waite reduction).
_PI_A = 3.1415926814079285
_PI_B = -2.781813535079891e-08
_PI_C = 1.2246467991473532e-16
MODULAR_CROSSOVER = 0.5


def _sine_series(w: complex, p: float) -> complex:
    """sum_{l>=0} (-1)^l p^(l(l+1)) sin((2l+1) w), truncated adaptively.

    Terms are added until two consecutive terms fall below TRUNCATION_RTOL
    relative to the running sum; l(l+1) is always even, so negative nomes
    need no special casing.  Used below ``MODULAR_CROSSOVER`` only.
    """
    total = 0.0 + 0.0j
    power = 1.0  # p^(l(l+1))
    small = 0
    for l in range(_MAX_TERMS):
        term = (-1) ** (l % 2) * power * cmath.sin((2 * l + 1) * w)
        total += term
        if abs(term) <= TRUNCATION_RTOL * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        power *= p ** (2 * (l + 1))
    raise NonConvergent(f"theta series did not converge for p={p!r}")


def _derivative_series0(p: float) -> float:
    """sum_{l>=0} (-1)^l (2l+1) p^(l(l+1)); never vanishes on |p| < 1."""
    total = 0.0
    power = 1.0
    small = 0
    for l in range(_MAX_TERMS):
        term = (-1) ** (l % 2) * (2 * l + 1) * power
        total += term
        if abs(term) <= TRUNCATION_RTOL * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
        power *= p ** (2 * (l + 1))
    raise NonConvergent(f"theta derivative series did not converge for p={p!r}")


def _expm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation at small |z| (cmath has no expm1)."""
    em1 = math.expm1(z.real)
    half = math.sin(0.5 * z.imag)
    return complex(em1 - 2.0 * (em1 + 1.0) * half * half, (em1 + 1.0) * math.sin(z.imag))


def _modular_series(w: complex, t: float) -> complex:
    """t * sum_l (-1)^l p'^(l(l+1)) exp(-w^2/(pi t)) sinh((2l+1) w / t), p' = exp(-pi/t).

    This is theta1(w)/theta1'(0) times the modular derivative sum, after
    Jacobi's imaginary transformation of the nome p = exp(-pi t).  w is
    first reduced to w0 = w - k*pi with Re w0 >= 0 (theta1 is odd and
    antiperiodic under w -> w + pi).  Term l is written as
    -exp(E_l) expm1(-2(2l+1) w0 / t) / 2 with the exponent
    E_l = (w0 - l*pi)((l+1)*pi - w0) / (pi t) taken whole, so neither the
    Gaussian nor sinh overflows on its own, and expm1 keeps full relative
    accuracy next to the zeros.
    """
    k = round(w.real / math.pi)
    w0 = ((w - k * _PI_A) - k * _PI_B) - k * _PI_C
    factor = -0.5 * t if k % 2 == 0 else 0.5 * t
    if w0.real < 0.0:
        w0, factor = -w0, -factor
    pt = math.pi * t
    total = 0.0 + 0.0j
    small = 0
    for l in range(_MAX_TERMS):
        expo = (w0 - l * math.pi) * ((l + 1) * math.pi - w0) / pt
        try:
            term = cmath.exp(expo) * _expm1(-2.0 * (2 * l + 1) * w0 / t)
        except OverflowError:
            raise NonConvergent(f"theta1({w!r}) leaves the binary64 range at t={t!r}") from None
        total += term if l % 2 == 0 else -term
        if abs(term) <= TRUNCATION_RTOL * max(abs(total), 1e-300):
            small += 1
            if small >= 2:
                return factor * total
        else:
            small = 0
    raise NonConvergent(f"modular theta series did not converge for t={t!r}")


def _modular_derivative0(t: float) -> float:
    """sum_{l>=0} (-1)^l (2l+1) p'^(l(l+1)) with p' = exp(-pi/t); within p'^2 of 1."""
    total = 0.0
    for l in range(_MAX_TERMS):
        term = (2 * l + 1) * math.exp(-l * (l + 1) * math.pi / t)
        total += term if l % 2 == 0 else -term
        if term <= TRUNCATION_RTOL * total:
            return total
    raise NonConvergent(f"modular theta derivative series did not converge for t={t!r}")


def _reduced_theta(w: complex, p: float) -> tuple[complex, float]:
    """(A, B) with S(w, p) / S'(0, p) = A / B, both in binary64.

    Below ``MODULAR_CROSSOVER``, A and B are the direct series.  At and
    above it they come from the imaginary transformation with
    t = -ln|p|/pi: A = _modular_series(w, t), B = _modular_derivative0(t).
    There S = c*A and S' = c*B share the modular scale
    c = t^(-3/2) exp(pi (t - 1/t)/4), which cancels in the ratio and is
    never formed, so A/B stays in range after c underflows (|p| > 0.9966).
    """
    if abs(p) < MODULAR_CROSSOVER:
        return _sine_series(w, p), _derivative_series0(p)
    t = -math.log(abs(p)) / math.pi
    return _modular_series(w, t), _modular_derivative0(t)


def qpow(alpha: float, x: float) -> complex:
    """q^x for q = exp(i*alpha), kept on the ray exp(i*alpha*x)."""
    return cmath.exp(1j * alpha * x)


@lru_cache(maxsize=4096)
def g_regularity_margin(alpha: float, g: float, n: int, window: int, jmax: int | None = None) -> float:
    """Distance of the nearest denominator bracket from a zero of [.].

    Denominator arguments downstream are of the form x + j*g with integer
    0 <= x <= window and 1 <= j <= jmax, while the zeros of the bracket sit
    on (2*pi/alpha) * Z.  The returned margin is the minimum distance
    between those two sets.  jmax defaults to n (the full regularity
    condition); recurrence denominators only reach j = n - 1, since the
    combination m + n*g is pinned to a zero by the level lock and occurs in
    numerators and normalizations only.
    """
    period = _TWO_PI / alpha
    worst = math.inf
    top = n if jmax is None else jmax
    for j in range(1, top + 1):
        for x in range(window + 1):
            zv = x + j * g
            dist = abs(zv - period * round(zv / period))
            if dist < worst:
                worst = dist
    return worst


@dataclass(frozen=True)
class ModelParams:
    """Model parameters (n, m, g, p) with the phase scale alpha.

    Level-locked mode ties alpha = 2*pi/(m + n*g), which places the bracket
    zero [m + n*g] = 0 that truncates everything to the level-m cone.  Free
    mode takes alpha directly and requires the coupling to clear the
    genericity gate.  An argument out of range (a nome with |p| >= 1
    included) is a ValueError that names it.  Instances are immutable and
    hashable.
    """

    n: int
    m: int
    g: float
    p: float
    alpha: float
    level_locked: bool = True
    # Not a field: the bracket has one binary64 evaluation path.  The
    # per-layer tracer of the benchmark (perfbench/layertrace.py) reads it.
    precision: ClassVar[str] = "double"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if not abs(self.p) < 1.0:
            raise ValueError(f"nome p={self.p!r} must satisfy |p| < 1")
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g={self.g!r} must be finite")
        if self.level_locked and not self.g > 0:
            raise ValueError("level-locked mode requires g > 0")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha={self.alpha!r} must be finite and positive")
        if self.level_locked and abs(self.alpha * (self.m + self.n * self.g) - _TWO_PI) > 1e-14 * _TWO_PI:
            raise ValueError("alpha is not locked to 2*pi/(m + n*g)")

    @classmethod
    def locked(cls, n: int, m: int, g: float, p: float) -> "ModelParams":
        """Level-locked constructor: alpha = 2*pi/(m + n*g).

        m + n*g > 0 unless n, m or g is out of range; there alpha is NaN, not
        a division by zero, and the validation names the bad argument.
        """
        level = m + n * float(g)
        alpha = _TWO_PI / level if level > 0 else math.nan
        return cls(n, m, float(g), float(p), alpha, True)

    @classmethod
    def free(cls, n: int, g: float, p: float, alpha: float, m: int = 0) -> "ModelParams":
        """Free constructor: explicit alpha, validated, then rejected near coupling resonances."""
        params = cls(n, m, float(g), float(p), float(alpha), False)
        margin = g_regularity_margin(params.alpha, params.g, n, DEFAULT_GATE_WINDOW)
        if margin < GENERICITY_TOL:
            raise GenericityViolation(
                f"coupling g={g} is within {margin:.2e} of a resonance for alpha={alpha}"
            )
        return params

    @property
    def q(self) -> complex:
        """Degeneration parameter q = exp(i*alpha)."""
        return cmath.exp(1j * self.alpha)

    def with_p(self, p: float) -> "ModelParams":
        return dataclasses.replace(self, p=float(p))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def bracket(z, params: ModelParams) -> complex:
    """Scaled theta bracket [z] = theta1(alpha*z/2; p)/((alpha/2) theta1'(0; p)).

    Evaluated from the reduced sums so the branch factor p^(1/4) cancels
    exactly; at p = 0 this equals (2/alpha)*sin(alpha*z/2).  The reduced
    sums depend on p only through p^2, so the brackets at -p are those at p.
    Nothing is cached here: ``coeffs`` keeps one table of the brackets it
    needs per (alpha, g, |p|).
    """
    alpha = params.alpha
    num, den = _reduced_theta(alpha * complex(z) / 2.0, abs(params.p))
    return num / ((alpha / 2.0) * den)


def trig_bracket(z: float, alpha: float) -> float:
    """Trigonometric bracket sin(alpha*z/2)/sin(alpha/2)."""
    den = math.sin(alpha / 2.0)
    if abs(den) < 1e-15:
        raise SingularDenominator(f"sin(alpha/2) vanishes for alpha={alpha!r}")
    return math.sin(alpha * z / 2.0) / den


def trig_factorial(z: float, k: int, alpha: float) -> float:
    """Ascending product of trigonometric brackets [z]_q [z+1]_q ... [z+k-1]_q."""
    if k < 0:
        raise ValueError("factorial length k must be >= 0")
    out = 1.0
    for l in range(k):
        out *= trig_bracket(z + l, alpha)
    return out
