"""Independent limit-endpoint implementations used as ground truth.

Nothing in this module touches the elliptic kernel or the eigenpolynomial
table: Schur polynomials come from semistandard tableau enumeration (and
from the dual determinant identity for expansions over elementary symmetric
polynomials), the trigonometric recurrence weights are direct sine-ratio
products, the sine-form modular matrix is one batched Weyl determinant per
(n, m), and the classical and refined fusion tensors are Verlinde sums over
the sine-form and the trigonometric p = 0 spectra.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import NonIntegral
from .kernel import trig_bracket, trig_factorial
from .partitions import (
    Partition,
    check_partition,
    check_strip,
    enumerate_level,
    level_cone,
    r_index,
    vertical_strips,
    weight,
)

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Schur polynomials

def schur_eval(mu, x) -> complex:
    """Schur polynomial by summing x^weight over semistandard tableaux.

    Rows weakly increase, columns strictly increase, entries range over
    1..len(x).  Exponential in |mu|, which is fine at desk scale.
    """
    mu = check_partition(mu)
    n = len(x)
    shape = [row for row in mu if row > 0]
    if not shape:
        return 1.0 + 0.0j
    if len(shape) > n:
        return 0.0 + 0.0j
    xs = [complex(v) for v in x]
    cells = [(r, c) for r, rowlen in enumerate(shape) for c in range(rowlen)]
    entries: dict[tuple[int, int], int] = {}
    total = 0.0 + 0.0j

    def fill(i: int, prod: complex) -> None:
        nonlocal total
        if i == len(cells):
            total += prod
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, entries[(r, c - 1)])
        if r > 0:
            lo = max(lo, entries[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            entries[(r, c)] = v
            fill(i + 1, prod * xs[v - 1])
        entries.pop((r, c), None)

    fill(0, 1.0 + 0.0j)
    return total


def _conjugate(mu: Partition) -> list[int]:
    if mu[0] == 0:
        return []
    return [sum(1 for row in mu if row >= i) for i in range(1, mu[0] + 1)]


def schur_in_elementary(mu, n: int) -> dict[Partition, int]:
    """Schur polynomial expanded over elementary symmetric polynomials.

    Dual determinant identity: s_mu = det(e_{mu'_i - i + j}) over the
    conjugate shape, expanded over permutations.  A product e_{c_1}...e_{c_l}
    maps to the exponent key kappa with kappa_j = #{i : c_i >= j}.
    """
    mu = check_partition(mu)
    conj = _conjugate(mu)
    ell = len(conj)
    out: dict[Partition, int] = {}
    if ell == 0:
        out[(0,) * n] = 1
        return out
    for sigma in permutations(range(ell)):
        cols = []
        ok = True
        for i in range(ell):
            c = conj[i] - (i + 1) + (sigma[i] + 1)
            if c < 0 or c > n:
                ok = False
                break
            cols.append(c)
        if not ok:
            continue
        sign = 1
        for i in range(ell):
            for j in range(i + 1, ell):
                if sigma[i] > sigma[j]:
                    sign = -sign
        key = tuple(sum(1 for c in cols if c >= j) for j in range(1, n + 1))
        out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# Trigonometric (nome -> 0) endpoints

def macdonald_pieri_p0(lam, nu, alpha: float, g: float) -> float:
    """Trigonometric limit of the strip weight as a product of sine ratios."""
    lam, nu = check_strip(lam, nu)
    theta = tuple(b - a for a, b in zip(lam, nu))
    n = len(lam)
    out = 1.0
    for j in range(n):
        for k in range(j + 1, n):
            if theta[j] - theta[k] != -1:
                continue
            dn = nu[j] - nu[k]
            dl = lam[j] - lam[k]
            out *= trig_bracket(dn + g * (k - j + 1), alpha) / trig_bracket(dn + g * (k - j), alpha)
            out *= trig_bracket(dl + g * (k - j - 1), alpha) / trig_bracket(dl + g * (k - j), alpha)
    return out


def principal_normalization_p0(nu, alpha: float, g: float) -> float:
    """Product form of the principal specialization (reciprocal of the p=0
    normalization coefficient): prod_{j<k} [(k-j+1)g]_{q,d} / [(k-j)g]_{q,d}."""
    nu = check_partition(nu)
    n = len(nu)
    out = 1.0
    for j in range(n):
        for k in range(j + 1, n):
            d = nu[j] - nu[k]
            out *= trig_factorial((k - j + 1) * g, d, alpha) / trig_factorial((k - j) * g, d, alpha)
    return out


# ---------------------------------------------------------------------------
# Trigonometric basis polynomials and their structure coefficients
# (an independent seed for the nome -> 0 comparisons; deliberately separate
# from the elliptic polynomial table)

@lru_cache(maxsize=16)
def _trig_table(n: int, alpha: float, g: float) -> dict:
    """The trigonometric basis table of one (n, alpha, g), filled on demand."""
    return {}


def _trig_polys(mu: Partition, alpha: float, g: float, table: dict) -> dict:
    stack = [mu]
    n = len(mu)
    while stack:
        top = stack[-1]
        if top in table:
            stack.pop()
            continue
        if weight(top) == 0:
            table[top] = {top: 1.0}
            stack.pop()
            continue
        r = r_index(top)
        lam = tuple(x - 1 if i < r else x for i, x in enumerate(top))
        siblings = [nu for nu in vertical_strips(lam, r) if nu != top]
        missing = [dep for dep in [lam, *siblings] if dep not in table]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        col = (1,) * r + (0,) * (n - r)
        acc = {
            tuple(a + b for a, b in zip(key, col)): v for key, v in table[lam].items()
        }
        for nu in siblings:
            w = macdonald_pieri_p0(lam, nu, alpha, g)
            for k, v in table[nu].items():
                acc[k] = acc.get(k, 0.0) - w * v
        acc[top] = 1.0
        table[top] = {k: v for k, v in acc.items() if abs(v) > 1e-13}
    return table[mu]


def macdonald_lr_p0(lam, mu, alpha: float, g: float) -> dict[Partition, float]:
    """Structure coefficients of the trigonometric basis polynomials.

    Multiplies the two expansions and peels greedily against the same
    trigonometric table, kept across calls per (n, alpha, g); independent
    of the elliptic code path.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    table = _trig_table(len(lam), alpha, g)
    P = _trig_polys(lam, alpha, g, table)
    Q = _trig_polys(mu, alpha, g, table)
    work: dict[Partition, float] = {}
    for k1, v1 in P.items():
        for k2, v2 in Q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            work[key] = work.get(key, 0.0) + v1 * v2
    scale = max(abs(v) for v in work.values())
    out: dict[Partition, float] = {}
    while work:
        kappa = max(work)
        c = work.pop(kappa)
        if abs(c) <= 1e-12 * scale:
            continue
        out[kappa] = c
        for k, u in _trig_polys(kappa, alpha, g, table).items():
            if k != kappa:
                work[k] = work.get(k, 0.0) - c * u
    return {k: v for k, v in out.items() if abs(v) > 1e-9 * scale}


# ---------------------------------------------------------------------------
# Classical fusion via the sine-form spectral sum

def kac_peterson_smatrix(n: int, m: int) -> tuple[list[Partition], np.ndarray]:
    """Sine-form modular matrix from the Weyl character formula.

    S_{lam,nu} = q^(-|lam||nu|/n - (n-1)(|lam|+|nu|)/2) * s_lam(q^(nu+rho)) * s_nu(q^rho),
    q = exp(2 pi i / (m+n)), rho = (n-1, ..., 1, 0).  With one batched determinant
    A[lam, nu] = det_ij q^((lam+rho)_i (nu+rho)_j), s_lam(q^(nu+rho)) = A[lam, nu] / A[0, nu]
    (Kac & Peterson, Adv. Math. 53 (1984)); A is symmetric, so S = prefactor * A / A[0, 0].
    """
    labels = enumerate_level(n, m)
    alpha = _TWO_PI / (m + n)
    parts = np.array(labels, dtype=np.int64)
    shifted = parts + np.arange(n - 1, -1, -1)
    # Integer exponents, reduced mod m+n: every entry is a root of unity at full accuracy.
    exponents = shifted[:, None, :, None] * shifted[None, :, None, :] % (m + n)
    A = np.linalg.det(np.exp(1j * alpha * exponents))
    w = parts.sum(axis=1)
    pref = np.exp(1j * alpha * (-np.outer(w, w) / n - (n - 1) * (w[:, None] + w[None, :]) / 2.0))
    return labels, pref * A / A[0, 0]


def _verlinde_rows(V: np.ndarray):
    """Rows N[lam] = (V[lam] * V) @ inv(V) of the Verlinde tensor, one lam at a time.

    V[kappa, nu] is basis element kappa at spectral point nu, so P_lam P_mu =
    sum_kappa N[lam, mu, kappa] P_kappa on the spectrum.
    """
    Vinv = np.linalg.inv(V)
    for row in V:
        yield (row * V) @ Vinv


@lru_cache(maxsize=4)
def _classical_transform(n: int, m: int):
    """(labels, S, N) of the sine-form matrix, built once per (n, m); read-only.

    N = rint of the Verlinde rows of V = S / S[0], and an entry more than 1e-6 from its
    integer raises NonIntegral.  N is N^3 floats (36 MB at N = 165): few are kept.
    """
    labels, S = kac_peterson_smatrix(n, m)
    table = np.empty((len(labels),) * 3)
    for i, (lam, raw) in enumerate(zip(labels, _verlinde_rows(S / S[0]))):
        table[i] = np.rint(raw.real)
        off = np.abs(raw - table[i])
        if not off.max() <= 1e-6:  # NaN fails too
            j, k = np.unravel_index(off.argmax(), off.shape)
            raise NonIntegral(f"value {complex(raw[j, k])} for {labels[k]} in {lam} x {labels[j]} is not integral")
    S.flags.writeable = table.flags.writeable = False
    return labels, S, table


def classical_fusion(lam, mu, n: int, m: int) -> dict[Partition, int]:
    """Classical level-m fusion coefficients: one pair's row of the classical tensor.

    The tensor comes from the sine-form spectral sum, rounded to the nearest
    integer; a rounding residue above 1e-6 anywhere raises NonIntegral, and a
    factor off the (n, m) cone raises ValueError.
    """
    labels, _, table = _classical_transform(n, m)
    index = level_cone(n, m).index
    try:
        row = table[index[check_partition(lam)], index[check_partition(mu)]]
    except KeyError as err:
        raise ValueError(f"factor {err.args[0]} is not a label of the level cone n={n} m={m}") from None
    return {labels[k]: int(v) for k, v in enumerate(row.tolist()) if v}


def refined_tensor(n: int, m: int, g: float) -> tuple[list[Partition], np.ndarray]:
    """Labels and the refined level-m fusion tensor at p = 0, built on every call into one array.

    The real part of the Verlinde rows of V[kappa, nu] = P^trig_kappa(e_nu) (Aganagic &
    Shakirov, arXiv:1105.5117) at the closed-form points e_{r,nu} = e_r(q^(nu_j + (n-1-j)g
    - |nu|/n - (n-1)g/2)), q = exp(2 pi i/(m + n g)), and e_n = 1.
    """
    labels = enumerate_level(n, m)
    alpha = _TWO_PI / (m + n * g)
    parts = np.array(labels)
    shift = parts.sum(axis=1, keepdims=True) / n + (n - 1) * g / 2.0
    # np.poly(-x)[r] = e_r(x); a key kappa is the monomial prod_{j<n} e_j^(kappa_j - kappa_{j+1})
    e = np.array([np.poly(-x)[1:n] for x in np.exp(1j * alpha * (parts + g * np.arange(n - 1, -1, -1) - shift))])
    table: dict = {}
    polys = [_trig_polys(kappa, alpha, g, table) for kappa in labels]
    V = np.array([np.fromiter(P.values(), float) @ np.prod(e ** -np.diff(list(P))[:, None], axis=2) for P in polys])
    return labels, np.fromiter((row.real for row in _verlinde_rows(V)), np.dtype((float, V.shape)), len(V))


# ---------------------------------------------------------------------------
# Report plumbing

@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle comparison."""

    comparison: str
    max_abs: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)
