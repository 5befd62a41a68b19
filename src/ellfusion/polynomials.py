"""Eigenpolynomial construction via the vertical-strip recurrence.

Polynomials live in the monomial basis e_kappa = prod_j e_j^(kappa_j -
kappa_{j+1}) (kappa_{n+1} = 0); exponent keys are stored as the partition
kappa itself.  A built P_mu is unitriangular in the dominance order: its
leading coefficient at mu is exactly 1 and every other key is strictly
dominated by mu, with all keys sharing the weight |mu|.

The recurrence is resolved iteratively over the dependency cone ordered by
the (span, leading-run) induction, so recursion depth never grows with the
weight.  Built polynomials are kept in the bracket table of their
parameters (``coeffs``), which is bounded: an evicted table takes its
polynomials with it, and a later request rebuilds the same bits.

Every key of P_kappa is dominated by kappa, so it has the same weight, a
first part <= kappa_1 and a last part >= kappa_n.  The partitions of weight
w with first part <= M and last part >= L therefore span a subspace that the
basis maps into itself; ``basis_keys`` lists them, in the ascending
lexicographic order in which the basis is unit lower-triangular, after the
admission gate.

Polynomials are evaluated in one place, ``evaluate_batch``: many
polynomials at many points as one coefficient-by-monomial matrix product,
with the absolute-value sums that scale its errors.  ``evaluate`` is its
one-point call.
"""

from __future__ import annotations

import numpy as np

from .errors import GenericityViolation
from .kernel import GENERICITY_TOL, ModelParams, g_regularity_margin
from .partitions import (
    Partition,
    check_partition,
    column,
    partitions_of_weight,
    r_index,
    span,
    vertical_strips,
    weight,
    zero,
)
from . import coeffs

PRUNE_REL = 1e-13


class PolynomialInE:
    """Sparse real-coefficient polynomial keyed by partition exponents."""

    __slots__ = ("n", "coeffs", "_arrays")

    def __init__(self, n: int, coeffs: dict[Partition, float] | None = None):
        """Keep the coefficients above PRUNE_REL relative to the largest one."""
        self.n = n
        coeffs = coeffs or {}
        cut = PRUNE_REL * max(map(abs, coeffs.values()), default=0.0)
        self.coeffs: dict[Partition, float] = {k: v for k, v in coeffs.items() if abs(v) > cut}
        self._arrays = None

    @classmethod
    def one(cls, n: int) -> "PolynomialInE":
        return cls(n, {zero(n): 1.0})

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys as an int64 (terms, n) array and the matching coefficients.

        Built on first use and kept; the coefficients must not be mutated
        afterwards.
        """
        if self._arrays is None:
            keys = np.array(list(self.coeffs), dtype=np.int64).reshape(len(self.coeffs), self.n)
            vals = np.fromiter(self.coeffs.values(), dtype=float, count=len(self.coeffs))
            self._arrays = (keys, vals)
        return self._arrays

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def items(self):
        return self.coeffs.items()

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover
        body = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self.coeffs.items()))
        return f"PolynomialInE(n={self.n}, {{{body}}})"


def _admits(params: ModelParams, w: int, top: int) -> bool:
    """Whether params admits every P of weight <= w and span <= top.

    Level-locked spans up to m+1 always are; otherwise the coupling must be
    generic.  The recurrence only divides by brackets at x + j*g with
    j <= n - 1, so the margin is probed on that range.
    """
    if params.level_locked and top <= params.m + 1:
        return True
    return g_regularity_margin(params.alpha, params.g, params.n, max(w, 1), params.n - 1) >= GENERICITY_TOL


def _check_buildable(mu: Partition, params: ModelParams) -> None:
    """Admission gate of a request for P_mu, a partition of length n: the coupling.

    The polynomials are stored per bracket table, which is shared across m,
    ``level_locked`` and the sign of p, so the gate runs on every request.
    """
    if not _admits(params, weight(mu), span(mu)):
        raise GenericityViolation(
            f"cannot build P_{mu}: coupling g={params.g} is resonant for this span "
            f"(level_locked={params.level_locked}, span={span(mu)}, m={params.m})"
        )


def _shift_by_column(poly: PolynomialInE, r: int) -> dict[Partition, float]:
    """Multiply by the monomial e_r, i.e. add the column 1^r to every key."""
    col = column(poly.n, r)
    return {tuple(a + b for a, b in zip(key, col)): v for key, v in poly.items()}


def build_P(mu, params: ModelParams) -> PolynomialInE:
    """Eigenpolynomial P_mu from the strip recurrence, memoized per bracket table.

    P_0 = 1 and, for mu != 0 with r the leading-run index and lam = mu - 1^r,

        P_mu = e_r * P_lam - sum_{nu strips of lam, nu != mu} psi'_{nu/lam} P_nu.

    The dependency cone is resolved with an explicit worklist.
    """
    mu = check_partition(mu, params.n)
    _check_buildable(mu, params)
    return _poly(mu, params, coeffs._table(params).polys)


def _poly(mu: Partition, params: ModelParams, polys: dict) -> PolynomialInE:
    """P_mu from polys, the store of params' bracket table, built there if missing.

    mu must have passed ``_check_buildable``; so then has every polynomial
    of its dependency cone, whose spans and weights are at most those of mu.
    """
    got = polys.get(mu)
    if got is not None:
        return got
    stack = [mu]
    while stack:
        top = stack[-1]
        if top in polys:
            stack.pop()
            continue
        if weight(top) == 0:
            polys[top] = PolynomialInE.one(params.n)
            stack.pop()
            continue
        r = r_index(top)
        lam = tuple(x - 1 if i < r else x for i, x in enumerate(top))
        siblings = [nu for nu in vertical_strips(lam, r) if nu != top]
        missing = [dep for dep in [lam, *siblings] if dep not in polys]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()

        acc = _shift_by_column(polys[lam], r)
        for nu in siblings:
            w = coeffs._psi(lam, nu, params)
            for k, v in polys[nu].items():
                acc[k] = acc.get(k, 0.0) - w * v
        acc[top] = 1.0  # unit leading coefficient, set rather than computed
        poly = PolynomialInE(params.n, acc)
        wt = weight(top)
        if any(weight(k) != wt for k in poly.coeffs):
            raise AssertionError(f"inhomogeneous expansion for {top}")
        polys[top] = poly

    return polys[mu]


def basis_keys(params: ModelParams, w: int, M: int, L: int = 0, heads=()) -> list[Partition]:
    """The keys of weight w, first part <= M and last part >= L, in ascending lexicographic order.

    Every key of P_kappa is dominated by kappa, so these keys span a subspace
    that the basis maps into itself.  M is first clamped to the largest first
    part such a key can have.  The admission gate runs on heads (the factors
    of a product in this subspace) and on every key: ``_admits`` clears them
    all at once, since all have weight <= w and span <= M - L; otherwise
    each goes through ``_check_buildable``, which names the first bad one.
    """
    n = params.n
    M = min(M, w - (n - 1) * L)
    keys = partitions_of_weight(n, w - n * L, max_part=M - L) if M >= L else []
    keys = [tuple(x + L for x in k) for k in reversed(keys)]
    if not _admits(params, w, M - L):
        for mu in (*heads, *keys):
            _check_buildable(mu, params)
    return keys


def evaluate_batch(polys, points) -> tuple[np.ndarray, np.ndarray]:
    """Values P(e) and conditioning scales of every P of the list polys at every point.

    Both arrays have shape (len(polys), len(points)).  The terms of all the
    polynomials are taken apart into their e-exponents kappa_j - kappa_{j+1},
    the distinct monomials are formed once from one power table per e_j,
    and with C[poly, monomial] the coefficients, values = C @ M.  The scale
    is the same sum with every factor in absolute value, max(|C| @ |M|, 1).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or any(P.n != pts.shape[1] for P in polys):
        raise ValueError(f"points of shape {pts.shape} for polynomials in n={sorted({P.n for P in polys})}")
    keys, vals = (np.concatenate(part) for part in zip(*(P.arrays() for P in polys)))
    monos, col = np.unique(-np.diff(keys, axis=1, append=0), axis=0, return_inverse=True)
    M = np.ones((len(monos), len(pts)), dtype=complex)
    for j, e in enumerate(pts.T):
        M *= (e ** np.arange(monos[:, j].max(initial=0) + 1)[:, None])[monos[:, j]]
    C = np.zeros((len(polys), len(monos)))
    C[np.repeat(np.arange(len(polys)), [len(P) for P in polys]), col.ravel()] = vals
    return C @ M, np.maximum(np.abs(C) @ np.abs(M), 1.0)


def evaluate(P: PolynomialInE, e) -> complex:
    """P at one point e = (e_1, ..., e_n)."""
    return complex(evaluate_batch([P], [e])[0][0, 0])


def normalized_p(mu, e, params: ModelParams) -> complex:
    """Normalized lattice value c_mu * P_mu(e)."""
    c = coeffs.c_norm(mu, params)
    return c * evaluate(build_P(mu, params), e)


def elementary_symmetric(x) -> list[complex]:
    """Elementary symmetric polynomials e_1..e_n of the sequence x."""
    es = [1.0 + 0.0j]
    for xv in x:
        xv = complex(xv)
        es = [es[0]] + [es[i] + xv * es[i - 1] for i in range(1, len(es))] + [xv * es[-1]]
    return es[1:]


def evaluate_R(mu, x, params: ModelParams) -> complex:
    """Symmetric-polynomial embedding: P_mu evaluated at e_r = e_r(x)."""
    if len(x) != params.n:
        raise ValueError(f"point has {len(x)} variables, expected n={params.n}")
    return evaluate(build_P(mu, params), elementary_symmetric(x))
