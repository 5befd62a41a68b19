"""Eigenpolynomial construction via the vertical-strip recurrence.

Polynomials live in the monomial basis e_kappa = prod_j e_j^(kappa_j -
kappa_{j+1}) (kappa_{n+1} = 0); exponent keys are stored as the partition
kappa itself.  A built P_mu is unitriangular in the dominance order: its
leading coefficient at mu is exactly 1 and every other key is strictly
dominated by mu, with all keys sharing the weight |mu|.

The recurrence is resolved iteratively over the dependency cone ordered by
the (span, leading-run) induction, so recursion depth never grows with the
weight.  Built polynomials and strata are kept in the bracket table of
their parameters (``coeffs``), which is bounded: an evicted table takes its
polynomials with it, and a later request rebuilds the same bits.

Every key of P_kappa is dominated by kappa, so it has the same weight, a
first part <= kappa_1 and a last part >= kappa_n.  The partitions of weight
w with first part <= M and last part >= L therefore span a subspace that the
basis maps into itself: a stratum.  Its matrix U, whose row kappa holds the
coefficients of P_kappa, is unit lower-triangular in the ascending
lexicographic order of the keys.  ``stratum`` returns the keys with the
inverse U^-1, which is unit lower-triangular too and is built row by row:
a row of U^-1 depends only on the rows before it, so a stratum grows by
appending rows.
"""

from __future__ import annotations

import numpy as np

from .errors import GenericityViolation
from .kernel import GENERICITY_TOL, ModelParams, g_regularity_margin, realify
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

    def __init__(self, n: int, coeffs: dict[Partition, float] | None = None, prune: bool = True):
        self.n = n
        self.coeffs: dict[Partition, float] = dict(coeffs or {})
        self._arrays = None
        if prune:
            self.prune()

    @classmethod
    def one(cls, n: int) -> "PolynomialInE":
        return cls(n, {zero(n): 1.0}, prune=False)

    def prune(self) -> None:
        """Drop coefficients below PRUNE_REL relative to the largest one."""
        if not self.coeffs:
            return
        cut = PRUNE_REL * max(abs(v) for v in self.coeffs.values())
        self.coeffs = {k: v for k, v in self.coeffs.items() if abs(v) > cut}
        self._arrays = None

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
    """Admission gate of a request for P_mu: its length, then the coupling.

    The polynomials are stored per bracket table, which is shared across m,
    ``level_locked`` and the sign of p, so the gate runs on every request.
    """
    if len(mu) != params.n:
        raise ValueError(f"partition length {len(mu)} does not match n={params.n}")
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
    return _build_P(check_partition(mu), params)


def _build_P(mu: Partition, params: ModelParams) -> PolynomialInE:
    """``build_P`` of a partition tuple that is already validated."""
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
            w = realify(coeffs.psi_prime(lam, nu, params))
            for k, v in polys[nu].items():
                acc[k] = acc.get(k, 0.0) - w * v
        acc[top] = 1.0  # unit leading coefficient, set rather than computed
        poly = PolynomialInE(params.n, acc)
        wt = weight(top)
        if any(weight(k) != wt for k in poly.coeffs):
            raise AssertionError(f"inhomogeneous expansion for {top}")
        polys[top] = poly

    return polys[mu]


def encode_keys(key_array: np.ndarray, w: int) -> np.ndarray:
    """Keys of weight <= w as base-(w+1) integers.

    The code order is the lexicographic order of the keys, and a sum of keys
    whose weight stays <= w encodes to the sum of their codes.
    """
    n = key_array.shape[-1]
    return key_array @ (w + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)


class Stratum:
    """The keys of weight w, first part <= bound, last part >= L, with their basis.

    ``keys`` are in ascending lexicographic order, ``key_array`` holds them
    as rows and ``codes`` as ``encode_keys(key_array, w)``.  The matrix U
    whose row i is P_{keys[i]} in the monomial basis is unit lower-triangular,
    so F = sum_i a_i P_{keys[i]} has monomial coefficients f = U^T a, and
    a = f @ ``inverse``, where ``inverse`` is the dense unit lower-triangular
    U^-1.  Its leading k x k block is the inverse of the leading block of U.
    """

    __slots__ = ("w", "bound", "keys", "key_array", "codes", "inverse")

    def __init__(
        self,
        w: int,
        bound: int,
        keys: list[Partition],
        key_array: np.ndarray,
        codes: np.ndarray,
        inverse: np.ndarray,
    ):
        self.w = w
        self.bound = bound
        self.keys = keys
        self.key_array = key_array
        self.codes = codes
        self.inverse = inverse

    def block(self, M: int) -> "Stratum":
        """The sub-stratum of first part <= M <= bound: a leading block, sliced without a copy."""
        if M >= self.bound:
            return self
        n = self.key_array.shape[1]
        k = int(np.searchsorted(self.codes, (M + 1) * (self.w + 1) ** (n - 1)))
        return Stratum(self.w, M, self.keys[:k], self.key_array[:k], self.codes[:k], self.inverse[:k, :k])


def stratum(params: ModelParams, w: int, M: int, L: int = 0) -> Stratum:
    """The basis stratum of weight w, first part <= M, last part >= L.

    Built once per (n, w, L) in the store of params' bracket table for the
    largest M requested so far.  A larger M grows it: the keys with larger
    first parts come last, so the rows of U^-1 built so far are kept and the
    new rows appended.  A smaller M takes a leading block, so the entries do
    not depend on the order of requests.
    """
    M = min(M, w - (params.n - 1) * L)  # the largest first part the stratum can hold
    if not _admits(params, w, M - L):
        _check_stratum(params, w, M, L)
    return _stratum(params, coeffs._table(params), w, M, L)


def _stratum_keys(n: int, w: int, M: int, L: int) -> list[Partition]:
    """The keys of the stratum (w, M, L), in ascending lexicographic order."""
    if (w + 1) ** n > np.iinfo(np.int64).max:
        raise ValueError(f"weight {w} is too large for int64 key codes at n={n}")
    keys = partitions_of_weight(n, w - n * L, max_part=M - L) if M >= L else []
    return [tuple(x + L for x in k) for k in reversed(keys)]


def _check_stratum(params: ModelParams, w: int, M: int, L: int, heads=()) -> None:
    """``_check_buildable`` for each of heads, then for every key of the stratum (w, M, L).

    Callers first try ``_admits(params, w, M - L)``: it admits every key and
    every head of a product in the stratum at once, since all have weight
    <= w and span <= M - L.
    """
    for mu in heads:
        _check_buildable(mu, params)
    for kappa in _stratum_keys(params.n, w, M, L):
        _check_buildable(kappa, params)


def _stratum(params: ModelParams, store: "coeffs.BracketTable", w: int, M: int, L: int) -> Stratum:
    """``stratum`` from store, params' bracket table, with M clamped and admitted."""
    n = params.n
    table = store.strata.get((n, w, L))
    if table is not None and table.bound >= M:
        return table.block(M)

    keys = _stratum_keys(n, w, M, L)
    key_array = np.array(keys, dtype=np.int64).reshape(len(keys), n)
    N = len(keys)
    inverse = np.zeros((N, N))
    done = 0
    if table is not None:
        done = len(table.keys)
        inverse[:done, :done] = table.inverse
    index = {k: i for i, k in enumerate(keys)}
    for i in range(done, N):
        row = np.zeros(i)  # U[i, :i], the coefficients of P_{keys[i]} below its head
        for k, v in _poly(keys[i], params, store.polys).items():
            j = index.get(k, N)
            if j > i:
                raise AssertionError(f"P_{keys[i]} leaves its stratum at {k}")
            if j < i:
                row[j] = v
        # Row i of U U^-1 = I: U[i, :i] U^-1[:i, :i] + U^-1[i, :i] = 0.
        inverse[i, :i] = -(row @ inverse[:i, :i])
        inverse[i, i] = 1.0
    table = Stratum(w, M, keys, key_array, encode_keys(key_array, w), inverse)
    store.strata[(n, w, L)] = table
    return table


def evaluate(P: PolynomialInE, e) -> complex:
    """Evaluate at a point e = (e_1, ..., e_n); powers are memoized per call."""
    if len(e) != P.n:
        raise ValueError(f"evaluation point has length {len(e)}, expected {P.n}")
    ev = [complex(x) for x in e]
    powers: dict[tuple[int, int], complex] = {}

    def pw(j: int, k: int) -> complex:
        if k == 0:
            return 1.0 + 0.0j
        got = powers.get((j, k))
        if got is None:
            got = ev[j] ** k
            powers[(j, k)] = got
        return got

    n = P.n
    total = 0.0 + 0.0j
    for kappa, u in P.items():
        term = complex(u)
        for j in range(n):
            exp = kappa[j] - (kappa[j + 1] if j + 1 < n else 0)
            if exp:
                term *= pw(j, exp)
        total += term
    return total


def evaluation_scale(P: PolynomialInE, e) -> float:
    """Conditioning scale: the same sum with every factor in absolute value."""
    ev = [abs(complex(x)) for x in e]
    n = P.n
    total = 0.0
    for kappa, u in P.items():
        term = abs(u)
        for j in range(n):
            exp = kappa[j] - (kappa[j + 1] if j + 1 < n else 0)
            if exp:
                term *= ev[j] ** exp
        total += term
    return max(total, 1.0)


def normalized_p(mu, e, params: ModelParams) -> complex:
    """Normalized lattice value c_mu * P_mu(e)."""
    mu = check_partition(mu)
    c = realify(coeffs.c_norm(mu, params))
    return c * evaluate(_build_P(mu, params), e)


def elementary_symmetric(x) -> list[complex]:
    """Elementary symmetric polynomials e_1..e_n of the sequence x."""
    es = [1.0 + 0.0j]
    for xv in x:
        xv = complex(xv)
        es = [es[0]] + [es[i] + xv * es[i - 1] for i in range(1, len(es))] + [xv * es[-1]]
    return es[1:]


def evaluate_R(mu, x, params: ModelParams) -> complex:
    """Symmetric-polynomial embedding: P_mu evaluated at e_r = e_r(x)."""
    mu = check_partition(mu)
    if len(x) != params.n:
        raise ValueError(f"point has {len(x)} variables, expected n={params.n}")
    return evaluate(_build_P(mu, params), elementary_symmetric(x))
