"""Closed-form coefficient evaluators for the discrete difference operators.

Four product formulas drive everything downstream: the hopping weights
B_{nu/lam}, the recurrence/Pieri weights psi'_{nu/lam}, the normalization
c_mu, and the orthogonality weights Delta_lam.  Every factor of all four is
a ratio of theta brackets [a + b*g] with integers 0 <= a <= span(lam) and
0 <= b <= n.  One bracket table per (alpha, g, |p|) holds those
brackets, filled by the scalar ``bracket`` and grown on demand, together
with the factor table derived from it, as numpy arrays only; the brackets
depend on the nome only through |p|, so -p reads the table of p.  The table
also keeps the eigenpolynomials built at its parameters and, in one map read
through ``_kept``, the ring-route tables of ``fusion`` and the finished joint
spectra of ``operators``, one per |p| and seed, with the transforms built
from them, so its LRU bounds all that is kept per parameter set.  A coefficient is a
product of factor cells taken in order: the scalar functions multiply the
cells of one strip or label, and ``level_hops``, ``level_psi``,
``level_delta`` and ``level_c`` gather the cells of a whole level cone from
the same array, so both give the same bits (a test pins this).  The
coupling, the nome and the phase scale are real, so every bracket [a + b*g]
and every coefficient is a float.

Denominator brackets below ``SINGULAR_TOL`` in magnitude make their factor
NaN, and the table records which bracket vanished there, so a NaN product
raises :class:`SingularDenominator` naming it, through the scalar and the
gathered paths alike; zeros appearing in numerators are genuine (boundary)
zeros and pass through.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import SingularDenominator
from .kernel import SINGULAR_TOL, ModelParams, bracket
from .partitions import Partition, _read_only, check_partition, check_strip, level_cone

# One nome_sweep pass (n=4 m=4, p = +-0.3, +-0.6, +-0.9) visits 26 distinct
# |p| along its homotopy paths, rejected steps included (the -p legs read the
# spectra kept at p); the bound leaves room for several such sweeps.
TABLE_LIMIT = 256


# Layers of the factor table, see ``BracketTable``: the hopping factor with
# increment difference t is layer t + 1.
_C, _HEAD, _TAIL = 3, 4, 5


class BracketTable:
    """Brackets [a + b*g] for 0 <= a < rows, 0 <= b < cols at one parameter set.

    ``values[a, b]`` is ``bracket(a + b*g, params)``; both arrays are
    float64.  Every factor of the four coefficient families is a cell
    ``factors[layer, a, s]`` with the pair distance
    1 <= s <= cols-2; a product of cells taken in order is the coefficient,
    so the scalar functions and the gathers over a level cone read the same
    array and give the same bits.  The layers are

    * 0, 1, 2: [a + (s+t)g] / [a + sg] with t = layer - 1 in {-1, 0, 1}: the
      hopping factor of a pair at distance a whose strip increments differ
      by t, and the two psi' factors (t = 1 at a - 1, t = -1 at a);
    * 3: prod_{l<a} [l + sg] / [l + (s+1)g], the c factor;
    * 4 and 5: [a + sg] / [sg] and prod_{l<a} [l + (s+1)g] / [l + 1 + (s-1)g],
      the head and tail of the Delta factor.

    A cell with a denominator below ``SINGULAR_TOL`` (in layers 3 and 5, any
    of its running product's) holds NaN, and ``vanished`` holds there the
    argument a + b*g of that bracket (of the first, in a running product),
    NaN elsewhere, so the reader of a NaN product can name it.  The arrays
    are read-only and replaced, not written, when the table grows.

    ``polys`` (mu -> P_mu) is filled by ``polynomials``, and ``kept`` through
    ``_kept``: ("ring", n, m) -> the read-only ring-route table
    [lam, mu, kappa] and ("pairs", n, m) -> its sparse index for pair calls,
    by ``fusion``; ("spectrum", n, m, seed) -> the finished ``SpectrumResult``
    at |p|, by ``operators``.  All are level-locked only and returned at p
    and at -p.
    The recurrence weights and the truncated matrices are products of these
    brackets, so all of these depend on the parameters only through this
    table's key and their own keys; evicting the table frees them.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.values = np.empty((0, 0))
        self.polys: dict = {}
        self.kept: dict = {}

    def grow(self, rows: int, cols: int) -> None:
        """Extend to at least rows x cols, evaluating only the new brackets."""
        R, K = self.values.shape
        rows, cols = max(rows, R), max(cols, K)
        g, params = self.params.g, self.params
        B = self.values.tolist()
        for a, row in enumerate(B):
            row.extend(bracket(a + b * g, params) for b in range(K, cols))
        B += [[bracket(a + b * g, params) for b in range(cols)] for a in range(R, rows)]
        values = np.array(B, dtype=float).reshape(rows, cols)
        self._derive(values)
        # Published last: a reader that sees the grown shape reads the grown factors.
        self.values = values

    def _derive(self, V: np.ndarray) -> None:
        """Set ``factors`` and ``vanished`` from the bracket array V, made read-only."""
        g = self.params.g
        R, K = V.shape

        def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
            return np.where(np.abs(den) < SINGULAR_TOL, np.nan, num / den)

        def running(terms: np.ndarray) -> np.ndarray:
            """Row a holds the product of the rows l < a of terms, from 1 (row 0)."""
            return np.cumprod(np.concatenate([np.ones((1, terms.shape[1])), terms]), axis=0)[:R]

        mid = V[:, 1:-1]  # [a + sg] at the pair distances s = 1, ..., K-2
        factors = np.full((6, R, K), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):  # quotients by a vanished bracket become NaN
            factors[0, :, 1:-1] = ratio(V[:, :-2], mid)
            factors[1, :, 1:-1] = ratio(mid, mid)
            factors[2, :, 1:-1] = ratio(V[:, 2:], mid)
            factors[_C, :, 1:-1] = running(ratio(mid, V[:, 2:]))
            factors[_HEAD, :, 1:-1] = ratio(mid, V[:1, 1:-1])
            factors[_TAIL, :, 1:-1] = running(ratio(V[:-1, 2:], V[1:, :-2]))

        # The argument a + b*g of each vanished denominator.  A running product
        # (layers 3 and 5) records its first, which is also its least: its
        # denominators [l + b*g] run up l = 0, 1, ... in one column b.
        zero = np.where(np.abs(V) < SINGULAR_TOL, np.arange(R)[:, None] + np.arange(K) * g, np.nan)
        none = np.full((1, K), np.nan)
        c_zero = np.fmin.accumulate(np.vstack([none, zero[:-1]]), axis=0)  # least over l < a
        tail_zero = np.fmin.accumulate(np.vstack([none, zero[1:]]), axis=0)  # least over 1 <= l <= a
        vanished = np.full((6, R, K), np.nan)
        vanished[:3, :, 1:-1] = zero[:, 1:-1]
        vanished[_C, :, 1:-1] = c_zero[:, 2:]
        vanished[_HEAD, :, 1:-1] = zero[:1, 1:-1]  # row 0, also for a table of no rows
        vanished[_TAIL, :, 1:-1] = tail_zero[:, :-2]
        _read_only(V, factors, vanished)
        self.factors, self.vanished = factors, vanished


def _raise_vanished(arguments) -> None:
    """Raise for the first recorded vanished bracket argument, if any."""
    for z in arguments:
        if z == z:
            raise SingularDenominator(f"bracket [{z}] vanished (|.| < {SINGULAR_TOL})")


_TABLES: OrderedDict[tuple, BracketTable] = OrderedDict()
# Taken to create, evict or grow a table, never to read one: a hit is one
# ``get`` and one ``move_to_end``, each atomic, and ``grow`` publishes
# ``values`` after the arrays derived from it, so a reader that sees a shape
# reads factors at least that large.
_TABLES_LOCK = threading.Lock()


def _table(params: ModelParams, rows: int = 0, cols: int = 0) -> BracketTable:
    """The bracket table of params, grown to at least rows x cols (bounded LRU)."""
    key = (params.alpha, params.g, abs(params.p))
    table = _TABLES.get(key)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.get(key)
            if table is None:
                table = _TABLES[key] = BracketTable(params)
                if len(_TABLES) > TABLE_LIMIT:
                    _TABLES.popitem(last=False)
    else:
        try:
            _TABLES.move_to_end(key)
        except KeyError:  # evicted by another thread since the get; the table is still whole
            pass
    R, K = table.values.shape
    if rows > R or cols > K:
        with _TABLES_LOCK:
            table.grow(rows, cols)
    return table


def _kept(params: ModelParams, key: tuple, build):
    """The value kept under key on the bracket table of params, build() on a miss."""
    value = _table(params).kept.get(key)
    if value is None:
        value = build()
        _table(params).kept[key] = value  # looked up again: the build may have evicted it
    return value


def bracket_table(params: ModelParams, rows: int, cols: int) -> np.ndarray:
    """Read-only view of [a + b*g] for 0 <= a < rows, 0 <= b < cols."""
    return _table(params, rows, cols).values[:rows, :cols]


def _product(table: BracketTable, cells: list[tuple[int, int, int]]) -> float:
    """Product of the factor cells (layer, a, s), in order, from 1; raises if a cell vanished."""
    factors = table.factors
    out = 1.0
    for cell in cells:
        out *= factors.item(cell)
    if out != out:
        _raise_vanished([table.vanished.item(cell) for cell in cells])
    return out


def _hop(lam: Partition, nu: Partition, params: ModelParams) -> float:
    """``hop_B`` of a strip that passed ``check_strip``: the product of its cells."""
    n = params.n
    theta = [b - a for a, b in zip(lam, nu)]
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    return _product(table, [(theta[j] - theta[k] + 1, lam[j] - lam[k], k - j) for j, k in combinations(range(n), 2)])


def hop_B(lam: Partition, nu: Partition, params: ModelParams) -> float:
    """Hopping weight of the discrete difference operator for the move lam -> nu.

    Product over all pairs j < k of
    [lam_j - lam_k + g(k - j + theta_j - theta_k)] / [lam_j - lam_k + g(k - j)].
    """
    return _hop(*check_strip(lam, nu, params.n), params)


def _psi(lam: Partition, nu: Partition, params: ModelParams) -> float:
    """``psi_prime`` of a strip that passed ``check_strip``: the product of its cells."""
    n = params.n
    theta = [b - a for a, b in zip(lam, nu)]
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    cells = []
    for j, k in combinations(range(n), 2):
        if theta[k] - theta[j] == 1:
            d = lam[j] - lam[k]  # >= 1, and nu_j - nu_k = d - 1
            cells += [(2, d - 1, k - j), (0, d, k - j)]
    return _product(table, cells)


def psi_prime(lam: Partition, nu: Partition, params: ModelParams) -> float:
    """Recurrence/Pieri weight for the strip nu over lam.

    Product over pairs j < k with theta_j - theta_k = -1 of
    [nu_j-nu_k+g(k-j+1)]/[nu_j-nu_k+g(k-j)] *
    [lam_j-lam_k+g(k-j-1)]/[lam_j-lam_k+g(k-j)].
    """
    return _psi(*check_strip(lam, nu, params.n), params)


def c_norm(mu: Partition, params: ModelParams) -> float:
    """Normalization coefficient: product of elliptic-factorial ratios.

    Product over pairs j < k, with d = mu_j - mu_k and s = k - j, of
    prod_{l<d} [l + sg] / [l + (s+1)g].  Positive for mu in the level cone
    when g > 0 in level-locked mode.
    """
    n = params.n
    mu = check_partition(mu, n)
    table = _table(params, mu[0] - mu[-1] + 1, n + 1)
    return _product(table, [(_C, mu[j] - mu[k], k - j) for j, k in combinations(range(n), 2)])


def delta_weight(lam: Partition, params: ModelParams) -> float:
    """Orthogonality weight of the inner product on the level cone.

    Product over pairs j < k, with d = lam_j - lam_k and s = k - j, of
    [d + sg]/[sg] * prod_{l<d} [l + (s+1)g] / [l + 1 + (s-1)g].
    """
    n = params.n
    lam = check_partition(lam, n)
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    cells = [(layer, lam[j] - lam[k], k - j) for j, k in combinations(range(n), 2) for layer in (_HEAD, _TAIL)]
    return _product(table, cells)


# -- whole level cones as gathers -------------------------------------------


@lru_cache(maxsize=64)
def _hop_cells(n: int, m: int, r: int) -> tuple[np.ndarray, ...]:
    """The cells (t, d, s) of ``level_cone(n, m).strips(r)``: hop layer t = theta_j - theta_k + 1, d of lam."""
    cone = level_cone(n, m)
    rows, _, diff = cone.strips(r)
    return (*_read_only(diff + 1, cone.d[rows]), cone.s)


def _gather(params: ModelParams, cells: tuple, where=True) -> np.ndarray:
    """Products over the last axis of the factor cells (layer, a, s), as ``_product`` takes them."""
    table = _table(params, params.m + 1, params.n + 1)
    vals = table.factors[cells].prod(axis=-1, where=where)
    bad = np.isnan(vals)
    if bad.any():
        _raise_vanished(np.where(where, table.vanished[cells], np.nan)[bad].ravel().tolist())
    return vals


def level_hops(r: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, B) over every size-r strip nu of every label lam of the level cone.

    Only strips with span(nu) <= m are listed; strip i carries B_{nu/lam}
    from label rows[i] to label cols[i] = underline(nu), as in
    ``level_cone(n, m).strips(r)``.
    """
    rows, cols, _ = level_cone(params.n, params.m).strips(r)
    return rows, cols, _gather(params, _hop_cells(params.n, params.m, r))


def level_psi(r: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, psi') over the strips of ``level_hops``, in the same order.

    A pair with theta_j - theta_k = -1 (hop layer 0) contributes the cells
    (2, d - 1, s) and (0, d, s), as in ``psi_prime``; the others none.
    """
    rows, cols, _ = level_cone(params.n, params.m).strips(r)
    t, d, s = _hop_cells(params.n, params.m, r)
    cells = (np.tile([2, 0], len(s)), np.repeat(d, 2, axis=1) - np.tile([1, 0], len(s)), np.repeat(s, 2))
    return rows, cols, _gather(params, cells, where=np.repeat(t == 0, 2, axis=1))


@lru_cache(maxsize=64)
def _delta_cells(n: int, m: int) -> tuple[np.ndarray, ...]:
    """The head and tail cells of every pair of every label, pair by pair."""
    cone = level_cone(n, m)
    return _read_only(np.tile([_HEAD, _TAIL], len(cone.s)), np.repeat(cone.d, 2, axis=1), np.repeat(cone.s, 2))


def level_delta(params: ModelParams) -> np.ndarray:
    """Delta_lam over the labels of ``level_cone(n, m)``."""
    return _gather(params, _delta_cells(params.n, params.m))


def level_c(params: ModelParams) -> np.ndarray:
    """c_lam over the labels of ``level_cone(n, m)``."""
    cone = level_cone(params.n, params.m)
    return _gather(params, (_C, cone.d, cone.s))


def clear_coeff_caches() -> None:
    """Drop every bracket table with all it keeps (see ``BracketTable``), mainly for tests and long sweeps."""
    with _TABLES_LOCK:
        _TABLES.clear()
