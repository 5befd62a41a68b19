"""Closed-form coefficient evaluators for the discrete difference operators.

Four product formulas drive everything downstream: the hopping weights
B_{nu/lam}, the recurrence/Pieri weights psi'_{nu/lam}, the normalization
c_mu, and the orthogonality weights Delta_lam.  Every factor of all four is
a ratio of theta brackets [a + b*g] with integers 0 <= a <= span(lam) and
0 <= b <= n.  One bracket table per (alpha, g, |p|, precision) holds those
brackets, filled by the scalar ``bracket`` and grown on demand, together
with the factor tables derived from it; the brackets depend on the nome
only through |p|, so -p reads the table of p.  The table also stores the
eigenpolynomials and strata built at its parameters, the ring-route tables
of ``fusion`` and the finished joint spectra of ``operators``, so its LRU bounds all that is kept per
parameter set.  The scalar functions read the table from Python lists;
``level_hops``, ``level_delta`` and ``level_c`` gather whole level cones
from its numpy copy.  Values are complex and real in the level-locked
regime; callers convert them at API boundaries.

Denominator brackets below ``SINGULAR_TOL`` in magnitude raise
:class:`SingularDenominator`; zeros appearing in numerators are genuine
(boundary) zeros and pass through.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .errors import NotAStrip, SingularDenominator
from .kernel import SINGULAR_TOL, ModelParams, bracket
from .partitions import Partition, enumerate_level, is_partition, span, underline, vertical_strips

# One nome_sweep pass (n=4 m=4, p = +-0.3, +-0.6, +-0.9) visits 26 distinct
# |p| along its homotopy paths, rejected steps included (the -p legs read the
# spectra kept at p); the bound leaves room for several such sweeps.
TABLE_LIMIT = 256
_NAN = complex(float("nan"), 0.0)


def strip_pattern(lam: Partition, nu: Partition) -> tuple[int, ...]:
    """Increment pattern theta = nu - lam, validated as a vertical strip."""
    if len(lam) != len(nu):
        raise NotAStrip(f"length mismatch between {lam} and {nu}")
    theta = tuple(b - a for a, b in zip(lam, nu))
    if any(t not in (0, 1) for t in theta) or not is_partition(nu) or not is_partition(lam):
        raise NotAStrip(f"{nu} is not a vertical strip over {lam}")
    return theta


class BracketTable:
    """Brackets [a + b*g] for 0 <= a < rows, 0 <= b < cols at one parameter set.

    ``values[a][b]`` is ``bracket(a + b*g, params)``, bit for bit.  The factor
    tables below are indexed [a][s] with the pair distance 1 <= s <= cols-2;
    an entry whose denominator is below ``SINGULAR_TOL`` holds NaN, so that
    every product reading it is NaN and the reader can raise.

    * ``hop[t + 1][a][s]`` = [a + (s+t)g] / [a + sg], t in {-1, 0, 1}: the
      hopping factor of a pair at distance a whose strip increments differ
      by t, and the two psi' factors (t = 1 at a - 1, t = -1 at a).
    * ``c[a][s]`` = prod_{l<a} [l + sg] / [l + (s+1)g].
    * ``delta_head[a][s]`` = [a + sg] / [sg] and
      ``delta_tail[a][s]`` = prod_{l<a} [l + (s+1)g] / [l + 1 + (s-1)g].

    The lists are what the scalar functions read; ``hop_array``,
    ``c_array`` and ``delta_array`` (head and tail stacked on a last axis)
    are their numpy copies for the gathers over a level cone, which multiply
    the factors in the order of the scalar loops and so give the same bits.

    ``polys`` (mu -> P_mu) and ``strata`` ((n, w, L) -> stratum) are filled by
    ``polynomials``; ``rings`` ((n, m) -> the read-only ring-route table
    [lam, mu, kappa], level-locked only, returned at p and at -p) by
    ``fusion``; ``spectra`` ((n, m, level_locked, seed) -> the finished
    ``SpectrumResult``, returned at p and at -p) by ``operators``.  The
    recurrence weights and the truncated matrices are products of these
    brackets, so all of these depend on the parameters only through this
    table's key and their own keys; evicting the table frees them.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.values: list[list[complex]] = []
        self.rows = 0
        self.cols = 0
        self.polys: dict = {}
        self.strata: dict = {}
        self.rings: dict = {}
        self.spectra: dict = {}

    def grow(self, rows: int, cols: int) -> None:
        """Extend to at least rows x cols, evaluating only the new brackets."""
        rows, cols = max(rows, self.rows), max(cols, self.cols)
        g, params = self.params.g, self.params
        for a, row in enumerate(self.values):
            row.extend(bracket(a + b * g, params) for b in range(self.cols, cols))
        for a in range(self.rows, rows):
            self.values.append([bracket(a + b * g, params) for b in range(cols)])
        self.rows, self.cols = rows, cols
        self._derive()

    def _derive(self) -> None:
        B, R, K = self.values, self.rows, self.cols

        def ratio(num: complex, den: complex) -> complex:
            return _NAN if abs(den) < SINGULAR_TOL else num / den

        blank = [[_NAN] * K for _ in range(R)]
        hop = [[row[:] for row in blank] for _ in range(3)]
        c = [row[:] for row in blank]
        head = [row[:] for row in blank]
        tail = [row[:] for row in blank]
        for s in range(1, K - 1):
            cum_c = 1.0 + 0.0j
            cum_tail = 1.0 + 0.0j
            for a in range(R):
                for t in (-1, 0, 1):
                    hop[t + 1][a][s] = ratio(B[a][s + t], B[a][s])
                head[a][s] = ratio(B[a][s], B[0][s])
                c[a][s] = cum_c
                tail[a][s] = cum_tail
                cum_c *= ratio(B[a][s], B[a][s + 1])
                if a + 1 < R:
                    cum_tail *= ratio(B[a][s + 1], B[a + 1][s - 1])
        self.hop, self.c, self.delta_head, self.delta_tail = hop, c, head, tail
        self.hop_array = np.array(hop, dtype=complex).reshape(3, R, K)
        self.c_array = np.array(c, dtype=complex).reshape(R, K)
        self.delta_array = np.stack(
            [np.array(head, dtype=complex).reshape(R, K), np.array(tail, dtype=complex).reshape(R, K)],
            axis=-1,
        )

    def raise_singular(self, dens) -> None:
        """Raise for the first vanishing bracket among the (a, b) in dens, if any."""
        g = self.params.g
        for a, b in dens:
            if abs(self.values[a][b]) < SINGULAR_TOL:
                raise SingularDenominator(f"bracket [{a + b * g}] vanished (|.| < {SINGULAR_TOL})")


_TABLES: OrderedDict[tuple, BracketTable] = OrderedDict()
# Growing appends rows in place, so two threads must not grow one table at once.
_TABLES_LOCK = threading.Lock()


def _table(params: ModelParams, rows: int = 0, cols: int = 0) -> BracketTable:
    """The bracket table of params, grown to at least rows x cols (bounded LRU)."""
    key = (params.alpha, params.g, abs(params.p), params.precision)
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is None:
            table = _TABLES[key] = BracketTable(params)
            if len(_TABLES) > TABLE_LIMIT:
                _TABLES.popitem(last=False)
        else:
            _TABLES.move_to_end(key)
        if rows > table.rows or cols > table.cols:
            table.grow(rows, cols)
    return table


def bracket_table(params: ModelParams, rows: int, cols: int) -> np.ndarray:
    """Read-only copy of [a + b*g] for 0 <= a < rows, 0 <= b < cols."""
    table = _table(params, rows, cols)
    out = np.array(table.values, dtype=complex)[:rows, :cols]
    out.flags.writeable = False
    return out


def _pairs(n: int):
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def hop_B(lam: Partition, nu: Partition, params: ModelParams) -> complex:
    """Hopping weight of the discrete difference operator for the move lam -> nu.

    Product over all pairs j < k of
    [lam_j - lam_k + g(k - j + theta_j - theta_k)] / [lam_j - lam_k + g(k - j)].
    """
    theta = strip_pattern(lam, nu)
    n = len(lam)
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    hop = table.hop
    out = 1.0 + 0.0j
    for j in range(n):
        tj = theta[j] + 1
        for k in range(j + 1, n):
            out *= hop[tj - theta[k]][lam[j] - lam[k]][k - j]
    if out != out:
        table.raise_singular((lam[j] - lam[k], k - j) for j, k in _pairs(n))
    return out


def psi_prime(lam: Partition, nu: Partition, params: ModelParams) -> complex:
    """Recurrence/Pieri weight for the strip nu over lam.

    Product over pairs j < k with theta_j - theta_k = -1 of
    [nu_j-nu_k+g(k-j+1)]/[nu_j-nu_k+g(k-j)] *
    [lam_j-lam_k+g(k-j-1)]/[lam_j-lam_k+g(k-j)].
    """
    theta = strip_pattern(lam, nu)
    n = len(lam)
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    down, _, up = table.hop
    out = 1.0 + 0.0j
    for j in range(n):
        if theta[j]:
            continue
        for k in range(j + 1, n):
            if theta[k]:
                d = lam[j] - lam[k]  # >= 1, and nu_j - nu_k = d - 1
                out *= up[d - 1][k - j]
                out *= down[d][k - j]
    if out != out:
        table.raise_singular(
            (a, k - j)
            for j, k in _pairs(n)
            if theta[k] - theta[j] == 1
            for a in (lam[j] - lam[k] - 1, lam[j] - lam[k])
        )
    return out


def _check_partition(mu: Partition) -> None:
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")


def c_norm(mu: Partition, params: ModelParams) -> complex:
    """Normalization coefficient: product of elliptic-factorial ratios.

    Product over pairs j < k, with d = mu_j - mu_k and s = k - j, of
    prod_{l<d} [l + sg] / [l + (s+1)g].  Positive for mu in the level cone
    when g > 0 in level-locked mode.
    """
    _check_partition(mu)
    n = len(mu)
    table = _table(params, mu[0] - mu[-1] + 1, n + 1)
    c = table.c
    out = 1.0 + 0.0j
    for j in range(n):
        for k in range(j + 1, n):
            out *= c[mu[j] - mu[k]][k - j]
    if out != out:
        table.raise_singular(
            (l, k - j + 1) for j, k in _pairs(n) for l in range(mu[j] - mu[k])
        )
    return out


def delta_weight(lam: Partition, params: ModelParams) -> complex:
    """Orthogonality weight of the inner product on the level cone.

    Product over pairs j < k, with d = lam_j - lam_k and s = k - j, of
    [d + sg]/[sg] * prod_{l<d} [l + (s+1)g] / [l + 1 + (s-1)g].
    """
    _check_partition(lam)
    n = len(lam)
    table = _table(params, lam[0] - lam[-1] + 1, n + 1)
    head, tail = table.delta_head, table.delta_tail
    out = 1.0 + 0.0j
    for j in range(n):
        for k in range(j + 1, n):
            d = lam[j] - lam[k]
            out *= head[d][k - j]
            out *= tail[d][k - j]
    if out != out:
        table.raise_singular(
            den
            for j, k in _pairs(n)
            for den in [(0, k - j)] + [(l + 1, k - j - 1) for l in range(lam[j] - lam[k])]
        )
    return out


# -- whole level cones as gathers -------------------------------------------


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False  # shared by every caller through the caches below
    return arrays


@lru_cache(maxsize=64)
def _label_index(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair distances d[i, q] = lam_j - lam_k of every label and s[q] = k - j."""
    pairs = _pairs(n)
    labels = enumerate_level(n, m)
    d = np.array([[lam[j] - lam[k] for j, k in pairs] for lam in labels], dtype=np.intp)
    s = np.array([k - j for j, k in pairs], dtype=np.intp)
    return _frozen(d.reshape(len(labels), len(pairs)), s)


@lru_cache(maxsize=64)
def _strip_index(n: int, m: int, r: int):
    """Every size-r strip that stays in the level-m cone, as index arrays.

    Returns (strips, rows, cols, d, t, s): strip i goes from label rows[i] to
    the label cols[i] = underline(nu); d[i, q] is the pair distance of lam,
    t[i, q] the hop-table layer theta_j - theta_k + 1, s[q] = k - j.
    """
    pairs = _pairs(n)
    labels = enumerate_level(n, m)
    index = {lam: i for i, lam in enumerate(labels)}
    strips, rows, cols, t = [], [], [], []
    for i, lam in enumerate(labels):
        for nu in vertical_strips(lam, r):
            if span(nu) <= m:
                strips.append((lam, nu))
                rows.append(i)
                cols.append(index[underline(nu)])
                t.append([nu[j] - lam[j] - nu[k] + lam[k] + 1 for j, k in pairs])
    d, s = _label_index(n, m)
    rows = np.array(rows, dtype=np.intp)
    t = np.array(t, dtype=np.intp).reshape(len(strips), len(pairs))
    return (strips, *_frozen(rows, np.array(cols, dtype=np.intp), d[rows], t), s)


def level_hops(r: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, B) over every size-r strip nu of every label lam of the level cone.

    Only strips with span(nu) <= m are listed; strip i carries B_{nu/lam}
    from label rows[i] to label cols[i] = underline(nu), labels in the order
    of ``enumerate_level(n, m)``.
    """
    n, m = params.n, params.m
    strips, rows, cols, d, t, s = _strip_index(n, m, r)
    table = _table(params, m + 1, n + 1)
    vals = table.hop_array[t, d, s].prod(axis=1)
    bad = np.flatnonzero(np.isnan(vals))
    if bad.size:
        hop_B(*strips[bad[0]], params)
    return rows, cols, vals


def level_delta(params: ModelParams) -> np.ndarray:
    """Delta_lam over the level cone, in the order of ``enumerate_level(n, m)``."""
    return _level_gather(params, "delta_array", delta_weight)


def level_c(params: ModelParams) -> np.ndarray:
    """c_lam over the level cone, in the order of ``enumerate_level(n, m)``."""
    return _level_gather(params, "c_array", c_norm)


def _level_gather(params: ModelParams, family: str, scalar) -> np.ndarray:
    n, m = params.n, params.m
    d, s = _label_index(n, m)
    factors = getattr(_table(params, m + 1, n + 1), family)[d, s]
    vals = factors.reshape(d.shape[0], -1).prod(axis=1)
    bad = np.flatnonzero(np.isnan(vals))
    if bad.size:
        scalar(enumerate_level(n, m)[bad[0]], params)
    return vals


def clear_coeff_caches() -> None:
    """Drop every bracket table with its polynomials, strata, ring tables and spectra (mainly for tests and long sweeps)."""
    with _TABLES_LOCK:
        _TABLES.clear()
