"""Bounded-partition combinatorics: enumeration, orders, and vertical strips.

A partition is a fixed-length tuple of non-increasing non-negative integers.
The length n is always explicit and trailing zeros are stored, because the
coefficient formulas range over all index pairs 1 <= j < k <= n including
zero rows.  Partitions serialize as plain JSON integer arrays.

``level_cone(n, m)`` is the one home of the per-cone index data: the labels
of the level cone with their index, label array, weights and pair distances,
the strips of each size that stay in the cone, the simple current and the
charge conjugation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .errors import NotAStrip

Partition = tuple[int, ...]


def check_partition(parts, n: int | None = None) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple, of length n if n is given.

    The one gate of a factor: every coefficient is a product over the row
    pairs of an n-row partition, so one of another length belongs to no model.
    A part must equal an integer: 2.0, numpy ints and True pass as theirs.
    """
    parts = tuple(parts)
    try:
        lam = tuple(int(x) for x in parts)
    except (OverflowError, ValueError):  # inf, nan, "2.5"
        lam = None
    if lam != parts:  # also a truncated part, or a string
        raise ValueError(f"parts must be integers: {parts}")
    if not lam:
        raise ValueError("a partition needs at least one row")
    if any(x < 0 for x in lam):
        raise ValueError(f"negative part in {lam}")
    if any(lam[j] < lam[j + 1] for j in range(len(lam) - 1)):
        raise ValueError(f"parts must be non-increasing: {lam}")
    if n is not None and len(lam) != n:
        raise ValueError(f"partition length {len(lam)} does not match n={n}")
    return lam


def check_strip(lam, nu, n: int | None = None) -> tuple[Partition, Partition]:
    """Validate a vertical strip lam ⊂ nu ⊂ lam + 1^n and return both factors normalized.

    The one gate of a strip: both factors go through ``check_partition``,
    lam of length n if n is given and nu of the length of lam, so a
    malformed factor raises its ``ValueError``; two partitions whose
    increments nu - lam are not all 0 or 1 raise ``NotAStrip``.
    """
    lam = check_partition(lam, n)
    nu = check_partition(nu, len(lam))
    if any(b - a not in (0, 1) for a, b in zip(lam, nu)):
        raise NotAStrip(f"{nu} is not a vertical strip over {lam}")
    return lam, nu


def is_partition(parts) -> bool:
    return all(x >= 0 for x in parts) and all(
        parts[j] >= parts[j + 1] for j in range(len(parts) - 1)
    )


def weight(lam: Partition) -> int:
    """Total box count |lam|."""
    return sum(lam)


def span(lam: Partition) -> int:
    """Spread lam_1 - lam_n between the largest and smallest part."""
    return lam[0] - lam[-1]


def canonical_key(lam: Partition):
    """Sort key: by weight, then lexicographically descending on parts."""
    return (sum(lam), tuple(-x for x in lam))


def zero(n: int) -> Partition:
    return (0,) * n


def column(n: int, r: int) -> Partition:
    """The column shape 1^r padded to length n."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return (1,) * r + (0,) * (n - r)


def add(lam: Partition, mu: Partition) -> Partition:
    """Componentwise sum; the sum of two partitions is again a partition."""
    return tuple(a + b for a, b in zip(lam, mu))


def contains(lam: Partition, mu: Partition) -> bool:
    """Containment lam ⊂ mu, i.e. lam_j <= mu_j for every row."""
    return all(a <= b for a, b in zip(lam, mu))


def underline(nu: Partition) -> Partition:
    """Subtract the last part from every row, pinning the last row to 0."""
    base = nu[-1]
    return tuple(x - base for x in nu)


def enumerate_level(n: int, m: int) -> list[Partition]:
    """All partitions with lam_n = 0 and lam_1 <= m, in canonical order: a new list of ``level_cone(n, m).labels``."""
    return list(level_cone(n, m).labels)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False  # shared by every caller through a cache
    return arrays


def _pair_distances(parts, n: int) -> np.ndarray:
    """D[i, q] = parts[i][j] - parts[i][k] at the q-th pair j < k, pairs in lexicographic order."""
    a = np.array(parts, dtype=np.intp).reshape(len(parts), n)
    j, k = np.triu_indices(n, 1)
    return np.ascontiguousarray(a[:, j] - a[:, k])


@dataclass(frozen=True, eq=False)
class LevelCone:
    """The level cone of (n, m) and the read-only index arrays every layer reads, kept by ``level_cone``.

    ``labels``: the partitions with lam_n = 0 and lam_1 <= m in canonical
    order, binomial(n - 1 + m, m) of them; ``index`` maps each to its
    position.  ``keys``: the label array in column order, and ``weights``,
    both int16 wherever the weights fit (each pass of a support mask is then
    cheaper).  ``d[i, q]``: the pair distances of label i (``_pair_distances``);
    ``s[q]`` = k - j.  The strips, the simple current (a plain index
    permutation: the level-truncated operators are invariant under it, so
    it carries no weights) and the charge conjugation are built on first use.
    """

    n: int
    m: int
    labels: tuple[Partition, ...]
    index: Mapping[Partition, int]
    keys: np.ndarray
    weights: np.ndarray
    d: np.ndarray
    s: np.ndarray
    _strips: dict = field(default_factory=dict, init=False, repr=False)

    def strips(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, diff): every size-r strip nu of a label lam with span(nu) <= m, in label order.

        Strip i goes from label rows[i] to label cols[i] = underline(nu), and
        diff[i, q] = theta_j - theta_k at the q-th pair of ``d``, theta = nu - lam.
        """
        if r not in self._strips:
            strips = [(i, nu) for i, lam in enumerate(self.labels) for nu in vertical_strips(lam, r)]
            strips = [(i, nu) for i, nu in strips if span(nu) <= self.m]
            rows = np.array([i for i, _ in strips], dtype=np.intp)
            cols = np.array([self.index[underline(nu)] for _, nu in strips], dtype=np.intp)
            diff = _pair_distances([nu for _, nu in strips], self.n) - self.d[rows]
            self._strips.setdefault(r, _read_only(rows, cols, diff))
        return self._strips[r]

    @cached_property
    def J(self) -> np.ndarray:
        """J[i] is the index of J(labels[i]), the simple current J(lam) = (m, lam_1, ..., lam_{n-1}) - lam_{n-1}.

        J permutes the cone, with J^n = 1 (Gepner & Witten, Nucl. Phys. B 278 (1986)).
        """
        image = [tuple(x - lam[-2] for x in (self.m, *lam[:-1])) for lam in self.labels]
        return _read_only(np.array([self.index[lam] for lam in image], dtype=np.intp))[0]

    @cached_property
    def conjugation(self) -> np.ndarray:
        """conjugation[i] is the index of the charge conjugate lam* = (lam_1 - lam_n, lam_1 - lam_{n-1}, ..., 0) of labels[i].

        lam -> lam* reverses the Dynkin labels lam_j - lam_{j+1}, so it is the
        highest weight of the conjugate representation of su(n), and an
        involution of the cone.
        """
        image = [tuple(lam[0] - x for x in reversed(lam)) for lam in self.labels]
        return _read_only(np.array([self.index[lam] for lam in image], dtype=np.intp))[0]


@lru_cache(maxsize=64)
def level_cone(n: int, m: int) -> LevelCone:
    """The one kept record of the level-m cone of (n, m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    # Tuples drawn from a descending range are non-increasing.
    heads = combinations_with_replacement(range(m, -1, -1), n - 1)
    labels = tuple(sorted((head + (0,) for head in heads), key=canonical_key))
    keys = np.array(labels, dtype=np.intp)
    weights = keys.sum(axis=1)
    if weights.max() < 2**15:
        keys, weights = keys.astype(np.int16), weights.astype(np.int16)
    j, k = np.triu_indices(n, 1)
    d, s = _pair_distances(labels, n), k - j
    index = MappingProxyType({lam: i for i, lam in enumerate(labels)})
    return LevelCone(n, m, labels, index, *_read_only(np.asfortranarray(keys), weights, d, s))


def r_index(mu: Partition) -> int:
    """Length of the leading run: least j with mu_j > mu_{j+1} (mu_{n+1}=0).

    Returns n both for mu = c^n with c > 0 and, by convention, for mu = 0.
    """
    n = len(mu)
    for j in range(n - 1):
        if mu[j] > mu[j + 1]:
            return j + 1
    return n


def vertical_strips(lam: Partition, r: int) -> list[Partition]:
    """All partitions nu with lam ⊂ nu ⊂ lam + 1^n and |nu| = |lam| + r."""
    n = len(lam)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}")
    out = []
    for rows in combinations(range(n), r):
        nu = list(lam)
        for i in rows:
            nu[i] += 1
        if all(nu[j] >= nu[j + 1] for j in range(n - 1)):
            out.append(tuple(nu))
    out.sort(key=canonical_key)
    return out


def partitions_of_weight(n: int, w: int, max_part: int | None = None) -> list[Partition]:
    """All partitions with n rows (trailing zeros allowed) of weight w."""
    cap = w if max_part is None else min(max_part, w)
    out: list[Partition] = []

    def rec(prefix: Partition, remaining: int, cap: int) -> None:
        rows_left = n - len(prefix)
        if rows_left == 0:
            if remaining == 0:
                out.append(prefix)
            return
        for v in range(min(cap, remaining), -1, -1):
            if v * rows_left < remaining:
                break
            rec(prefix + (v,), remaining - v, v)

    rec((), w, cap)
    out.sort(key=canonical_key)
    return out


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order: equal weight and partial sums of lam never exceed mu's."""
    if sum(lam) != sum(mu):
        return False
    pl = pm = 0
    for a, b in zip(lam, mu):
        pl += a
        pm += b
        if pl > pm:
            return False
    return True
