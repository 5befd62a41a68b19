"""Bounded-partition combinatorics: enumeration, orders, and vertical strips.

A partition is a fixed-length tuple of non-increasing non-negative integers.
The length n is always explicit and trailing zeros are stored, because the
coefficient formulas range over all index pairs 1 <= j < k <= n including
zero rows.  Partitions serialize as plain JSON integer arrays.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple."""
    lam = tuple(int(x) for x in parts)
    if not lam:
        raise ValueError("a partition needs at least one row")
    if any(x < 0 for x in lam):
        raise ValueError(f"negative part in {lam}")
    if any(lam[j] < lam[j + 1] for j in range(len(lam) - 1)):
        raise ValueError(f"parts must be non-increasing: {lam}")
    return lam


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
    """All partitions with lam_n = 0 and lam_1 <= m, in canonical order.

    This is the level-m cone of fusion labels; its size is
    binomial(n - 1 + m, m).  Each call returns a new list; the enumeration
    is done once per (n, m), because every homotopy step asks for the cone.
    """
    return list(_level_cone(n, m))


@lru_cache(maxsize=64)
def _level_cone(n: int, m: int) -> tuple[Partition, ...]:
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    out: list[Partition] = []
    if n == 1:
        return ((0,),)

    def descend(prefix: Partition, rows_left: int, cap: int) -> None:
        if rows_left == 0:
            out.append(prefix + (0,))
            return
        for v in range(cap, -1, -1):
            descend(prefix + (v,), rows_left - 1, v)

    descend((), n - 1, m)
    out.sort(key=canonical_key)
    return tuple(out)


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
