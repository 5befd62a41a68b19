"""Products in the eigenpolynomial basis and their structure coefficients.

Multiplication is a sparse convolution under key addition (the monomial
basis is multiplicative).  Basis expansion is one matrix product: the keys
of weight w, first part <= M and last part >= L form a stratum that the
unitriangular basis maps into itself, and its matrix U (row kappa holding
P_kappa, see ``polynomials.stratum``) gives the coefficients a of
F = sum a_kappa P_kappa from its monomial coefficients f as U^T a = f, so
a = f U^-1 with the inverse the stratum stores (``_solve``).

A product P_lam * P_mu lies in the stratum (|lam| + |mu|, lam_1 + mu_1,
lam_n + mu_n).  One kernel, ``_products``, multiplies P_lam by a group of
factors P_mu that share |mu| and mu_n, so that every product lies in the
stratum of the group's largest first part: the terms of all of them are
scattered by one ``bincount`` into a (factor x stratum) matrix f.  U^-1 is
lower-triangular, so a product whose keys lie in a leading block has its
coefficients on that block; each row of f is solved on the block of its
own factor, with the bits of a lone product.  ``_supported`` then applies
the support cut and the containment check to all rows at once.
``lr_coefficients`` is the one-factor group, ``expand_in_P`` solves one row
per weight with the same scatter, and the ring route of ``fusion`` runs one
group per (row, weight group) of the level cone.
"""

from __future__ import annotations

import numpy as np

from .errors import ComputationError
from .kernel import ModelParams
from .partitions import Partition, add, check_partition, weight
from .polynomials import PolynomialInE, Stratum, encode_keys, stratum
from .polynomials import _admits, _check_stratum, _poly, _stratum
from . import coeffs

SUPPORT_CUT = 1e-9


def multiply_monomial(P: PolynomialInE, Q: PolynomialInE) -> PolynomialInE:
    """Product of two sparse polynomials: convolution under key addition."""
    if P.n != Q.n:
        raise ValueError("polynomials live in different variable counts")
    out: dict[Partition, float] = {}
    for k1, v1 in P.items():
        for k2, v2 in Q.items():
            key = add(k1, k2)
            out[key] = out.get(key, 0.0) + v1 * v2
    return PolynomialInE(P.n, out)


def _scatter(table: Stratum, codes: np.ndarray, values: np.ndarray, rows=0, count: int = 1) -> np.ndarray:
    """Monomial coefficients f[row, i] over the stratum, of values[t] * e_{key coded codes[t]} in row rows[t].

    codes, values and rows broadcast to one shape, repeated (row, code) pairs
    are summed, and every code must be a key of the stratum.
    """
    size = len(table.keys)
    index = np.searchsorted(table.codes, codes) + np.asarray(rows) * size
    f = np.bincount(index.ravel(), weights=np.ravel(values), minlength=count * size)
    return f.reshape(count, size)


def _solve(table: Stratum, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Basis coefficients a[0, i] over the stratum of sum_t values[t] * e_{key coded codes[t]}.

    Repeated codes are summed into the monomial coefficients f, and U^T a = f
    is solved as a = f U^-1 with the stratum's stored inverse.
    """
    return _scatter(table, codes, values) @ table.inverse


class Factors:
    """The factors P_mu of one product group, with their terms concatenated.

    Term t has the key ``keys[t]`` and the coefficient ``vals[t]``, and
    belongs to the factor P_{heads[seg[t]]}.  The heads share their weight
    and last part; ``firsts`` holds their first parts.
    """

    __slots__ = ("heads", "keys", "vals", "seg", "firsts")

    def __init__(self, heads: tuple[Partition, ...], polys: list[PolynomialInE]):
        arrays = [P.arrays() for P in polys]
        self.heads = heads
        self.keys = np.concatenate([keys for keys, _ in arrays])
        self.vals = np.concatenate([vals for _, vals in arrays])
        self.seg = np.repeat(np.arange(len(polys)), [len(P) for P in polys])
        self.firsts = np.array([mu[0] for mu in heads])


def _admit(lam: Partition, heads, params: ModelParams) -> tuple[int, int, int]:
    """The stratum (w, M, L) holding P_lam * P_mu for every mu of heads, after the gate.

    The heads share their weight and last part; M is the bound of the
    largest first part among them.
    """
    n, mu = params.n, heads[0]
    w, L = weight(lam) + weight(mu), lam[-1] + mu[-1]
    M = min(lam[0] + max(h[0] for h in heads), w - (n - 1) * L)
    # The gate runs on store hits too: the store is shared across m, locking and the sign of p.
    if not (len(lam) == n and all(len(h) == n for h in heads) and _admits(params, w, M - L)):
        _check_stratum(params, w, M, L, (lam, *heads))
    return w, M, L


def _factors(heads, params: ModelParams, store: "coeffs.BracketTable") -> Factors:
    """The group of heads, built from store, params' bracket table; the heads must be admitted."""
    return Factors(tuple(heads), [_poly(mu, params, store.polys) for mu in heads])


def _products(
    lam: Partition, group: Factors, params: ModelParams, store: "coeffs.BracketTable", stratum_key
) -> tuple[Stratum, np.ndarray]:
    """Coefficients a[j, i] of P_lam * P_{group.heads[j]} over the stratum (w, M, L) that ``_admit`` gave."""
    w, M, L = stratum_key
    keys_l, vals_l = _poly(lam, params, store.polys).arrays()
    table = _stratum(params, store, w, M, L)
    codes = encode_keys(keys_l, w)[:, None] + encode_keys(group.keys, w)[None, :]
    f = _scatter(table, codes, np.outer(vals_l, group.vals), group.seg, len(group.heads))
    # Row j solves on the leading block of its own bound, as a lone product would.
    bounds = np.minimum(lam[0] + group.firsts, w - (params.n - 1) * L)
    ends = np.searchsorted(table.codes, (bounds + 1) * (w + 1) ** (params.n - 1)).tolist()
    a = np.zeros_like(f)
    for j, end in enumerate(ends):
        a[j, :end] = f[j, :end] @ table.inverse[:end, :end]
    return table, a


def _supported(lam: Partition, heads, table: Stratum, a: np.ndarray):
    """Kept coefficients of each row of a, and the support violation of each row that has one.

    A row keeps its coefficients above SUPPORT_CUT relative to its largest
    one (at least 1).  Weights are additive on the whole stratum, and a kept
    key must contain lam and the row's head; the violation names the last
    such key in the stratum's order.
    """
    mag = np.abs(a)
    kept = mag > SUPPORT_CUT * np.maximum(1.0, mag.max(axis=1, initial=0.0, keepdims=True))
    cover = np.maximum(np.array(lam), np.array(heads))
    outside = kept & ~(table.key_array[None, :, :] >= cover[:, None, :]).all(axis=2)
    errors = {}
    for j in np.flatnonzero(outside.any(axis=1)).tolist():
        i = np.flatnonzero(outside[j])[-1]
        errors[j] = ComputationError(
            f"support violation: key {table.keys[i]} with coefficient {float(a[j, i])!r} "
            f"in {lam} * {heads[j]}"
        )
    return kept, errors


def expand_in_P(F: PolynomialInE, params: ModelParams) -> dict[Partition, float]:
    """Expansion coefficients of F over the eigenpolynomial basis.

    Keys are grouped by weight; each group is solved on the stratum bounded
    by its largest first part and smallest last part.  Exact zeros are
    left out.
    """
    if F.n != params.n:
        raise ValueError(f"polynomial has n={F.n}, parameters have n={params.n}")
    groups: dict[int, list[Partition]] = {}
    for key in F.coeffs:
        groups.setdefault(weight(key), []).append(key)
    out: dict[Partition, float] = {}
    for w, keys in sorted(groups.items()):
        table = stratum(params, w, max(k[0] for k in keys), min(k[-1] for k in keys))
        key_array = np.array(keys, dtype=np.int64)
        values = np.array([F.coeffs[k] for k in keys])
        a = _solve(table, encode_keys(key_array, w), values)[0]
        for i in np.flatnonzero(a)[::-1]:
            out[table.keys[i]] = float(a[i])
    return out


def lr_coefficients(lam, mu, params: ModelParams) -> dict[Partition, float]:
    """Structure coefficients of P_lam * P_mu in the eigenpolynomial basis.

    Keys are filtered at SUPPORT_CUT relative to the product scale and must
    obey the support constraints (both factors contained, weights additive);
    a sizable coefficient outside the support is a hard error.  This is the
    one-factor group of the product kernel.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    stratum_key = _admit(lam, (mu,), params)
    store = coeffs._table(params)  # one lookup for the factors and the stratum
    table, a = _products(lam, _factors((mu,), params, store), params, store, stratum_key)
    kept, errors = _supported(lam, (mu,), table, a)
    if errors:
        raise errors[0]
    return {table.keys[i]: float(a[0, i]) for i in np.flatnonzero(kept[0])[::-1]}
