"""Products in the eigenpolynomial basis and their structure coefficients.

Multiplication is a sparse convolution under key addition (the monomial
basis is multiplicative).  Basis expansion is one matrix product: the keys
of weight w, first part <= M and last part >= L form a stratum that the
unitriangular basis maps into itself, and its matrix U (row kappa holding
P_kappa, see ``polynomials.stratum``) gives the coefficients a of
F = sum a_kappa P_kappa from its monomial coefficients f as U^T a = f, so
a = f U^-1 with the inverse the stratum stores (``_solve``).

A product P_lam * P_mu lies in the stratum (|lam| + |mu|, lam_1 + mu_1,
lam_n + mu_n): ``lr_coefficients`` scatters its terms there with one
``bincount``, solves, and applies the support cut and the containment check.
``expand_in_P`` solves one stratum per weight with the same scatter.
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


def _solve(table: Stratum, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Basis coefficients a[i] over the stratum of sum_t values[t] * e_{key coded codes[t]}.

    codes and values have one shape, and every code must be a key of the
    stratum.  Repeated codes are summed into the monomial coefficients f,
    and U^T a = f is solved as a = f U^-1 with the stratum's stored inverse.
    """
    index = np.searchsorted(table.codes, codes).ravel()
    f = np.bincount(index, weights=np.ravel(values), minlength=len(table.keys))
    return f @ table.inverse


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
        a = _solve(table, encode_keys(key_array, w), values)
        for i in np.flatnonzero(a)[::-1]:
            out[table.keys[i]] = float(a[i])
    return out


def lr_coefficients(lam, mu, params: ModelParams) -> dict[Partition, float]:
    """Structure coefficients of P_lam * P_mu in the eigenpolynomial basis.

    Keys are filtered at SUPPORT_CUT relative to the product scale (at least
    1) and must obey the support constraints (both factors contained,
    weights additive); a sizable coefficient outside the support is a hard
    error naming the last such key in the stratum's order.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    n = params.n
    w, L = weight(lam) + weight(mu), lam[-1] + mu[-1]
    M = min(lam[0] + mu[0], w - (n - 1) * L)
    # The gate runs on store hits too: the store is shared across m, locking and the sign of p.
    if not (len(lam) == n and len(mu) == n and _admits(params, w, M - L)):
        _check_stratum(params, w, M, L, (lam, mu))
    store = coeffs._table(params)  # one lookup for the factors and the stratum
    keys_l, vals_l = _poly(lam, params, store.polys).arrays()
    keys_m, vals_m = _poly(mu, params, store.polys).arrays()
    table = _stratum(params, store, w, M, L)
    codes = encode_keys(keys_l, w)[:, None] + encode_keys(keys_m, w)[None, :]
    a = _solve(table, codes, np.outer(vals_l, vals_m))
    mag = np.abs(a)
    kept = mag > SUPPORT_CUT * max(1.0, mag.max(initial=0.0))
    outside = kept & ~(table.key_array >= np.maximum(np.array(lam), np.array(mu))).all(axis=1)
    if outside.any():
        i = np.flatnonzero(outside)[-1]
        raise ComputationError(
            f"support violation: key {table.keys[i]} with coefficient {float(a[i])!r} in {lam} * {mu}"
        )
    return {table.keys[i]: float(a[i]) for i in np.flatnonzero(kept)[::-1]}
