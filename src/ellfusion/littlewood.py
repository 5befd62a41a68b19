"""Products in the eigenpolynomial basis and their structure coefficients.

Multiplication is a sparse convolution under key addition (the monomial
basis is multiplicative).  Basis expansion is back substitution: every key
of P_kappa is dominated by kappa, so it is lexicographically below kappa
and the leading coefficient of P_kappa is 1.  Walking the basis keys from
the largest down, the coefficient a_kappa of F = sum a_kappa P_kappa is
what is left of F at kappa, and a_kappa P_kappa is then taken off
(``_back_substitute``).  The keys walked are those of ``basis_keys``, a
subspace that the basis maps into itself.

A product P_lam * P_mu lies in the subspace (|lam| + |mu|, lam_1 + mu_1,
lam_n + mu_n): ``lr_coefficients`` expands the exact product there, then
applies the support cut and the containment check.  ``expand_in_P`` runs
the same substitution once per weight.
"""

from __future__ import annotations

import numpy as np

from .errors import ComputationError
from .kernel import ModelParams
from .partitions import Partition, add, check_partition, contains, is_partition, weight
from .polynomials import PolynomialInE, _poly, basis_keys
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


def _back_substitute(f: dict, keys: list[Partition], params: ModelParams, polys: dict) -> dict[Partition, float]:
    """Coefficients a of F = sum_kappa a_kappa P_kappa from its monomial coefficients f.

    keys are admitted basis keys in ascending lexicographic order that hold
    every key of f; polys is the store of params' bracket table.  From the
    largest key down, a_kappa = f_kappa and then f -= a_kappa P_kappa, with
    f updated in place.  The result holds the nonzero a_kappa, largest key
    first.
    """
    out: dict[Partition, float] = {}
    for kappa in reversed(keys):
        a = f.get(kappa, 0.0)
        if a:
            out[kappa] = a
            for k, v in _poly(kappa, params, polys).items():
                f[k] = f.get(k, 0.0) - a * v
    return out


def expand_in_P(F: PolynomialInE, params: ModelParams) -> dict[Partition, float]:
    """Expansion coefficients of F over the eigenpolynomial basis.

    Keys are grouped by weight; each group is substituted back over the
    basis keys bounded by its largest first part and smallest last part.
    Exact zeros are left out.  A key that is not a partition with n rows
    raises ValueError.
    """
    if F.n != params.n:
        raise ValueError(f"polynomial has n={F.n}, parameters have n={params.n}")
    groups: dict[int, dict[Partition, float]] = {}
    for key, v in F.items():
        if len(key) != params.n or not is_partition(key):
            raise ValueError(f"key {key} is not a partition with {params.n} rows")
        groups.setdefault(weight(key), {})[key] = v
    out: dict[Partition, float] = {}
    for w, f in sorted(groups.items()):
        keys = basis_keys(params, w, max(k[0] for k in f), min(k[-1] for k in f))
        out.update(_back_substitute(f, keys, params, coeffs._table(params).polys))
    return out


def lr_coefficients(lam, mu, params: ModelParams) -> dict[Partition, float]:
    """Structure coefficients of P_lam * P_mu in the eigenpolynomial basis.

    Keys are filtered at SUPPORT_CUT relative to the product scale (at least
    1) and must obey the support constraints (both factors contained,
    weights additive); a sizable coefficient outside the support is a hard
    error naming the largest such key.  Keys come in descending
    lexicographic order.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    w = weight(lam) + weight(mu)
    # The gate runs on store hits too: the store is shared across m, locking and the sign of p.
    keys = basis_keys(params, w, lam[0] + mu[0], lam[-1] + mu[-1], (lam, mu))
    polys = coeffs._table(params).polys
    keys_l, vals_l = _poly(lam, params, polys).arrays()
    keys_m, vals_m = _poly(mu, params, polys).arrays()
    f: dict[Partition, float] = {}  # the exact product, its terms summed in the order of the factors
    terms = (keys_l[:, None] + keys_m[None]).reshape(-1, params.n).tolist()
    for k, v in zip(map(tuple, terms), np.outer(vals_l, vals_m).ravel().tolist()):
        f[k] = f.get(k, 0.0) + v
    a = _back_substitute(f, keys, params, polys)
    cut = SUPPORT_CUT * max(1.0, max(map(abs, a.values()), default=0.0))
    out = {kappa: v for kappa, v in a.items() if abs(v) > cut}
    for kappa, v in out.items():
        if not (contains(lam, kappa) and contains(mu, kappa)):
            raise ComputationError(f"support violation: key {kappa} with coefficient {v!r} in {lam} * {mu}")
    return out
