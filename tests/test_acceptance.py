"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each criterion is a group of entries of the check registry in
``ellfusion.verification``, run on its acceptance grid at its tolerance (0:
exact, counting violations), with one check context shared by the module.
Run ``pytest -s tests/test_acceptance.py`` to see one line per entry; the
module is desk scale (n <= 4, m <= 4, weights <= 6).
"""

import pytest

from ellfusion.kernel import ModelParams
from ellfusion.fusion import fusion_table
from ellfusion.verification import REGISTRY, CheckContext

# (criterion, line, tolerance) of the acceptance gate; a tolerance of 0 is exact.
GATE = [
    (1, "truncated operator commutativity", 1e-9),
    (2, "gauge identity over the (3,3) cone", 1e-11),
    (3, "column-multiplication ring identity", 1e-10),
    (4, "unitriangularity and homogeneity (hard)", 0.0),
    (5, "structure-coefficient support (exact key sets)", 0.0),
    (6, "spectrum count = binomial(n-1+m, m)", 0.0),
    (6, "trigonometric spectrum closed form", 1e-10),
    (7, "ideal generators vanish on the spectrum", 1e-7),
    (8, "dual orthogonality with norm closed form", 1e-8),
    (9, "spectral sum vs direct projection", 1e-8),
    (9, "S Sinv = identity", 1e-8),
    (9, "|det S| closed form (relative)", 1e-6),
    (10, "ring route vs spectral route", 1e-7),
    (11, "integrality at unit coupling", 1e-5),
    (11, "fusion table equals the classical coefficients", 0.0),
    (11, "unit-coupling table is nome independent", 1e-9),
    (12, "refined strip coefficients at nome zero", 1e-12),
    (13, "sine-form transition matrix entrywise", 1e-8),
    (13, "normalization closed form (relative)", 1e-8),
    (14, "tableau-sum limit of embedded polynomials", 1e-4),
    (14, "strip weights at nome zero", 1e-12),
]


@pytest.fixture(scope="module")
def ctx():
    return CheckContext(seed=0)


def _criterion(number: int, ctx: CheckContext) -> None:
    checks = [c for c in REGISTRY if c.criterion == number]
    reports = [c.report(c.acceptance, ctx) for c in checks]
    for check, r in zip(checks, reports):
        status = "PASS" if r.passed else "FAIL"
        line = f"{check.title}: measured={r.max_abs:.3e} tol={r.tol:.1e}"
        print(f"ACCEPTANCE {number:2d} {status} {line}")
    assert all(r.passed for r in reports), f"criterion {number}: {reports}"


def test_registry_matches_gate():
    assert sorted((c.criterion, c.title, c.tol) for c in REGISTRY if c.criterion) == sorted(GATE)
    assert all(c.acceptance for c in REGISTRY if c.criterion)
    names = [c.name for c in REGISTRY]
    assert len(names) == len(set(names))


def test_criterion_01_truncated_commutativity(ctx):
    _criterion(1, ctx)


def test_criterion_02_gauge_identity(ctx):
    _criterion(2, ctx)


def test_criterion_03_pieri_ring_identity(ctx):
    _criterion(3, ctx)


def test_criterion_04_unitriangular_homogeneous(ctx):
    _criterion(4, ctx)


def test_criterion_05_lr_vanishing_support(ctx):
    _criterion(5, ctx)


def test_criterion_06_spectrum_count_and_p0_values(ctx):
    _criterion(6, ctx)


def test_criterion_07_spectral_variety(ctx):
    _criterion(7, ctx)


def test_criterion_08_dual_orthogonality(ctx):
    _criterion(8, ctx)


def test_criterion_09_spectral_sum_consistency(ctx):
    _criterion(9, ctx)


def test_criterion_10_route_agreement(ctx):
    _criterion(10, ctx)


def test_criterion_11_classical_endpoint(ctx):
    _criterion(11, ctx)


def test_criterion_12_refined_endpoint(ctx):
    _criterion(12, ctx)


def test_criterion_13_kac_peterson(ctx):
    _criterion(13, ctx)


def test_criterion_14_polynomial_limits(ctx):
    _criterion(14, ctx)


def test_criterion_11_two_site_anchors():
    su21 = fusion_table(ModelParams.locked(2, 1, 1.0, 0.0), route="verlinde").entries
    assert abs(su21[((1, 0), (1, 0))].get((0, 0), 0.0) - 1.0) < 1e-9
    su22 = fusion_table(ModelParams.locked(2, 2, 1.0, 0.0), route="verlinde").entries
    block = su22[((1, 0), (1, 0))]
    assert set(block) == {(0, 0), (2, 0)}
    assert abs(block[(0, 0)] - 1.0) < 1e-9 and abs(block[(2, 0)] - 1.0) < 1e-9
