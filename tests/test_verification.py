import re
from types import SimpleNamespace

import pytest

from ellfusion import SUITES
from ellfusion.verification import REGISTRY, CheckContext, run_suite


def _report(name, ctx=None, **point):
    check = next(c for c in REGISTRY if c.name == name)
    return check.report([point], ctx or CheckContext())


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_limits_suite_passes(n, m):
    for report in run_suite("limits", n, m):
        assert report.passed, report


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_ring_suite_passes(n, m):
    for report in run_suite("ring", n, m):
        assert report.passed, report


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_spectrum_suite_passes(n, m):
    for report in run_suite("spectrum", n, m):
        assert report.passed, report


def test_individual_checks_report_structure():
    r = _report("gauge_identity", n=2, m=1, g_values=(0.7,), p_values=(0.3,))
    assert r.passed and r.max_abs >= 0.0
    assert _report("level_boundary", n=3, m=1).passed
    assert _report("route_agreement", n=2, m=1).passed
    assert _report("smatrix_kac_peterson", n=2, m=2).passed
    assert _report("kac_peterson_normalization", n=2, m=2).passed
    assert _report("fusion_g1_classical", n=3, m=1).passed
    assert _report("fusion_g1_classical_integers", n=3, m=1).passed


def test_unit_coupling_checks_see_one_entry_off_by_a_half():
    """Both g = 1 checks compare whole arrays: one entry 1 -> 1.5 reads 0.5 and rounds to 2."""
    import numpy as np

    from ellfusion.kernel import ModelParams
    from ellfusion.oracles import _classical_transform

    table = CheckContext().table(ModelParams.locked(3, 2, 1.0, 0.0))
    values = table.values.copy()
    entry = tuple(np.argwhere(_classical_transform(3, 2)[2] == 1)[-1])
    values[entry] += 0.5

    class StubContext:
        def table(self, params):
            return SimpleNamespace(labels=table.labels, values=values)

    assert abs(_report("fusion_g1_classical", StubContext(), n=3, m=2).max_abs - 0.5) < 1e-12
    assert _report("fusion_g1_classical_integers", StubContext(), n=3, m=2).max_abs == 1


def test_refined_check_compares_whole_arrays_over_the_labels():
    """One entry of a stub p = 0 table moved by 0.5 reads 0.5; a table over other labels raises."""
    import numpy as np

    from ellfusion.oracles import refined_tensor

    labels, tensor = refined_tensor(3, 2, 0.8)
    values = tensor.copy()
    values[2, 3, 4] += 0.5

    class StubContext:
        def __init__(self, labels):
            self.labels = labels

        def table(self, params):
            assert params.p == 0.0
            return SimpleNamespace(labels=self.labels, values=values)

    assert abs(_report("refined_fusion_p0", StubContext(tuple(labels)), n=3, m=2).max_abs - 0.5) < 1e-12
    with pytest.raises(ValueError, match="different labels"):
        _report("refined_fusion_p0", StubContext(tuple(reversed(labels))), n=3, m=2)
    with pytest.raises(ValueError, match="different labels"):
        _report("fusion_g1_classical", StubContext(tuple(labels[1:])), n=3, m=2)


@pytest.mark.parametrize("name", ["fusion_conjugation", "fusion_duality"])
def test_symmetry_checks_read_both_tables(name):
    """Each ring-route symmetry check passes, and sees one Verlinde entry N^lam_{lam,0} moved by 0.5."""
    from ellfusion.partitions import level_cone

    ctx = CheckContext()
    assert _report(name, ctx, n=3, m=2).passed
    lam = level_cone(3, 2).index[(1, 0, 0)]  # not self-conjugate: (1, 0, 0)* = (1, 1, 0)

    class StubContext:
        def table(self, params):
            values = ctx.table(params).values.copy()
            values[lam, 0, lam] += 0.5
            return SimpleNamespace(values=values)

    assert _report(name, StubContext(), n=3, m=2).max_abs > 0.05


@pytest.mark.parametrize("name", ["route_agreement", "verlinde_vs_projection", "fusion_g1_p_independent"])
def test_streamed_comparisons_read_every_row(name):
    """A p = 0 Verlinde table moved by 0.5 in its last row reads 0.5; one with a row fewer raises, not compares a prefix."""
    import numpy as np

    ctx = CheckContext()

    class StubContext:
        seed = 0

        def __init__(self, edit):
            self.edit = edit

        def table(self, params):
            values = ctx.table(params).values
            return SimpleNamespace(values=self.edit(values.copy()) if params.p == 0.0 else values)

    def moved(values):
        values[-1] += 0.5
        return values

    assert abs(_report(name, StubContext(moved), n=3, m=2).max_abs - 0.5) < 1e-9
    with pytest.raises(ValueError):
        _report(name, StubContext(lambda values: values[:-1]), n=3, m=2)
    assert np.isclose(_report(name, StubContext(lambda values: values), n=3, m=2).max_abs, 0.0, atol=1e-7)


def test_table_checks_make_no_table_sized_temporary():
    """With every table of the run kept, no table check peaks at a quarter of one N^3 float table (N=56).

    The checks compare row by row.  refined_fusion_p0 builds its oracle
    tensor on every call, one table, so it is bounded by one and a half.
    """
    import tracemalloc

    n, m = 4, 5
    table = 56**3 * 8
    names = ("route_agreement", "fusion_conjugation", "fusion_duality", "verlinde_vs_projection",
             "fusion_g1_classical", "fusion_g1_classical_integers", "fusion_g1_p_independent", "refined_fusion_p0")
    checks = [c for c in REGISTRY if c.name in names]
    assert len(checks) == len(names)
    ctx = CheckContext()
    for check in checks:  # fill the context and the kept spectra and ring tables
        check.measure(ctx, n=n, m=m)
    peaks = {}
    for check in checks:
        tracemalloc.start()
        try:
            check.measure(ctx, n=n, m=m)
            peaks[check.name] = tracemalloc.get_traced_memory()[1] / table
        finally:
            tracemalloc.stop()
    assert peaks.pop("refined_fusion_p0") < 1.5
    assert max(peaks.values()) < 0.25, peaks


def test_run_suite_dispatch():
    assert run_suite("limits", 2, 1)
    with pytest.raises(ValueError):
        run_suite("bogus", 2, 1)


@pytest.mark.parametrize(
    "n, m, seed, fragment",
    [
        (1, 2, 0, "the checks require n >= 2, got n=1"),
        (0, 2, 0, "the checks require n >= 2, got n=0"),
        (2, -1, 0, "m must be >= 0"),
        (2, 2, -1, "got seed=-1"),
        (2, 2, 1.5, "got seed=1.5"),
    ],
)
def test_run_suite_refuses_bad_arguments_before_any_check(n, m, seed, fragment, monkeypatch):
    """n = 1 has no joint spectrum and its ideal generators have two rows; a negative seed has no numpy stream."""
    from ellfusion import verification

    monkeypatch.setattr(verification.Check, "report", lambda *a, **k: pytest.fail("a check ran"))
    for suite in ("all", *SUITES):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            run_suite(suite, n, m, seed=seed)


def test_all_runs_each_check_once():
    names = [r.comparison for r in run_suite("all", 2, 1)]
    assert names == [c.name for c in REGISTRY]
    for suite in ("limits", "spectrum"):
        assert "spectrum_p0_closed_form" in [r.comparison for r in run_suite(suite, 2, 1)]


def test_context_shares_spectra_within_a_run(monkeypatch):
    """A run computes each spectrum, S-matrix and value table once per parameter set.

    The checks share them through the store on the bracket table: every
    build is counted where it runs, in ``_continue`` and in the build of
    ``SpectrumResult.derived``.  Each is recorded at |p|, so a build at p and
    another at -p count as two builds of one parameter set.
    """
    from ellfusion import coeffs, operators

    built = []
    walk, derive = operators._continue, operators.SpectrumResult.derived

    def continued(params, seed):
        built.append(("spectrum", params.with_p(abs(params.p))))
        return walk(params, seed)

    def derived(spec, name, build):
        return derive(spec, name, lambda: built.append((name, spec.params.with_p(abs(spec.params.p)))) or build())

    coeffs.clear_coeff_caches()
    monkeypatch.setattr(operators, "_continue", continued)
    monkeypatch.setattr(operators.SpectrumResult, "derived", derived)
    run_suite("all", 2, 2)
    assert {what for what, _ in built} == {"spectrum", "s_matrix", "projection"}
    assert len(built) == len(set(built))


def test_projection_check_evaluates_each_value_once(monkeypatch):
    """The projection route evaluates P_l(e_nu) once per label and spectral point."""
    from ellfusion import coeffs, fusion, operators, polynomials, verification

    coeffs.clear_coeff_caches()  # no value table kept by an earlier test
    ctx = CheckContext()
    grid = verification._locked(3, 3, (0.7, 1.3), (0.0, 0.4))
    for params in grid:  # the S-matrices and Verlinde tables of the check
        ctx.table(params)
    entries = []
    batch = polynomials.evaluate_batch

    def counted(polys, points):
        values, scales = batch(polys, points)
        entries.append(values.size)
        return values, scales

    # Count every evaluated entry of the check, whichever module makes it:
    # evaluate_batch is the one evaluation path, and evaluate calls it too.
    for module in (fusion, operators, polynomials):
        monkeypatch.setattr(module, "evaluate_batch", counted, raising=False)
    assert _report("verlinde_vs_projection", n=3, m=3, ctx=ctx).passed
    N = len(operators.joint_spectrum(grid[0]).labels)
    assert sum(entries) == len(grid) * N * N


def test_limits_suite_builds_the_sine_matrix_once(monkeypatch):
    """The Kac-Peterson check and the classical fusion checks share the oracle's one S per (n, m)."""
    from ellfusion import oracles, verification

    calls = []
    build = oracles.kac_peterson_smatrix

    def counted(n, m):
        calls.append((n, m))
        return build(n, m)

    for module in (oracles, verification):  # every name the suite could call it by
        monkeypatch.setattr(module, "kac_peterson_smatrix", counted, raising=False)
    oracles._classical_transform.cache_clear()
    try:
        reports = run_suite("limits", 3, 2)
    finally:
        oracles._classical_transform.cache_clear()
    assert all(r.passed for r in reports)
    assert calls == [(3, 2)]
