import pytest

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
    assert r.passed and r.max_abs >= 0.0 and r.max_rel >= 0.0
    assert _report("level_boundary", n=3, m=1).passed
    assert _report("route_agreement", n=2, m=1).passed
    assert _report("smatrix_kac_peterson", n=2, m=2).passed
    assert _report("kac_peterson_normalization", n=2, m=2).passed
    assert _report("fusion_g1_classical", n=3, m=1).passed
    assert _report("fusion_g1_classical_integers", n=3, m=1).passed


def test_run_suite_dispatch():
    assert run_suite("limits", 2, 1)
    with pytest.raises(ValueError):
        run_suite("bogus", 2, 1)


def test_all_runs_each_check_once():
    names = [r.comparison for r in run_suite("all", 2, 1)]
    assert names == [c.name for c in REGISTRY]
    for suite in ("limits", "spectrum"):
        assert "spectrum_p0_closed_form" in [r.comparison for r in run_suite(suite, 2, 1)]


def test_context_shares_spectra_within_a_run(monkeypatch):
    from ellfusion import fusion, verification

    calls = {"joint_spectrum": [], "s_matrix": []}

    def counting(module, name):
        real = getattr(module, name)

        def counted(params, *args, **kwargs):
            calls[name].append(params)
            return real(params, *args, **kwargs)

        return counted

    for module in (fusion, verification):
        for name in calls:
            monkeypatch.setattr(module, name, counting(module, name))
    run_suite("all", 2, 2)
    for made in calls.values():
        assert made and len(made) == len(set(made))


def test_projection_check_evaluates_each_value_once(monkeypatch):
    """The projection route evaluates P_l(e_nu) once per label and spectral point."""
    from ellfusion import fusion, operators, polynomials, verification

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
    N = len(ctx.spectrum(grid[0]).labels)
    assert sum(entries) == len(grid) * N * N
