"""Workload inputs, one pass of each workload, and the checks on its results.

A workload pass calls the library the way a user does, one call at a time.
The checks run after the timed region and compare against references that
``make_refs.py`` generated once and stored under ``refs/``.  Every checked
unit yields ``(unit_id, ok, detail)``; a unit fails when its call raises
``ComputationError``, yields a non-finite value, or misses its tolerance.

Library functions are looked up on their modules at call time (never bound
at import), so the tracer's wrappers see every call the workload makes.
numpy is imported inside the functions, so that a set-up child pays for it
inside its timed ``import ellfusion``.
"""

from __future__ import annotations

import hashlib
import math

SIZES = {
    "full": {
        "spectral": {"n": 4, "m": 8, "g": 0.7, "p": 0.3, "projection_pairs": 2},
        "nome_sweep": {"n": 4, "m": 4, "g": 0.7, "ps": [0.3, -0.3, 0.6, -0.6, 0.9, -0.9]},
        "ring": {"points": [
            {"n": 4, "m": 5, "g": 1.0, "p": 0.3, "ref": "classical"},
            {"n": 3, "m": 8, "g": 0.7, "p": 0.3, "ref": "verlinde"},
        ]},
        "cli": {"commands": [
            ["verify", "--suite", "all", "--n", "3", "--m", "3"],
            ["fusion", "--n", "4", "--m", "6", "--g", "0.7", "--p", "0.3", "--out", "fusion.json"],
            ["smatrix", "--n", "4", "--m", "4", "--g", "0.7", "--p", "0.9", "--out", "smatrix.json"],
        ]},
    },
    # Every workload shrunk to n=2, m=2, for the harness smoke test.
    "smoke": {
        "spectral": {"n": 2, "m": 2, "g": 0.7, "p": 0.3, "projection_pairs": 2},
        "nome_sweep": {"n": 2, "m": 2, "g": 0.7, "ps": [0.3, -0.3, 0.6, -0.6, 0.9, -0.9]},
        "ring": {"points": [
            {"n": 2, "m": 2, "g": 1.0, "p": 0.3, "ref": "classical"},
            {"n": 2, "m": 2, "g": 0.7, "p": 0.3, "ref": "verlinde"},
        ]},
        "cli": {"commands": [
            ["verify", "--suite", "all", "--n", "2", "--m", "2"],
            ["fusion", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3", "--out", "fusion.json"],
            ["smatrix", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.9", "--out", "smatrix.json"],
        ]},
    },
}

# BENCHMARK.json declares nome_sweep, ring and cli.  spectral runs here and
# in the smoke test, but one run of it (a cold and a warm pass of 14-20 s
# each) lasts about 45 s, and the 92 runs that four workloads take in one
# check of the benchmark would not fit in its hour.
WORKLOADS = ("spectral", "nome_sweep", "ring", "cli")

# Acceptance tolerances of the checks.
TOL_IDENTITY = 1e-8
TOL_DET = 1e-6
TOL_ROUTES = 1e-8
TOL_TABLE = 1e-8
TOL_SYMMETRY_P = 1e-12
TOL_EVALUES = 1e-8
TOL_CLASSICAL = 1e-5
TOL_LR_VERLINDE = 1e-7


def fmt_partition(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def point_name(pt: dict) -> str:
    return f"n{pt['n']}m{pt['m']}g{pt['g']}"


def dict_deviation(a: dict, b: dict) -> float:
    """Largest |a[k] - b[k]| over the union of keys; NaN propagates as inf."""
    worst = 0.0
    for k in set(a) | set(b):
        d = abs(a.get(k, 0.0) - b.get(k, 0.0))
        if not math.isfinite(d):
            return math.inf
        worst = max(worst, d)
    return worst


def out_files(cfg: dict) -> list[str]:
    """Output files the cli workload's commands write, relative to their cwd."""
    return [argv[argv.index("--out") + 1] for argv in cfg["commands"] if "--out" in argv]


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _within(value: float, tol: float) -> bool:
    return math.isfinite(value) and value <= tol


# ---------------------------------------------------------------------------
# Parameter construction (part of set-up)

def build_params(workload: str, cfg: dict):
    """The ModelParams a workload runs on; cli builds those of its commands."""
    import ellfusion

    locked = ellfusion.ModelParams.locked
    if workload == "spectral":
        return locked(cfg["n"], cfg["m"], cfg["g"], cfg["p"])
    if workload == "nome_sweep":
        return [locked(cfg["n"], cfg["m"], cfg["g"], p) for p in cfg["ps"]]
    if workload == "ring":
        return [locked(pt["n"], pt["m"], pt["g"], pt["p"]) for pt in cfg["points"]]
    if workload == "cli":
        out = []
        for argv in cfg["commands"]:
            flags = dict(zip(argv[1::2], argv[2::2]))
            out.append(locked(int(flags["--n"]), int(flags["--m"]),
                              float(flags.get("--g", 0.8)), float(flags.get("--p", 0.3))))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def ring_pairs(params_list, seed: int):
    """Every ordered pair of labels at every ring point, in a seeded order."""
    import ellfusion
    import numpy as np

    pairs = []
    for k, params in enumerate(params_list):
        labels = ellfusion.partitions.enumerate_level(params.n, params.m)
        pairs.extend((k, lam, mu) for lam in labels for mu in labels)
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [pairs[i] for i in order]


# ---------------------------------------------------------------------------
# One pass of each in-process workload

def run_pass(workload: str, params, seed: int, work=None):
    """Run one pass; the result is handed unchanged to ``check``."""
    import ellfusion

    error_type = ellfusion.errors.ComputationError
    if workload == "spectral":
        sm = ellfusion.fusion.s_matrix(params, seed=seed)
        table = ellfusion.fusion.fusion_table(
            params, route="verlinde", spectrum=sm.spectrum, seed=seed
        )
        return sm, table
    if workload == "nome_sweep":
        out = []
        for pp in params:
            try:
                out.append(ellfusion.fusion.s_matrix(pp, seed=seed))
            except error_type as exc:
                out.append(exc)
        return out
    if workload == "ring":
        out = {}
        for k, lam, mu in work:
            try:
                out[(k, lam, mu)] = ellfusion.fusion.structure_constants_lr(
                    lam, mu, params[k], return_flags=True
                )
            except error_type as exc:
                out[(k, lam, mu)] = exc
        return out
    raise ValueError(f"workload {workload!r} has no in-process pass")


def fingerprint(workload: str, result):
    """Plain data that two passes share exactly when they computed the same results."""
    if workload == "spectral":
        sm, table = result
        return sm.S.tobytes(), table.entries
    if workload == "nome_sweep":
        return [repr(x) if isinstance(x, Exception) else x.S.tobytes() for x in result]
    return {k: repr(v) if isinstance(v, Exception) else v for k, v in result.items()}


# ---------------------------------------------------------------------------
# Checks

def _smatrix_units(prefix: str, sm):
    ident = sm.identity_residual()
    yield f"{prefix}/identity", _within(ident, TOL_IDENTITY), f"{ident:.3e}"
    det = sm.det_residual()
    yield f"{prefix}/det", _within(det, TOL_DET), f"{det:.3e}"


def check_spectral(cfg, params, result, refs, seed: int):
    import ellfusion
    import numpy as np

    sm, table = result
    yield from _smatrix_units("spectral", sm)
    labels = table.labels
    rng = np.random.default_rng(seed)
    for _ in range(cfg["projection_pairs"]):
        lam, mu = (labels[i] for i in rng.integers(len(labels), size=2))
        unit = f"spectral/projection/{fmt_partition(lam)}x{fmt_partition(mu)}"
        try:
            proj = ellfusion.fusion.structure_constants_projection(
                lam, mu, params, spectrum=sm.spectrum
            )
        except ellfusion.errors.ComputationError as exc:
            yield unit, False, type(exc).__name__
            continue
        dev = dict_deviation(table.entries[(lam, mu)], proj)
        yield unit, _within(dev, TOL_ROUTES), f"{dev:.3e}"
    zero = labels[0]
    for mu in labels:
        dev = dict_deviation(table.entries[(zero, mu)], {mu: 1.0})
        yield f"spectral/unit_row/{fmt_partition(mu)}", _within(dev, TOL_TABLE), f"{dev:.3e}"
    for i, lam in enumerate(labels):
        for mu in labels[i + 1:]:
            dev = dict_deviation(table.entries[(lam, mu)], table.entries[(mu, lam)])
            unit = f"spectral/symmetry/{fmt_partition(lam)}x{fmt_partition(mu)}"
            yield unit, _within(dev, TOL_TABLE), f"{dev:.3e}"


def check_nome_sweep(cfg, params, result, refs, seed: int):
    import ellfusion
    import numpy as np

    by_p = dict(zip(cfg["ps"], result))
    for p, sm in by_p.items():
        prefix = f"nome_sweep/p={p}"
        if isinstance(sm, ellfusion.errors.ComputationError):
            for what in ("identity", "det", "reference"):
                yield f"{prefix}/{what}", False, type(sm).__name__
            continue
        yield from _smatrix_units(prefix, sm)
        want = np.array([[complex(*z) for z in row] for row in refs["nome_sweep"][repr(p)]])
        dev = float(np.abs(sm.spectrum.e_matrix() - want).max())
        yield f"{prefix}/reference", _within(dev, TOL_EVALUES), f"{dev:.3e}"
    for p in cfg["ps"]:
        if p <= 0 or -p not in by_p:
            continue
        unit = f"nome_sweep/p=+-{p}/symmetry"
        a, b = by_p[p], by_p[-p]
        if isinstance(a, Exception) or isinstance(b, Exception):
            yield unit, False, "ComputationError"
            continue
        dev = float(np.abs(a.spectrum.e_matrix() - b.spectrum.e_matrix()).max())
        yield unit, _within(dev, TOL_SYMMETRY_P), f"{dev:.3e}"


def check_ring(cfg, params, result, refs, seed: int):
    import ellfusion

    points = cfg["points"]
    for (k, lam, mu), got in result.items():
        pt = points[k]
        unit = f"ring/{point_name(pt)}/{fmt_partition(lam)}x{fmt_partition(mu)}"
        if isinstance(got, ellfusion.errors.ComputationError):
            yield unit, False, f"{type(got).__name__}: {str(got)[:80]}"
            continue
        out, flags = got
        if flags:
            yield unit, False, f"flagged keys {sorted(flags)}"
            continue
        want = refs["ring"][point_name(pt)][f"{fmt_partition(lam)}x{fmt_partition(mu)}"]
        want = {tuple(kappa): v for kappa, v in want}
        tol = TOL_CLASSICAL if pt["ref"] == "classical" else TOL_LR_VERLINDE
        dev = dict_deviation(out, want)
        yield unit, _within(dev, tol), f"{dev:.3e}"


CHECKS = {"spectral": check_spectral, "nome_sweep": check_nome_sweep, "ring": check_ring}


def run_checks(workload: str, cfg, params, result, refs, seed: int) -> list[list]:
    return [list(u) for u in CHECKS[workload](cfg, params, result, refs, seed)]
