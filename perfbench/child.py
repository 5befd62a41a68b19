"""One fresh interpreter of the benchmark; ``run.py`` starts it and reads its result.

Modes:
  setup    import ellfusion and build the workload's ModelParams, timed
  pass     set up, run one cold pass, then warm passes in the same process,
           then check the cold results; with --trace 1, trace the cold pass
  cli      run one ``ellfusion`` command in this interpreter with tracing on
  cliwarm  run the cli workload's commands in this interpreter repeatedly and
           time every round after the first, which fills the caches

Each mode writes one JSON object to the file named by --out.  Timed sections
are also reported scaled to the host's nominal speed (``hostspeed``), under
keys ending in ``_scaled``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from hostspeed import SpeedClock


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _setup(workload: str, cfg: dict):
    """Import the library and build the parameters; returns (params, clock)."""
    clock = SpeedClock()
    import ellfusion  # noqa: F401  (the import is what set-up times)
    from workloads import build_params

    params = build_params(workload, cfg)
    return params, clock.stop()


def mode_setup(args, cfg) -> dict:
    _, clock = _setup(args.workload, cfg)
    return {"setup_s": clock.seconds, "setup_s_scaled": clock.scaled}


def mode_pass(args, cfg) -> dict:
    params, setup = _setup(args.workload, cfg)
    import workloads

    with open(args.refs) as handle:
        refs = json.load(handle)
    work = workloads.ring_pairs(params, args.seed) if args.workload == "ring" else None
    out = {"setup_s": setup.seconds, "setup_s_scaled": setup.scaled}
    if args.trace:
        # The traced pass runs in one piece, without the reference loop.
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            cold = workloads.run_pass(args.workload, params, args.seed, work)
        finally:
            cold_s = time.perf_counter() - t0
            tracer.uninstall()
        out["trace"] = {"spans": tracer.spans(), "counters": tracer.counters(), "wall_s": cold_s}
        out |= {"cold_s": cold_s, "cold_s_scaled": None}
    else:
        clock = SpeedClock()
        cold = workloads.run_pass(args.workload, params, args.seed, work)
        clock.stop()
        out |= {"cold_s": clock.seconds, "cold_s_scaled": clock.scaled, "refs": clock.refs}
    out["rss_mb"] = _rss_mb()
    warm_s: list[float] = []
    warm_scaled: list[float] = []
    reproduced = True
    cold_fingerprint = workloads.fingerprint(args.workload, cold)
    warm_from = time.perf_counter()
    while args.warm_seconds > 0 and (not warm_s or time.perf_counter() - warm_from < args.warm_seconds):
        clock = SpeedClock()
        warm = workloads.run_pass(args.workload, params, args.seed, work)
        clock.stop()
        warm_s.append(clock.seconds)
        warm_scaled.append(clock.scaled)
        reproduced = reproduced and workloads.fingerprint(args.workload, warm) == cold_fingerprint
    units = workloads.run_checks(args.workload, cfg, params, cold, refs, args.seed)
    if warm_s:
        units.append([f"{args.workload}/warm_reproduces_cold", reproduced, f"{len(warm_s)} warm passes"])
    return out | {"warm_s": warm_s, "warm_s_scaled": warm_scaled, "units": units}


def mode_cli(args, cfg) -> dict:
    from ellfusion import cli
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(args.cli_argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
    sys.stdout.flush()
    return {"code": code, "trace": {"spans": tracer.spans(), "counters": tracer.counters(),
                                    "wall_s": main_s}}


def mode_cliwarm(args, cfg) -> dict:
    from ellfusion import cli
    from workloads import file_digest, out_files

    rounds = []
    # One round fills the caches; then at least two timed rounds.
    while len(rounds) < 3 or time.perf_counter() - timed_from < args.warm_seconds:
        if len(rounds) == 1:
            timed_from = time.perf_counter()
        codes, stdouts = [], []
        clock = SpeedClock()
        for argv in cfg["commands"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.main(argv + ["--seed", str(args.seed)]))
            stdouts.append(buf.getvalue())
        clock.stop()
        digests = {name: file_digest(name) for name in out_files(cfg)}
        rounds.append({"wall_s": clock.seconds, "wall_s_scaled": clock.scaled, "codes": codes,
                       "stdouts": stdouts, "digests": digests})
    return {"warm_s": [r["wall_s"] for r in rounds[1:]],
            "warm_s_scaled": [r["wall_s_scaled"] for r in rounds[1:]], "rounds": rounds}


MODES = {"setup": mode_setup, "pass": mode_pass, "cli": mode_cli, "cliwarm": mode_cliwarm}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", default="cli")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warm-seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--refs", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cli-argv", type=json.loads, default=[], help="JSON list (cli mode)")
    args = parser.parse_args()
    from workloads import SIZES

    cfg = SIZES[args.size][args.workload]
    out = os.path.abspath(args.out)
    _write(out, MODES[args.mode](args, cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
