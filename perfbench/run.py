"""Layered benchmark of the ellfusion chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One closed-loop, single-threaded client runs one operation at a time.

With ``--trace 0`` every pass runs untraced and the end-to-end metrics are
reported:
  wall_s       median wall time of one cold pass, each in a fresh process,
               timed after ``import ellfusion`` and parameter construction
               (cli: the three commands' process walls, import included,
               less the time the reference loop ran in them)
  warm_wall_s  median wall time of the same pass repeated in the process that
               just ran it, every cache left filled (cli: the commands run
               in-process after one filling round)
  setup_s      median time in a fresh interpreter to import ellfusion and
               build the workload's ModelParams
  peak_rss_mb  median ru_maxrss of the cold-pass process (cli: the largest
               of the three commands)
The three times are scaled to the host's nominal speed by a reference loop
timed all through each sample on the same core (see ``hostspeed.py``); the
raw medians are printed beside them.  All processes of a run are pinned to
one core.  With ``--trace 1`` one untraced and one traced cold pass run, and
the per-layer counts and self times of the traced pass are reported.

Every pass checks its results; failed checked units are counted, and the
failures recorded in ``refs/known_failures.json`` are expected.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed; any other code means it did not, and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
from hostspeed import REF_NOMINAL_S, scale  # noqa: E402
from layertrace import PER_LAYER, layer_metrics, merge  # noqa: E402
from workloads import SIZES, WORKLOADS, file_digest, out_files  # noqa: E402

# BLAS threads in every child process; 1 keeps the client single-threaded,
# so eig time measures eig and not the scheduler.
BLAS_THREADS = 1
# Least number of set-up samples per run; every pass child gives one, and
# set-up-only children make up the rest.
SETUP_SAMPLES = 5
# Warm passes in a pass child start until this much time has passed (at
# least one); the cli's in-process rounds likewise, after the filling round.
WARM_SECONDS = 2.0
# A child still running when the run has used this much time is killed and
# the run fails, so that no run overruns its 180 s limit.
RUN_BUDGET_S = 150.0
END_TO_END = (("wall_s", "s"), ("warm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


# ---------------------------------------------------------------------------
# Processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts child processes in a scratch directory and times them."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str], cwd: Path | None = None) -> dict:
        """Run to completion; returns wall time, ru_maxrss and the output paths."""
        self.count += 1
        log = self.workdir / f"child{self.count}.log"
        stdout = self.workdir / f"child{self.count}.out"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(stdout, "wb") as out, open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd or ROOT, env=self.env, stdout=out, stderr=err)
            box: dict = {}

            def reap() -> None:
                _, status, usage = os.wait4(proc.pid, 0)
                box["wall_s"] = time.perf_counter() - t0
                box["status"], box["usage"] = status, usage

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(timeout)
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                proc.returncode = -9
                raise BenchError(f"child timed out: {' '.join(argv)}")
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
        return {
            "code": proc.returncode,
            "wall_s": box["wall_s"],
            "rss_mb": box["usage"].ru_maxrss / 1024.0,
            "stdout": stdout,
            "log": log,
        }

    def child(self, mode: str, workload: str, size: str, **opts) -> dict:
        """Run ``child.py`` and return the JSON object it wrote."""
        result = self.workdir / f"result-{mode}-{time.monotonic_ns()}.json"
        argv = [sys.executable, str(BENCH / "child.py"), mode, "--workload", workload,
                "--size", size, "--out", str(result)]
        cwd = opts.pop("cwd", None)
        for key, value in opts.items():
            argv += [f"--{key.replace('_', '-')}", value if isinstance(value, str) else json.dumps(value)]
        proc = self.run(argv, cwd=cwd)
        if proc["code"] != 0:
            tail = proc["log"].read_text(errors="replace")[-2000:]
            raise BenchError(f"child {mode} {workload} exited {proc['code']}:\n{tail}")
        return json.loads(result.read_text()) | {"proc": proc}


# ---------------------------------------------------------------------------
# Statistics and records

def percentile_report(samples: list[float]) -> str:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    text = f"n={n} median={statistics.median(samples):.6g} samples=[{', '.join(f'{x:.4g}' for x in samples)}]"
    if n > 10:
        ordered = sorted(samples)
        k = n - 10  # ordered[k - 1] has exactly 10 samples above it
        text += f" p{100.0 * k / n:.0f}={ordered[k - 1]:.6g}"
    else:
        text += " (fewer than 11 samples: no percentile has 10 samples beyond it)"
    return text


def source_digest() -> str:
    """Digest of the library sources: identifies the code under test."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import mpmath
        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mp_version,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# The cli workload

def cli_pass(runner: Runner, cfg: dict, seed: int, traced: bool) -> dict:
    """The cli commands, each in a fresh interpreter, in a clean directory."""
    cwd = runner.workdir / f"cli{runner.count}"
    cwd.mkdir()
    walls, scaled, all_refs, rss, codes, stdouts, traces, main_s = [], [], [], [], [], [], [], 0.0
    for argv in cfg["commands"]:
        argv = argv + ["--seed", str(seed)]
        if traced:
            res = runner.child("cli", "cli", "full", cli_argv=argv, cwd=cwd)
            proc = res["proc"]
            codes.append(res["code"])
            traces.append(res["trace"])
            main_s += res["trace"]["wall_s"]
        else:
            # As ``python -m ellfusion.cli``, with the reference loop sampling
            # it; the loop's time is taken out of the process wall.
            refs_out = runner.workdir / f"refs{runner.count + 1}.json"
            proc = runner.run([sys.executable, str(BENCH / "clicmd.py"), str(refs_out), *argv],
                              cwd=cwd)
            codes.append(proc["code"])
            if not refs_out.is_file():
                tail = proc["log"].read_text(errors="replace")[-2000:]
                raise BenchError(f"cli command {argv[0]} exited {proc['code']}:\n{tail}")
            refs = json.loads(refs_out.read_text())
            proc["wall_s"] -= sum(refs)
            scaled.append(scale(proc["wall_s"], refs))
            all_refs += refs
        walls.append(proc["wall_s"])
        rss.append(proc["rss_mb"])
        stdouts.append(proc["stdout"].read_text(errors="replace"))
    files = out_files(cfg)
    digests = {name: file_digest(cwd / name) if (cwd / name).is_file() else None for name in files}
    out_bytes = sum((cwd / name).stat().st_size for name in files if (cwd / name).is_file())
    out_bytes += sum(len(s.encode()) for s in stdouts)
    return {"wall_s": sum(walls), "wall_s_scaled": sum(scaled), "refs": all_refs,
            "rss_mb": max(rss), "codes": codes, "stdouts": stdouts,
            "digests": digests, "output_bytes": out_bytes,
            "trace": merge(traces) if traced else None, "main_s": main_s}


def cli_units(cfg: dict, label: str, codes: list, stdouts: list) -> list[list]:
    units = []
    for argv, code, text in zip(cfg["commands"], codes, stdouts):
        units.append([f"cli/{label}/{argv[0]}/exit", code == 0, f"exit {code}"])
        if argv[0] == "verify":
            last = text.strip().splitlines()[-1] if text.strip() else ""
            units.append([f"cli/{label}/verify/ok", last.startswith("OK"), last])
    return units


def determinism_units(passes: list[tuple[str, dict]], size: str, seed: int) -> list[list]:
    """Output files byte-identical across this run's passes and to the last run."""
    units = []
    first_label, first = passes[0]
    for label, digests in passes[1:]:
        for name, digest in digests.items():
            same = digest is not None and digest == first[name]
            units.append([f"cli/{name}/{label}_vs_{first_label}/identical", same, ""])
    state = WORK / "cli_digests.json"
    key = f"{source_digest()}/{size}/seed={seed}"
    known = json.loads(state.read_text()) if state.is_file() else {}
    if key in known:
        for name, digest in first.items():
            same = digest is not None and digest == known[key].get(name)
            units.append([f"cli/{name}/previous_run/identical", same, ""])
    elif all(first.values()):
        known[key] = first
        tmp = state.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, state)
    return units


def run_cli(runner: Runner, size: str, seed: int, seconds: float, trace: bool):
    cfg = SIZES[size]["cli"]
    units: list[list] = []
    if trace:
        plain = cli_pass(runner, cfg, seed, traced=False)
        traced = cli_pass(runner, cfg, seed, traced=True)
        units += cli_units(cfg, "untraced", plain["codes"], plain["stdouts"])
        units += cli_units(cfg, "traced", traced["codes"], traced["stdouts"])
        units += determinism_units(
            [("untraced", plain["digests"]), ("traced", traced["digests"])], size, seed
        )
        metrics = layer_metrics(traced["trace"], traced["main_s"], traced["wall_s"],
                                plain["wall_s"], traced["output_bytes"])
        return units, {"metrics": metrics, "spans": traced["trace"]["spans"]}
    start = time.monotonic()
    cold = []
    # Cold passes take the first half of the run; the in-process rounds and
    # the set-up children the rest.
    while not cold or time.monotonic() - start < seconds / 2:
        cold.append(cli_pass(runner, cfg, seed, traced=False))
    warm_dir = runner.workdir / "cliwarm"
    warm_dir.mkdir()
    warm = runner.child("cliwarm", "cli", size, seed=seed, warm_seconds=WARM_SECONDS, cwd=warm_dir)
    setups = [runner.child("setup", "cli", size) for _ in range(SETUP_SAMPLES)]
    passes = [(f"cold{i + 1}", c["digests"]) for i, c in enumerate(cold)]
    for i, rnd in enumerate(warm["rounds"]):
        units += cli_units(cfg, f"inprocess{i + 1}", rnd["codes"], rnd["stdouts"])
        passes.append((f"inprocess{i + 1}", rnd["digests"]))
    for i, c in enumerate(cold):
        units += cli_units(cfg, f"cold{i + 1}", c["codes"], c["stdouts"])
    units += determinism_units(passes, size, seed)
    samples = {
        "wall_s": [c["wall_s_scaled"] for c in cold],
        "warm_wall_s": warm["warm_s_scaled"],
        "setup_s": [s["setup_s_scaled"] for s in setups],
        "peak_rss_mb": [c["rss_mb"] for c in cold],
    }
    raw = {
        "wall_s": [c["wall_s"] for c in cold],
        "warm_wall_s": warm["warm_s"],
        "setup_s": [s["setup_s"] for s in setups],
        "reference_loop": [r for c in cold for r in c["refs"]],
    }
    return units, {"samples": samples, "raw": raw}


# ---------------------------------------------------------------------------
# The in-process workloads

def run_inprocess(runner: Runner, workload: str, size: str, seed: int, seconds: float, trace: bool):
    refs = str(BENCH / "refs" / f"{size}.json")
    opts = {"seed": seed, "refs": refs}
    if trace:
        plain = runner.child("pass", workload, size, trace=0, **opts)
        traced = runner.child("pass", workload, size, trace=1, **opts)
        units = plain["units"] + traced["units"]
        metrics = layer_metrics(traced["trace"], traced["cold_s"], traced["cold_s"],
                                plain["cold_s"], 0)
        return units, {"metrics": metrics, "spans": traced["trace"]["spans"]}
    start = time.monotonic()
    passes = []
    longest = 0.0
    # Start another pass only while one as long as the longest so far still
    # ends within the run's seconds.
    while not passes or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        passes.append(runner.child("pass", workload, size, warm_seconds=WARM_SECONDS, **opts))
        longest = max(longest, time.monotonic() - t0)
    # Every pass child timed its own set-up too.
    setups = passes + [runner.child("setup", workload, size)
                       for _ in range(SETUP_SAMPLES - len(passes))]
    units = [u for p in passes for u in p["units"]]
    samples = {
        "wall_s": [p["cold_s_scaled"] for p in passes],
        "warm_wall_s": [w for p in passes for w in p["warm_s_scaled"]],
        "setup_s": [s["setup_s_scaled"] for s in setups],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    raw = {
        "wall_s": [p["cold_s"] for p in passes],
        "warm_wall_s": [w for p in passes for w in p["warm_s"]],
        "setup_s": [s["setup_s"] for s in setups],
        "reference_loop": [r for p in passes for r in p["refs"]],
    }
    return units, {"samples": samples, "raw": raw}


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks every workload to n=2, m=2")
    args = parser.parse_args()

    if not (ROOT / "src" / "ellfusion" / "__init__.py").is_file():
        print(f"error: no ellfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    runner = Runner(workdir, time.monotonic() + RUN_BUDGET_S)
    env = environment()
    # One core for every process of the run: the reference loop then times
    # the core the measured code runs on.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        if args.workload == "cli":
            units, report = run_cli(runner, args.size, args.seed, args.seconds, bool(args.trace))
        else:
            units, report = run_inprocess(
                runner, args.workload, args.size, args.seed, args.seconds, bool(args.trace)
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = set(json.loads((BENCH / "refs" / "known_failures.json").read_text())
                .get(args.size, {}).get(args.workload, []))
    failed_ids = [u[0] for u in units if not u[1]]
    unexpected = [(u[0], u[2]) for u in units if not u[1] and u[0] not in known]
    for unit_id, detail in unexpected[:20]:
        print(f"unexpected failure: {unit_id} {detail}")
    fixed = sorted(known - set(failed_ids))
    print(f"checked units: attempted={len(units)} failed={len(failed_ids)} "
          f"(known={len(failed_ids) - len(unexpected)}, unexpected={len(unexpected)}, "
          f"known but passing={len(fixed)}) "
          f"ops_failed_frac={len(failed_ids) / max(len(units), 1):.6g}")

    if "samples" in report:
        units_of = dict(END_TO_END)
        metrics = {}
        for name, values in report["samples"].items():
            print(f"{name} [{units_of[name]}]: {percentile_report(values)}")
            metrics[name] = {"value": statistics.median(values), "unit": units_of[name]}
        for name, values in report["raw"].items():
            print(f"raw {name} [s]: {percentile_report(values)}")
        print(f"reference loop nominal: {REF_NOMINAL_S} s")
    else:
        metrics = report["metrics"]
        for name, _ in PER_LAYER:
            print(f"{name} = {metrics[name]['value']!r} {metrics[name]['unit']}")
        trace_out = WORK / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_out.write_text(json.dumps(
            {"environment": env, "metrics": metrics, "spans": report["spans"]}, indent=1
        ))
        print(f"spans written to {trace_out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not unexpected and bool(units),
        "attempted": len(units),
        "failed": len(failed_ids),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
