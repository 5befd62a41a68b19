"""Per-layer tracing from outside the library.

Every public function of every layer module is replaced, in the namespace of
each module that refers to it, by a wrapper named after the call site (for
example ``coeffs.bracket`` or ``fusion.build_P``).  The benchmark client is
single-threaded, so one span stack gives each span its parent and its self
time (duration minus the time of wrapped children).  Spans are aggregated
in memory per (parent site, site) edge and written out once at the end;
nothing is written while the traced pass runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = (
    "kernel",
    "partitions",
    "coeffs",
    "polynomials",
    "littlewood",
    "operators",
    "fusion",
    "oracles",
    "verification",
    "cli",
)

# Functions whose calls count toward the coeffs and partitions metrics.
COEFF_FUNCS = ("hop_B", "psi_prime", "c_norm", "delta_weight")
PARTITION_FUNCS = ("vertical_strips", "underline", "check_partition", "add", "enumerate_level")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("kernel.bracket.calls", "count"),
    ("kernel.bracket.self_s", "s"),
    ("kernel.bracket.unique_frac", "ratio"),
    ("coeffs.calls", "count"),
    ("coeffs.self_s", "s"),
    ("partitions.calls", "count"),
    ("partitions.self_s", "s"),
    ("polynomials.build_P.calls", "count"),
    ("polynomials.build_P.self_s", "s"),
    ("polynomials.evaluate.calls", "count"),
    ("polynomials.evaluate.self_s", "s"),
    ("polynomials.terms", "count"),
    ("littlewood.lr_coefficients.calls", "count"),
    ("littlewood.multiply_monomial.self_s", "s"),
    ("littlewood.expand_in_P.self_s", "s"),
    ("operators.joint_spectrum.self_s", "s"),
    ("operators.build_truncated.self_s", "s"),
    ("operators.eig.calls", "count"),
    ("operators.eig.self_s", "s"),
    ("operators.homotopy.steps", "count"),
    ("operators.homotopy.accept_ratio", "ratio"),
    ("fusion.s_matrix.self_s", "s"),
    ("fusion.fusion_table.self_s", "s"),
    ("fusion.structure_constants_lr.calls", "count"),
    ("fusion.limit_protocol.param_sets", "count"),
    ("oracles.self_s", "s"),
    ("oracles.kac_peterson_smatrix.calls", "count"),
    ("verification.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _traceable(obj) -> bool:
    if isinstance(obj, functools._lru_cache_wrapper):
        return True
    return inspect.isfunction(obj)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("ellfusion."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Installs span wrappers on the layer modules and aggregates spans."""

    def __init__(self) -> None:
        self._stack = [[0.0, "client"]]
        self._edges: dict[str, dict[str, list]] = {}  # site -> parent -> [calls, total, self]
        self._site_func: dict[str, tuple[str, str]] = {}  # site -> (layer, function)
        self._patched: list[tuple[object, str, object]] = []
        self.bracket_args: set = set()
        self.built_terms: dict[int, int] = {}
        self.lr_params: set = set()
        self.homotopy_steps = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import ellfusion

        hooks = {
            ("kernel", "bracket"): self._on_bracket,
            ("polynomials", "build_P"): self._on_build_p,
            ("littlewood", "lr_coefficients"): self._on_lr,
            ("operators", "joint_spectrum"): self._on_spectrum,
        }
        namespaces = [("ellfusion", ellfusion)]
        namespaces += [(name, importlib.import_module(f"ellfusion.{name}")) for name in LAYERS]
        for caller, module in namespaces:
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if attr.startswith("_") or not _traceable(obj) or layer is None:
                    continue
                hook = hooks.get((layer, obj.__name__))
                self._patch(module, attr, self._wrap(obj, f"{caller}.{attr}", layer, obj.__name__, hook))
        eig = np.linalg.eig
        self._patch(np.linalg, "eig", self._wrap(eig, "operators.np.linalg.eig", "operators", "eig"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, orig, site: str, layer: str, func: str, hook=None):
        stack = self._stack
        clock = time.perf_counter
        by_parent = self._edges.setdefault(site, {})
        self._site_func[site] = (layer, func)

        def traced(*args, **kwargs):
            frame = [0.0, site]
            stack.append(frame)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                stat = by_parent.get(parent[1])
                if stat is None:
                    stat = by_parent[parent[1]] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if hook is not None:
                hook(args, kwargs, out)
            return out

        functools.update_wrapper(traced, orig)
        for name in ("cache_clear", "cache_info"):
            if hasattr(orig, name):
                setattr(traced, name, getattr(orig, name))
        return traced

    # -- counters measured at the boundaries ---------------------------------

    def _on_bracket(self, args, kwargs, out) -> None:
        z, params = args
        self.bracket_args.add((complex(z), params.alpha, params.p, params.precision))

    def _on_build_p(self, args, kwargs, out) -> None:
        self.built_terms[id(out)] = len(out)

    def _on_lr(self, args, kwargs, out) -> None:
        self.lr_params.add(args[2] if len(args) > 2 else kwargs["params"])

    def _on_spectrum(self, args, kwargs, out) -> None:
        self.homotopy_steps += len(out.homotopy_steps)

    # -- results -------------------------------------------------------------

    def spans(self) -> list[dict]:
        """Aggregated spans: one row per (parent site, site) edge."""
        rows = []
        for site, by_parent in self._edges.items():
            layer, func = self._site_func[site]
            for parent, (calls, total, self_s) in by_parent.items():
                rows.append({"site": site, "parent": parent, "layer": layer, "function": func,
                             "calls": calls, "total_s": total, "self_s": self_s})
        return rows

    def counters(self) -> dict:
        return {
            "bracket_unique": len(self.bracket_args),
            "built_terms": sum(self.built_terms.values()),
            "lr_param_sets": len(self.lr_params),
            "homotopy_steps": self.homotopy_steps,
        }


def merge(parts: list[dict]) -> dict:
    """Combine the span rows and counters of several traced processes."""
    rows: dict[tuple[str, str], dict] = {}
    counters: dict[str, int] = {}
    for part in parts:
        for row in part["spans"]:
            key = (row["site"], row["parent"])
            if key in rows:
                acc = rows[key]
                for field in ("calls", "total_s", "self_s"):
                    acc[field] += row[field]
            else:
                rows[key] = dict(row)
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": list(rows.values()), "counters": counters}


def layer_metrics(
    trace: dict, covered_wall_s: float, wall_s: float, untraced_wall_s: float, output_bytes: int
) -> dict:
    """Per-layer metrics from aggregated spans, counters and pass walls.

    ``covered_wall_s`` is the traced time the spans can cover (the pass
    after import); ``wall_s`` and ``untraced_wall_s`` are the traced and
    untraced walls of the same pass, which give the tracing overhead.
    """
    calls: dict[tuple[str, str], int] = {}
    self_s: dict[tuple[str, str], float] = {}
    for row in trace["spans"]:
        key = (row["layer"], row["function"])
        calls[key] = calls.get(key, 0) + row["calls"]
        self_s[key] = self_s.get(key, 0.0) + row["self_s"]

    def c(layer, *funcs):
        return sum(n for (lay, f), n in calls.items() if lay == layer and (not funcs or f in funcs))

    def s(layer, *funcs):
        return sum(t for (lay, f), t in self_s.items() if lay == layer and (not funcs or f in funcs))

    counters = trace["counters"]
    bracket_calls = c("kernel", "bracket")
    spectra_built = c("operators", "conjugated_matrices")
    values = {
        "kernel.bracket.calls": bracket_calls,
        "kernel.bracket.self_s": s("kernel", "bracket"),
        "kernel.bracket.unique_frac": counters["bracket_unique"] / bracket_calls if bracket_calls else 0.0,
        "coeffs.calls": c("coeffs", *COEFF_FUNCS),
        "coeffs.self_s": s("coeffs", *COEFF_FUNCS),
        "partitions.calls": c("partitions", *PARTITION_FUNCS),
        "partitions.self_s": s("partitions", *PARTITION_FUNCS),
        "polynomials.build_P.calls": c("polynomials", "build_P"),
        "polynomials.build_P.self_s": s("polynomials", "build_P"),
        "polynomials.evaluate.calls": c("polynomials", "evaluate"),
        "polynomials.evaluate.self_s": s("polynomials", "evaluate"),
        "polynomials.terms": counters["built_terms"],
        "littlewood.lr_coefficients.calls": c("littlewood", "lr_coefficients"),
        "littlewood.multiply_monomial.self_s": s("littlewood", "multiply_monomial"),
        "littlewood.expand_in_P.self_s": s("littlewood", "expand_in_P"),
        "operators.joint_spectrum.self_s": s("operators", "joint_spectrum"),
        "operators.build_truncated.self_s": s("operators", "build_truncated"),
        "operators.eig.calls": c("operators", "eig"),
        "operators.eig.self_s": s("operators", "eig"),
        "operators.homotopy.steps": counters["homotopy_steps"],
        "operators.homotopy.accept_ratio": (
            counters["homotopy_steps"] / spectra_built if spectra_built else 0.0
        ),
        "fusion.s_matrix.self_s": s("fusion", "s_matrix"),
        "fusion.fusion_table.self_s": s("fusion", "fusion_table"),
        "fusion.structure_constants_lr.calls": c("fusion", "structure_constants_lr"),
        "fusion.limit_protocol.param_sets": counters["lr_param_sets"],
        "oracles.self_s": s("oracles"),
        "oracles.kac_peterson_smatrix.calls": c("oracles", "kac_peterson_smatrix"),
        "verification.self_s": s("verification"),
        "cli.self_s": s("cli"),
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall_s,
        "trace.covered_frac": sum(self_s.values()) / covered_wall_s,
        "trace.overhead_frac": (wall_s - untraced_wall_s) / untraced_wall_s,
    }
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
