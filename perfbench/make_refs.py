"""Generate the reference data the workload checks compare against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run once, from the root of a checkout, and commit ``perfbench/refs/``.  The
references come from routes independent of the timed ones: the e-values of
the nome sweep at seed 0, the classical fusion integers from the sine-form
Kac-Peterson matrix (built and inverted once per level), and the Verlinde
route of the fusion table for the generic ring point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import SIZES, fmt_partition, point_name  # noqa: E402


def classical_table(n: int, m: int) -> dict:
    from ellfusion.oracles import kac_peterson_smatrix

    labels, S = kac_peterson_smatrix(n, m)
    Sinv = np.linalg.inv(S)
    out = {}
    for i, lam in enumerate(labels):
        for j, mu in enumerate(labels):
            vec = (S[i, :] * S[j, :] / S[0, :]) @ Sinv
            entries = []
            for k, kappa in enumerate(labels):
                nearest = round(vec[k].real)
                if abs(vec[k] - nearest) > 1e-6:
                    raise ValueError(f"non-integral classical fusion {vec[k]!r}")
                if nearest:
                    entries.append([list(kappa), int(nearest)])
            out[f"{fmt_partition(lam)}x{fmt_partition(mu)}"] = entries
    return out


def verlinde_table(params) -> dict:
    from ellfusion.fusion import fusion_table

    table = fusion_table(params, route="verlinde", seed=0)
    return {
        f"{fmt_partition(lam)}x{fmt_partition(mu)}": [[list(k), v] for k, v in sorted(entries.items())]
        for (lam, mu), entries in table.entries.items()
    }


def references(cfg: dict) -> dict:
    from ellfusion import ModelParams
    from ellfusion.fusion import s_matrix

    sweep = cfg["nome_sweep"]
    evalues = {}
    for p in sweep["ps"]:
        params = ModelParams.locked(sweep["n"], sweep["m"], sweep["g"], p)
        E = s_matrix(params, seed=0).spectrum.e_matrix()
        evalues[repr(p)] = [[[z.real, z.imag] for z in row] for row in E]
    ring = {}
    for pt in cfg["ring"]["points"]:
        if pt["ref"] == "classical":
            ring[point_name(pt)] = classical_table(pt["n"], pt["m"])
        else:
            ring[point_name(pt)] = verlinde_table(ModelParams.locked(pt["n"], pt["m"], pt["g"], pt["p"]))
    return {"nome_sweep": evalues, "ring": ring}


def main() -> int:
    out_dir = BENCH / "refs"
    out_dir.mkdir(exist_ok=True)
    for size, cfg in SIZES.items():
        path = out_dir / f"{size}.json"
        path.write_text(json.dumps(references(cfg), separators=(",", ":"), sort_keys=True) + "\n")
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
