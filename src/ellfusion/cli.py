"""Command-line front end with deterministic, machine-readable output.

Subcommands: poly, lr, pieri, spectrum, fusion, smatrix, verify.  Output is
canonical JSON (CSV for the tabular commands): keys in fixed order, floats
in shortest round-trip form, complex numbers as {"re":, "im":} pairs, and
the full parameter header plus RNG seed embedded in every payload.  Files
are written atomically.  Exit codes: 0 success, 1 computational error
(error class name on stderr), 2 usage error (a bad flag, or a ValueError of
the library's argument validation, in one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ComputationError
from .kernel import ModelParams
from .littlewood import lr_coefficients
from .operators import joint_spectrum
from .partitions import canonical_key, check_partition, vertical_strips
from .polynomials import build_P
from .fusion import FusionTable, fusion_pieri, fusion_table, s_matrix
from .verification import SUITES, run_suite
from . import coeffs
from .kernel import realify


def _partition_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}")


def _add_model_flags(sub: argparse.ArgumentParser, locked_only: bool, require_gp: bool = True) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of rows/variables")
    sub.add_argument("--m", type=int, default=0, help="level (level-locked mode)")
    sub.add_argument("--g", type=float, required=require_gp, default=0.8, help="coupling")
    sub.add_argument("--p", type=float, required=require_gp, default=0.3, help="nome in (-1, 1)")
    sub.add_argument("--precision", default="double", help="double or mp<digits>")
    if locked_only:
        return
    sub.add_argument("--alpha", type=float, default=None, help="phase scale (free mode)")
    sub.add_argument(
        "--level-locked",
        action="store_true",
        help="lock alpha = 2*pi/(m + n*g) instead of taking --alpha",
    )


def _add_output_flags(sub: argparse.ArgumentParser, formats=("json",)) -> None:
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfusion",
        description="Elliptic difference operators on partitions and level-truncated fusion rings",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("poly", help="monomial expansion of an eigenpolynomial")
    _add_model_flags(sp, locked_only=False)
    _add_output_flags(sp)
    sp.add_argument("--mu", type=_partition_arg, required=True)

    sp = subs.add_parser("lr", help="structure coefficients of a basis product")
    _add_model_flags(sp, locked_only=False)
    _add_output_flags(sp, formats=("json", "csv"))
    sp.add_argument("--lam", type=_partition_arg, required=True)
    sp.add_argument("--mu", type=_partition_arg, required=True)

    sp = subs.add_parser("pieri", help="strip weights for multiplication by e_r")
    _add_model_flags(sp, locked_only=False)
    _add_output_flags(sp, formats=("json", "csv"))
    sp.add_argument("--lam", type=_partition_arg, required=True)
    sp.add_argument("--r", type=int, required=True)

    sp = subs.add_parser("spectrum", help="joint spectrum of the truncated operators")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp)

    sp = subs.add_parser("fusion", help="fusion structure constants over the level cone")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp, formats=("json", "csv"))
    sp.add_argument("--route", choices=("verlinde", "lr", "both"), default="verlinde")

    sp = subs.add_parser("smatrix", help="spectral transform, its inverse, and checks")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp)

    sp = subs.add_parser("verify", help="run a verification suite")
    _add_model_flags(sp, locked_only=True, require_gp=False)
    _add_output_flags(sp)
    sp.add_argument("--suite", choices=(*SUITES, "all"), default="all")

    return parser


def _make_params(args, parser: argparse.ArgumentParser, locked_only: bool) -> ModelParams:
    if locked_only or getattr(args, "level_locked", False):
        if getattr(args, "alpha", None) is not None and getattr(args, "level_locked", False):
            parser.error("--alpha conflicts with --level-locked")
        return ModelParams.locked(args.n, args.m, args.g, args.p, precision=args.precision)
    if args.alpha is None:
        parser.error("free mode needs --alpha (or pass --level-locked)")
    return ModelParams.free(
        args.n, g=args.g, p=args.p, alpha=args.alpha, m=args.m, precision=args.precision
    )


def _cnum(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ellfusion-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_STR_ONLY = frozenset([str])


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant")
    return float.__repr__(x)


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)``, byte for byte.

    With an indent, json falls back to its pure-Python encoder, one
    generator per container.  This writer appends to one list of chunks
    instead, writes scalars inline and a list of plain ints or floats with
    one join.  It handles dicts with str keys, lists, tuples, str, int,
    float, bool and None of exactly those types; any other value (a
    subclass, a non-string key) goes to json.dumps, its newlines indented to
    its depth.  A ``FusionTable`` is written as its list of per-pair blocks
    (see ``_fusion_table_chunks``).
    """
    chunks: list[str] = []
    put = chunks.append
    text_of = {
        str: encode_basestring_ascii,
        float: _float_text,
        int: int.__repr__,
        bool: lambda b: "true" if b else "false",
        type(None): lambda _: "null",
    }.get

    def write(o, newline: str) -> None:
        """Write the container o, whose line starts with newline (scalars are the caller's)."""
        kind = type(o)
        inner = newline + "  "
        if kind is list or kind is tuple:
            if not o:
                put("[]")
                return
            kinds = set(map(type, o))
            if len(kinds) == 1 and kinds <= {int, float}:
                put(_list_text(map(text_of(kinds.pop()), o), newline))
                return
            sep = "[" + inner
            for v in o:
                text = text_of(type(v))
                if text is None:
                    put(sep)
                    write(v, inner)
                else:
                    put(sep + text(v))
                sep = "," + inner
            put(newline + "]")
        elif kind is dict and _STR_ONLY.issuperset(map(type, o)):
            if not o:
                put("{}")
                return
            sep = "{" + inner
            for k, v in o.items():
                text = text_of(type(v))
                if text is None:
                    put(sep + encode_basestring_ascii(k) + ": ")
                    write(v, inner)
                else:
                    put(sep + encode_basestring_ascii(k) + ": " + text(v))
                sep = "," + inner
            put(newline + "}")
        elif kind is FusionTable:
            chunks.extend(_fusion_table_chunks(o, newline))
        else:  # subclasses, non-string keys, and what json rejects
            put(json.dumps(o, indent=2, allow_nan=False).replace("\n", newline))

    text = text_of(type(payload))
    if text is not None:
        return text(payload)
    write(payload, "\n")
    return "".join(chunks)


def _list_text(items, newline: str) -> str:
    """An indented JSON list of item texts, whose line starts with newline."""
    inner = newline + "  "
    text = ("," + inner).join(items)
    return "[" + inner + text + newline + "]" if text else "[]"


def _fusion_table_chunks(table: FusionTable, newline: str):
    """The blocks of a fusion table as indented JSON, read from ``table.values``.

    One block per ordered pair (lam, mu), in label order: ``{"lam", "mu",
    "entries": [{"kappa", "value"}, ...], "flagged": [...]}``, with the
    nonzero values in kappa order and the flagged kappas in canonical order.
    The chunks join to the bytes of ``json.dumps(blocks, indent=2)`` at this
    depth; each label's text is built once per depth, and a non-finite value
    raises ValueError, as json.dumps does.
    """
    values, labels = table.values, table.labels
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    i1 = newline + "  "  # a block
    i2 = i1 + "  "  # its keys
    i3 = i2 + "  "  # an entry, a flagged label
    i4 = i3 + "  "  # an entry's keys
    pair_text = [_list_text(map(int.__repr__, lam), i2) for lam in labels]
    entry_head = [
        "{" + i4 + '"kappa": ' + _list_text(map(int.__repr__, kappa), i4) + "," + i4 + '"value": '
        for kappa in labels
    ]
    nonzero = values != 0
    counts = iter(nonzero.sum(axis=2).ravel().tolist())  # pair by pair
    entries = zip(np.nonzero(nonzero)[2].tolist(), values[nonzero].tolist())  # and kappa ascending
    lead = "[" + i1
    for i, lam in enumerate(labels):
        head = "{" + i2 + '"lam": ' + pair_text[i] + "," + i2 + '"mu": '
        for j, mu in enumerate(labels):
            body = _list_text(
                (entry_head[k] + float.__repr__(v) + i3 + "}" for k, v in islice(entries, next(counts))), i2
            )
            flags = sorted(table.flagged.get((lam, mu), ()), key=canonical_key)
            flagged = _list_text((_list_text(map(int.__repr__, k), i3) for k in flags), i2)
            yield (
                lead + head + pair_text[j] + "," + i2 + '"entries": ' + body
                + "," + i2 + '"flagged": ' + flagged + i1 + "}"
            )
            lead = "," + i1
    yield newline + "]"


def _emit_json(payload: dict, out_path: str | None) -> None:
    try:
        text = _json_text(payload)
    except ValueError as exc:  # NaN or infinity: strict JSON has no spelling for them
        raise ComputationError(f"non-finite value in the {payload['command']} payload") from exc
    _emit(text + "\n", out_path)


def _finite_or_null(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _emit_csv(rows: list[list], header: list[str], out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _emit("\n".join(lines) + "\n", out_path)


def _header(command: str, params: ModelParams, seed: int) -> dict:
    return {"command": command, "params": params.as_dict(), "seed": seed}


def _fmt_partition(lam) -> str:
    return " ".join(str(x) for x in lam)


def _cmd_poly(args, parser) -> int:
    params = _make_params(args, parser, locked_only=False)
    P = build_P(args.mu, params)
    payload = _header("poly", params, args.seed)
    payload["mu"] = list(args.mu)
    payload["coeffs"] = [
        {"key": list(k), "value": v}
        for k, v in sorted(P.items(), key=lambda kv: canonical_key(kv[0]))
    ]
    _emit_json(payload, args.out)
    return 0


def _emit_entries(args, params: ModelParams, table: dict, **fields) -> int:
    """The output of lr and pieri: the entries of table by nu, as CSV or after fields in JSON."""
    entries = [
        {"nu": list(k), "value": v}
        for k, v in sorted(table.items(), key=lambda kv: canonical_key(kv[0]))
    ]
    if args.format == "csv":
        _emit_csv([[_fmt_partition(e["nu"]), e["value"]] for e in entries], ["nu", "value"], args.out)
        return 0
    payload = _header(args.command, params, args.seed) | fields
    payload["entries"] = entries
    _emit_json(payload, args.out)
    return 0


def _cmd_lr(args, parser) -> int:
    params = _make_params(args, parser, locked_only=False)
    table = lr_coefficients(args.lam, args.mu, params)
    return _emit_entries(args, params, table, lam=list(args.lam), mu=list(args.mu))


def _cmd_pieri(args, parser) -> int:
    params = _make_params(args, parser, locked_only=False)
    if params.level_locked:
        table = fusion_pieri(args.lam, args.r, params)
    else:
        lam = check_partition(args.lam)
        if len(lam) != params.n:
            raise ValueError(f"partition length {len(lam)} does not match n={params.n}")
        table = {nu: realify(coeffs.psi_prime(lam, nu, params)) for nu in vertical_strips(lam, args.r)}
    return _emit_entries(args, params, table, lam=list(args.lam), r=args.r)


def _cmd_spectrum(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    spec = joint_spectrum(params, seed=args.seed)
    payload = _header("spectrum", params, args.seed)
    payload["labels"] = [list(nu) for nu in spec.labels]
    payload["points"] = [
        {
            "nu": list(nu),
            "e": [_cnum(z) for z in spec.e[j]],
            "dual_norm": float(spec.dual_norms[j]),
            "eigenvector": [
                {"lam": list(lam), "value": _cnum(f)}
                for lam, f in zip(spec.labels, spec.vectors[:, j])
            ],
        }
        for j, nu in enumerate(spec.labels)
    ]
    payload["homotopy_steps"] = list(spec.homotopy_steps)
    _emit_json(payload, args.out)
    return 0


def _fusion_csv_rows(table: FusionTable) -> list[list]:
    """One row (lam, mu, kappa, value) per nonzero value, in label order."""
    text = [_fmt_partition(lam) for lam in table.labels]
    nonzero = table.values != 0
    index = zip(*(axis.tolist() for axis in np.nonzero(nonzero)))
    return [
        [text[i], text[j], text[k], v] for (i, j, k), v in zip(index, table.values[nonzero].tolist())
    ]


def _cmd_fusion(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    if args.route == "both" and args.format == "csv":
        parser.error("--format csv is not available with --route both")
    payload = _header("fusion", params, args.seed)
    payload["route"] = args.route
    if args.route in ("verlinde", "lr"):
        table = fusion_table(params, route=args.route, seed=args.seed)
        if args.format == "csv":
            _emit_csv(_fusion_csv_rows(table), ["lam", "mu", "kappa", "value"], args.out)
            return 0
        payload["table"] = table
    else:
        t_v = fusion_table(params, route="verlinde", seed=args.seed)
        t_lr = fusion_table(params, route="lr", seed=args.seed)
        payload["table"] = t_v
        payload["lr_table"] = t_lr
        payload["diff"] = {"max_abs": t_v.max_difference(t_lr)}
    _emit_json(payload, args.out)
    return 0


def _cmd_smatrix(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    sm = s_matrix(params, seed=args.seed)
    payload = _header("smatrix", params, args.seed)
    payload["labels"] = [list(nu) for nu in sm.labels]
    payload["S"] = [[_cnum(z) for z in row] for row in sm.S]
    payload["Sinv"] = [[_cnum(z) for z in row] for row in sm.Sinv]
    payload["normalization"] = sm.normalization
    payload["identity_residual"] = sm.identity_residual()
    # The linear values overflow binary64 at large nomes; their logs do not.
    payload["det_magnitude"] = _finite_or_null(sm.det_magnitude())
    payload["det_closed_form"] = _finite_or_null(sm.det_closed_form())
    payload["log_det_magnitude"] = _finite_or_null(sm.log_det_magnitude())
    payload["log_det_closed_form"] = _finite_or_null(sm.log_det_closed_form())
    payload["det_residual"] = sm.det_residual()
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    reports = run_suite(args.suite, params.n, params.m, seed=args.seed)
    width = max(len(r.comparison) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.comparison:<{width}}  max_abs={r.max_abs:.3e}  "
            f"max_rel={r.max_rel:.3e}  tol={r.tol:.1e}"
        )
    passed = all(r.passed for r in reports)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    if args.out:
        payload = _header("verify", params, args.seed)
        payload["suite"] = args.suite
        payload["reports"] = [r.as_dict() for r in reports]
        payload["passed"] = passed
        _emit_json(payload, args.out)
    return 0 if passed else 1


_HANDLERS = {
    "poly": _cmd_poly,
    "lr": _cmd_lr,
    "pieri": _cmd_pieri,
    "spectrum": _cmd_spectrum,
    "fusion": _cmd_fusion,
    "smatrix": _cmd_smatrix,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (ComputationError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError too
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the library's argument validation
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
