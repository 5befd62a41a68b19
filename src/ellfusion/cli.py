"""Command-line front end with deterministic, machine-readable output.

Subcommands: poly, lr, pieri, spectrum, fusion, smatrix, verify.  Output is
canonical JSON (CSV for the tabular commands): keys in fixed order, floats
in shortest round-trip form, complex numbers as {"re":, "im":} pairs, and
the full parameter header plus RNG seed embedded in every payload.  The
JSON is the bytes of ``json.dumps(payload, indent=2)``: the small values go
through json.dumps, the bulk arrays (the fusion rows, read one at a time
from ``fusion._rows``; S and Sinv; the spectral points) through one row
writer each.  Files are written atomically, chunk by chunk into a temp
file that is renamed into place; stdout, and an --out target that is a
device or a FIFO, get the whole text at once, so an error prints nothing.
Exit codes: 0 success, 1 computational error
(error class name on stderr), 2 usage error (a bad flag, a ValueError of
the library's argument validation, or an --out path that cannot be
written, in one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
from functools import partial
from itertools import chain, repeat

import numpy as np

from .errors import ComputationError
from .kernel import ModelParams
from .operators import SpectrumResult, joint_spectrum
from .partitions import canonical_key, check_partition, vertical_strips
from .polynomials import build_P
from .fusion import _rows, fusion_pieri, s_matrix
from . import SUITES, coeffs


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
        return ModelParams.locked(args.n, args.m, args.g, args.p)
    if args.alpha is None:
        parser.error("free mode needs --alpha (or pass --level-locked)")
    return ModelParams.free(args.n, g=args.g, p=args.p, alpha=args.alpha, m=args.m)


def _emit(chunks, out_path: str | None) -> None:
    """Write text chunks to stdout, or into a temp file renamed to out_path.

    stdout gets the chunks joined first, so an error while they are made
    prints nothing.  A file gets each chunk as it is made; on an error the
    temp file is removed and a file already at out_path keeps its bytes.
    An existing out_path that is neither a regular file nor a directory (a
    device, a FIFO) cannot be replaced: it is opened and written in place,
    like stdout, with the chunks joined first.  An OSError of the temp file,
    the rename or the in-place write (a missing directory, a directory at
    out_path) is a ValueError naming out_path: a usage error.  ``mkstemp``
    creates the temp file with mode 0600, so it is given the mode a plain
    ``open`` would give, 0666 less the umask, before the rename.
    """
    if out_path is None:
        sys.stdout.write("".join(chunks))
        return
    tmp = None
    try:
        if _is_special(out_path):
            text = "".join(chunks)
            with open(out_path, "w") as handle:
                handle.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)), prefix=".ellfusion-")
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, out_path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
        raise


def _is_special(path: str) -> bool:
    """Whether path exists and is neither a regular file nor a directory (after symlinks)."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return False
    return not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))


def _json_chunks(payload: dict):
    """The text of ``json.dumps(payload, indent=2, allow_nan=False)``, in chunks made as they are read.

    payload is the top-level dict of a command.  A value is written by
    ``json.dumps``, its newlines indented one level, unless it is callable:
    then it is a bulk array's row writer, called with the newline of its
    key's line (see ``_fusion_table_chunks``, ``_complex_rows_chunks`` and
    ``_points_chunks``).  No JSON value is callable.
    """
    sep = "{"
    for key, value in payload.items():
        head = sep + "\n  " + json.dumps(key) + ": "
        if callable(value):
            yield head
            yield from value("\n  ")
        else:
            yield head + json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
        sep = ","
    yield "\n}" if payload else "{}"


def _list_text(items, newline: str) -> str:
    """An indented JSON list of item texts, whose line starts with newline."""
    inner = newline + "  "
    text = ("," + inner).join(items)
    return "[" + inner + text + newline + "]" if text else "[]"


def _pair_text(newline: str) -> str:
    """The template of a {"re", "im"} pair whose line starts with newline: two %s for the reprs."""
    inner = newline + "  "
    return "{" + inner + '"re": %s,' + inner + '"im": %s' + newline + "}"


def _fusion_table_chunks(labels, rows, newline: str):
    """The blocks of a fusion table as indented JSON, one row values[lam] ([mu, kappa]) at a time.

    One block per ordered pair (lam, mu), in label order: ``{"lam", "mu",
    "entries": [{"kappa", "value"}, ...], "flagged": []}``, with the nonzero
    values in kappa order; the ``"flagged"`` list of the published format is
    always empty.  The chunks join to the bytes of ``json.dumps(blocks,
    indent=2)`` at this depth.  The text of a row is one join over a flat
    list of parts, all built once per table but the values: each mu's
    ``"mu": ... "entries":`` head, each kappa's entry head (first in its pair,
    or after another entry) and the ``"flagged": []`` tail of a pair.  A
    non-finite value raises ValueError, as json.dumps does, before any chunk
    of its row.
    """
    i1 = newline + "  "  # a block
    i2 = i1 + "  "  # its keys
    i3 = i2 + "  "  # an entry
    i4 = i3 + "  "  # an entry's keys
    N = len(labels)
    label_text = [_list_text(map(int.__repr__, lam), i2) for lam in labels]
    mu_head = ["," + i2 + '"mu": ' + text + "," + i2 + '"entries": ' for text in label_text]
    entry_head = [
        "{" + i4 + '"kappa": ' + _list_text(map(int.__repr__, kappa), i4) + "," + i4 + '"value": '
        for kappa in labels
    ]
    # heads[k] opens kappa's entry after another one, heads[N + k] the first entry of a pair
    heads = [i3 + "}," + i3 + h for h in entry_head] + ["[" + i3 + h for h in entry_head]
    entries_end = i3 + "}" + i2 + "]"
    tail = "," + i2 + '"flagged": []' + i1 + "}"  # the end of a block
    lead = "[" + i1
    for i, row in zip(range(N), rows):
        if not np.isfinite(row).all():
            raise ValueError("Out of range float values are not JSON compliant")
        nonzero = row != 0
        mus, kappas = np.nonzero(nonzero)  # mu by mu, kappa ascending
        first = np.diff(mus, prepend=-1) != 0
        entries = [""] * (2 * len(mus))  # head and value of each nonzero entry
        entries[0::2] = map(heads.__getitem__, (kappas + N * first).tolist())
        entries[1::2] = map(float.__repr__, row[nonzero].tolist())
        counts = np.bincount(mus, minlength=N).tolist()
        block = "{" + i2 + '"lam": ' + label_text[i]
        opened = "," + i1 + block  # the next block of the row
        full, empty = entries_end + tail + opened, "[]" + tail + opened
        closes = [full if count else empty for count in counts]  # the text after a pair's entries
        closes[-1] = closes[-1][: -len(opened)]
        parts = [lead, block]
        end = 0
        for head, count, close in zip(mu_head, counts, closes):
            parts.append(head)
            if count:
                start, end = end, end + 2 * count
                parts += entries[start:end]
            parts.append(close)
        yield "".join(parts)  # one chunk per row lam
        lead = "," + i1
    yield newline + "]"


def _re_im(matrix: np.ndarray) -> np.ndarray:
    """The rows of a complex matrix as real rows (re, im, re, im, ...)."""
    return np.ascontiguousarray(matrix, dtype=complex).view(float)


def _template_rows(values: np.ndarray, template: str, heads, newline: str):
    """An indented JSON list, one chunk per row of values: its head, then template %-formatted over the row.

    The template is built once and holds a %s for each value of a row; a
    value is written as its repr, as json.dumps writes a float.  A
    non-finite value raises ValueError, as json.dumps does, before any chunk.
    """
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    lead = "[" + newline + "  "
    for head, row in zip(heads, values):
        yield lead + head + template % tuple(map(float.__repr__, row.tolist()))
        lead = "," + newline + "  "
    yield newline + "]" if len(values) else "[]"


def _complex_rows_chunks(matrix: np.ndarray, newline: str):
    """The rows of a complex matrix as indented JSON lists of {"re", "im"} pairs, one chunk per row.

    The chunks join to the bytes of ``json.dumps`` of the rows as lists of
    ``{"re": z.real, "im": z.imag}`` dicts at this depth.
    """
    row = _list_text([_pair_text(newline + "    ")] * matrix.shape[1], newline + "  ")
    return _template_rows(_re_im(matrix), row, repeat(""), newline)


def _points_chunks(spec: SpectrumResult, newline: str):
    """The points of a joint spectrum as indented JSON, one chunk per point nu, read from its arrays.

    The chunks join to the bytes of ``json.dumps`` of the list of ``{"nu",
    "e": [{"re", "im"}, ...], "dual_norm", "eigenvector": [{"lam", "value":
    {"re", "im"}}, ...]}`` dicts at this depth, where "e" is the row e[nu]
    and the eigenvector the column vectors[:, nu].  All of a point's text
    but its "nu" head is one template, built once, with the "lam" of each
    eigenvector entry in it.
    """
    i1 = newline + "  "  # a point
    i2 = i1 + "  "  # its keys
    i3 = i2 + "  "  # an e pair or an eigenvector entry
    i4 = i3 + "  "  # an entry's keys
    heads = [
        "{" + i2 + '"nu": ' + _list_text(map(int.__repr__, nu), i2) + "," + i2 + '"e": '
        for nu in spec.labels
    ]
    entries = [
        "{" + i4 + '"lam": ' + _list_text(map(int.__repr__, lam), i4) + "," + i4
        + '"value": ' + _pair_text(i4) + i3 + "}"
        for lam in spec.labels
    ]
    point = (
        _list_text([_pair_text(i3)] * spec.e.shape[1], i2)
        + "," + i2 + '"dual_norm": %s,'
        + i2 + '"eigenvector": ' + _list_text(entries, i2) + i1 + "}"
    )
    values = np.hstack([_re_im(spec.e), spec.dual_norms[:, None], _re_im(spec.vectors.T)])
    return _template_rows(values, point, heads, newline)


def _emit_json(payload: dict, out_path: str | None) -> None:
    def chunks():
        try:
            yield from _json_chunks(payload)
        except ValueError as exc:  # NaN or infinity: strict JSON has no spelling for them
            raise ComputationError(f"non-finite value in the {payload['command']} payload") from exc
        yield "\n"

    _emit(chunks(), out_path)


def _finite_or_null(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _emit_csv(rows, header: list[str], out_path: str | None) -> None:
    """Write the header and then each row, as they are read, one CSV line each."""
    lines = (",".join(map(str, row)) + "\n" for row in chain([header], rows))
    _emit(lines, out_path)


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
    from .littlewood import lr_coefficients  # loaded by this command alone

    params = _make_params(args, parser, locked_only=False)
    table = lr_coefficients(args.lam, args.mu, params)
    return _emit_entries(args, params, table, lam=list(args.lam), mu=list(args.mu))


def _cmd_pieri(args, parser) -> int:
    params = _make_params(args, parser, locked_only=False)
    if params.level_locked:
        table = fusion_pieri(args.lam, args.r, params)
    else:
        lam = check_partition(args.lam, params.n)
        table = {nu: coeffs.psi_prime(lam, nu, params) for nu in vertical_strips(lam, args.r)}
    return _emit_entries(args, params, table, lam=list(args.lam), r=args.r)


def _cmd_spectrum(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    spec = joint_spectrum(params, seed=args.seed)
    payload = _header("spectrum", params, args.seed)
    payload["labels"] = [list(nu) for nu in spec.labels]
    payload["points"] = partial(_points_chunks, spec)
    payload["homotopy_steps"] = list(spec.homotopy_steps)
    _emit_json(payload, args.out)
    return 0


def _fusion_csv_rows(labels, rows):
    """One row (lam, mu, kappa, value) per nonzero value, in label order, read one table row at a time."""
    text = [_fmt_partition(lam) for lam in labels]
    for i, row in enumerate(rows):
        nonzero = row != 0
        index = zip(*(axis.tolist() for axis in np.nonzero(nonzero)))
        for (j, k), v in zip(index, row[nonzero].tolist()):
            yield [text[i], text[j], text[k], v]


def _compared(rows, params: ModelParams, diff: dict):
    """The Verlinde rows as they are read; diff["max_abs"] is their largest |difference| from the ring rows so far."""
    try:
        ring = _rows(params, "lr")[1]
    except Exception:  # raised once every Verlinde row has been read, so that a Verlinde error comes first
        yield from rows
        raise
    for row, other in zip(rows, ring):
        diff["max_abs"] = max(diff["max_abs"], float(np.abs(row - other).max()))
        yield row


def _cmd_fusion(args, parser) -> int:
    """Write the rows of a route from ``fusion._rows``; --route both checks each Verlinde row against the ring row."""
    params = _make_params(args, parser, locked_only=True)
    if args.route == "both" and args.format == "csv":
        parser.error("--format csv is not available with --route both")
    labels, rows = _rows(params, "verlinde" if args.route == "both" else args.route, seed=args.seed)
    if args.format == "csv":
        _emit_csv(_fusion_csv_rows(labels, rows), ["lam", "mu", "kappa", "value"], args.out)
        return 0
    payload = _header("fusion", params, args.seed)
    payload["route"] = args.route
    if args.route == "both":
        diff = {"max_abs": 0.0}
        payload["table"] = partial(_fusion_table_chunks, labels, _compared(rows, params, diff))
        payload["lr_table"] = lambda newline: _fusion_table_chunks(*_rows(params, "lr"), newline)
        payload["diff"] = diff  # filled as the table is written, before json.dumps reads it
    else:
        payload["table"] = partial(_fusion_table_chunks, labels, rows)
    _emit_json(payload, args.out)
    return 0


def _cmd_smatrix(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    sm = s_matrix(params, seed=args.seed)
    payload = _header("smatrix", params, args.seed)
    payload["labels"] = [list(nu) for nu in sm.labels]
    payload["S"] = partial(_complex_rows_chunks, sm.S)
    payload["Sinv"] = partial(_complex_rows_chunks, sm.Sinv)
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
    from .verification import run_suite  # loaded by this command alone, with the oracles and littlewood

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
    except ValueError as exc:  # the library's argument validation, or an --out that cannot be written
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
