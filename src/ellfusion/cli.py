"""Command-line front end with deterministic, machine-readable output.

Subcommands: poly, lr, pieri, spectrum, fusion, smatrix, verify.  Output is
canonical JSON (CSV for lr, pieri and fusion, the commands that take
--format): keys in fixed order, floats in shortest round-trip form, complex
numbers as {"re":, "im":} pairs, and the parameter header embedded in every
payload (n and m alone for verify, whose checks choose their own couplings
and nomes).  Only the commands that draw at random (spectrum, fusion,
smatrix, verify) take --seed, and their payloads record it after the header.
The JSON is the bytes of ``json.dumps(payload, indent=2)``, and json.dumps
writes every byte of it but the bulk arrays' values: the small values
directly, and the text around each value of a bulk array (the fusion rows,
read one at a time from ``fusion._rows``; S and Sinv; the spectral points)
from templates cut once per array from ``json.dumps`` of a skeleton.  Files
are written atomically, chunk by chunk into a temp file renamed into place;
stdout, and an --out target that is a device or a FIFO, get the whole text
at once, so an error prints nothing.  Exit codes: 0 success, 1 computational
error (error class name on stderr), 2 usage error (a bad flag, a ValueError
of the library's argument validation, or an --out path that cannot be
written, in one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a seed >= 0, got {seed}")
    return seed


def _add_model_flags(sub: argparse.ArgumentParser, locked_only: bool) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of rows/variables")
    sub.add_argument("--m", type=int, default=0, help="level (level-locked mode)")
    sub.add_argument("--g", type=float, required=True, help="coupling")
    sub.add_argument("--p", type=float, required=True, help="nome in (-1, 1)")
    if locked_only:
        return
    sub.add_argument("--alpha", type=float, default=None, help="phase scale (free mode)")
    sub.add_argument(
        "--level-locked",
        action="store_true",
        help="lock alpha = 2*pi/(m + n*g) instead of taking --alpha",
    )


def _add_output_flags(sub: argparse.ArgumentParser, *, csv: bool = False, seed: bool = False) -> None:
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if csv:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    if seed:
        sub.add_argument("--seed", type=_seed_arg, default=0, help="RNG seed, recorded in output")


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
    _add_output_flags(sp, csv=True)
    sp.add_argument("--lam", type=_partition_arg, required=True)
    sp.add_argument("--mu", type=_partition_arg, required=True)

    sp = subs.add_parser("pieri", help="strip weights for multiplication by e_r")
    _add_model_flags(sp, locked_only=False)
    _add_output_flags(sp, csv=True)
    sp.add_argument("--lam", type=_partition_arg, required=True)
    sp.add_argument("--r", type=int, required=True)

    sp = subs.add_parser("spectrum", help="joint spectrum of the truncated operators")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp, seed=True)

    sp = subs.add_parser("fusion", help="fusion structure constants over the level cone")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp, csv=True, seed=True)
    sp.add_argument("--route", choices=("verlinde", "lr", "both"), default="verlinde")

    sp = subs.add_parser("smatrix", help="spectral transform, its inverse, and checks")
    _add_model_flags(sp, locked_only=True)
    _add_output_flags(sp, seed=True)

    sp = subs.add_parser("verify", help="run a verification suite")
    sp.add_argument("--n", type=int, required=True, help="number of rows/variables")
    sp.add_argument("--m", type=int, default=0, help="level")
    _add_output_flags(sp, seed=True)
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


_SLOT = "\x00"  # the value of a skeleton where a value of the payload goes
_SLOT_TEXT = re.compile(r'"\\u0000"(?!:)')  # a slot as json.dumps writes it; a key "\x00" is followed by ":"


def _cut(skeleton, newline: str) -> list[str]:
    """The text of ``json.dumps(skeleton, indent=2)`` at the depth newline opens, cut at each _SLOT value."""
    return _SLOT_TEXT.split(json.dumps(skeleton, indent=2).replace("\n", newline))


def _template(skeleton, newline: str) -> str:
    """The text of ``_cut(skeleton, newline)`` with a %s at each slot; its strings hold no "%"."""
    return "%s".join(_cut(skeleton, newline))


def _key_newline(head: str) -> str:
    """The newline of the key line that head, a "{" or "," and then that newline and '"key": ', opens."""
    return head[1 : head.index('"')]


def _json_chunks(payload: dict):
    """The text of ``json.dumps(payload, indent=2, allow_nan=False)``, in chunks made as they are read.

    payload is the top-level dict of a command; the text between its values
    is cut from ``dict.fromkeys(payload, _SLOT)``.  A value is written by
    ``json.dumps`` at the newline of its key's line, unless it is callable:
    then it is a bulk array's row writer, called with that newline.  No JSON
    value is callable.
    """
    *heads, tail = _cut(dict.fromkeys(payload, _SLOT), "\n")
    for head, value in zip(heads, payload.values()):
        newline = _key_newline(head)
        yield head
        if callable(value):
            yield from value(newline)
        else:
            yield json.dumps(value, indent=2, allow_nan=False).replace("\n", newline)
    yield tail


def _fusion_table_chunks(labels, rows, newline: str):
    """The blocks of a fusion table as indented JSON, one row values[lam] ([mu, kappa]) at a time.

    One block per ordered pair (lam, mu), in label order: ``{"lam", "mu",
    "entries": [{"kappa", "value"}, ...]}``, with the nonzero values in kappa
    order, as ``json.dumps(blocks, indent=2)`` writes them at this depth.
    The text between two values is cut from a block with two entries and a
    block with none; a label's text is ``_template(list(lam))`` at its key's
    newline.  A row is one join of its values and parts built once per table:
    each mu's ``"mu": ... "entries":`` head and each kappa's entry head (first
    in its pair, or after another).  A non-finite value raises ValueError, as
    json.dumps does, before any chunk of its row.
    """
    two, none = ({"lam": _SLOT, "mu": _SLOT, "entries": [{"kappa": _SLOT, "value": _SLOT}] * k} for k in (2, 0))
    _, mu_key, entries_key, value_key, next_entry, _, next_block, _, last = _cut([two, none], newline)
    entries_key, _, first_entry = entries_key.partition("[")  # ',"entries": ' and '{"kappa": '
    full, _, block = next_block.partition(",")  # '}]}' ends a block with entries; '{"lam": ' opens one
    empty = "[]" + full.rpartition("]")[2]  # '[]}' ends a block with none
    N = len(labels)
    label_text = [_template(list(lam), _key_newline(mu_key)) for lam in labels]
    mu_head = [mu_key + text + entries_key for text in label_text]
    entry_head = [_template(list(kappa), _key_newline(value_key)) + value_key for kappa in labels]
    # heads[k] opens kappa's entry after another one, heads[N + k] the first entry of a pair
    heads = [next_entry + h for h in entry_head] + ["[" + first_entry + h for h in entry_head]
    lead = "["
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
        opened = block + label_text[i]
        sep = "," + opened  # before the next block of the row
        parts = [lead, opened]
        end = 0
        for head, count in zip(mu_head, counts):
            start, end = end, end + 2 * count
            parts.append(head)
            parts += entries[start:end]
            parts += (full if count else empty, sep)
        yield "".join(parts[:-1])  # one chunk per row lam, without the sep after its last block
        lead = ","
    yield last.rpartition("}")[2]  # the ']' that ends the table


def _re_im(matrix: np.ndarray) -> np.ndarray:
    """The rows of a complex matrix as real rows (re, im, re, im, ...)."""
    return np.ascontiguousarray(matrix, dtype=complex).view(float)


def _template_rows(values: np.ndarray, item, newline: str, heads=repeat(())):
    """An indented JSON list, one chunk per row of values: the template of item, %-formatted over head and row.

    The template is built once, at the newline of a list item; the text
    between two items is cut from a two-item list.  A row's slots take its
    head's values as %s writes them, then its values' reprs, as json.dumps
    writes a float.  A non-finite value raises ValueError before any chunk.
    """
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    lead, sep, end = _cut([_SLOT, _SLOT], newline)
    template = _template(item, lead[1:])  # lead is "[" and then the newline of an item
    for head, row in zip(heads, values):
        yield lead + template % (*head, *map(float.__repr__, row.tolist()))
        lead = sep
    yield end if len(values) else "[]"


def _complex_rows_chunks(matrix: np.ndarray, newline: str):
    """The rows of a complex matrix as indented JSON lists of {"re", "im"} pairs, one chunk per row.

    The chunks join to the bytes of ``json.dumps`` of the rows as lists of
    ``{"re": z.real, "im": z.imag}`` dicts at this depth.
    """
    return _template_rows(_re_im(matrix), [{"re": _SLOT, "im": _SLOT}] * matrix.shape[1], newline)


def _points_chunks(spec: SpectrumResult, newline: str):
    """The points of a joint spectrum as indented JSON, one chunk per point nu, read from its arrays.

    The chunks join to the bytes of ``json.dumps`` of the list of ``{"nu",
    "e": [{"re", "im"}, ...], "dual_norm", "eigenvector": [{"lam", "value":
    {"re", "im"}}, ...]}`` dicts at this depth, where "e" is the row e[nu]
    and the eigenvector the column vectors[:, nu].  A point's text is one
    template, built once, with a slot for each part of nu and each "lam" in it.
    """
    pair = {"re": _SLOT, "im": _SLOT}
    point = {"nu": [_SLOT] * len(spec.labels[0]), "e": [pair] * spec.e.shape[1], "dual_norm": _SLOT,
             "eigenvector": [{"lam": list(lam), "value": pair} for lam in spec.labels]}
    values = np.hstack([_re_im(spec.e), spec.dual_norms[:, None], _re_im(spec.vectors.T)])
    return _template_rows(values, point, newline, spec.labels)


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


def _header(command: str, params: ModelParams, **fields) -> dict:
    return {"command": command, "params": params.as_dict(), **fields}


def _fmt_partition(lam) -> str:
    return " ".join(str(x) for x in lam)


def _cmd_poly(args, parser) -> int:
    params = _make_params(args, parser, locked_only=False)
    P = build_P(args.mu, params)
    payload = _header("poly", params, mu=list(args.mu))
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
    payload = _header(args.command, params, **fields)
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
    payload = _header("spectrum", params, seed=args.seed)
    payload["labels"] = [list(nu) for nu in spec.labels]
    payload["points"] = partial(_points_chunks, spec)
    payload["homotopy_steps"] = [math.copysign(s, params.p) for s in spec.homotopy_steps]  # kept at |p|
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
    payload = _header("fusion", params, seed=args.seed)
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
    payload = _header("smatrix", params, seed=args.seed)
    payload["labels"] = [list(nu) for nu in sm.labels]
    payload["S"] = partial(_complex_rows_chunks, sm.S)
    payload["Sinv"] = partial(_complex_rows_chunks, sm.Sinv)
    payload["normalization"] = sm.normalization
    payload["identity_residual"] = sm.identity_residual()
    # |det S| and its closed form overflow binary64 at large nomes; their logs do not.
    payload["log_det_magnitude"] = _finite_or_null(sm.log_det_magnitude())
    payload["log_det_closed_form"] = _finite_or_null(sm.log_det_closed_form())
    payload["det_residual"] = sm.det_residual()
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    from .verification import run_suite  # loaded by this command alone, with the oracles and littlewood

    reports = run_suite(args.suite, args.n, args.m, seed=args.seed)
    width = max(len(r.comparison) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.comparison:<{width}}  max_abs={r.max_abs:.3e}  tol={r.tol:.1e}")
    passed = all(r.passed for r in reports)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    if args.out:
        payload = {"command": "verify", "params": {"n": args.n, "m": args.m}, "seed": args.seed}
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
