"""Command-line front end with deterministic, machine-readable output.

Subcommands: poly, lr, pieri, spectrum, fusion, smatrix, verify.  Output is
canonical JSON (CSV for the tabular commands): keys in fixed order, floats
in shortest round-trip form, complex numbers as {"re":, "im":} pairs, and
the full parameter header plus RNG seed embedded in every payload.  Files
are written atomically, chunk by chunk into a temp file that is renamed into
place; stdout gets the whole text at once, so an error prints nothing.
Exit codes: 0 success, 1 computational error
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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ComputationError
from .kernel import ModelParams
from .littlewood import lr_coefficients
from .operators import joint_spectrum
from .partitions import canonical_key, check_partition, vertical_strips
from .polynomials import build_P
from .fusion import _table_rows, fusion_pieri, fusion_table, s_matrix
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


def _emit(chunks, out_path: str | None) -> None:
    """Write text chunks to stdout, or into a temp file renamed to out_path.

    stdout gets the chunks joined first, so an error while they are made
    prints nothing.  A file gets each chunk as it is made; on an error the
    temp file is removed and a file already at out_path keeps its bytes.
    ``mkstemp`` creates the temp file with mode 0600, so it is given the
    mode a plain ``open`` would give, 0666 less the umask, before the rename.
    """
    if out_path is None:
        sys.stdout.write("".join(chunks))
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ellfusion-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


@dataclass(frozen=True)
class _TableRows:
    """A fusion table that the writers read once: its labels and its rows values[lam] ([mu, kappa])."""

    labels: tuple
    rows: Iterable[np.ndarray]


@dataclass(frozen=True)
class _ComplexRows:
    """A complex matrix, written as its list of rows of {"re", "im"} pairs (see ``_complex_rows_chunks``)."""

    matrix: np.ndarray


def _json_chunks(payload):
    """The text of ``json.dumps(payload, indent=2, allow_nan=False)``, in chunks made as they are read.

    With an indent, json falls back to its pure-Python encoder, one
    generator per container.  This writer writes scalars inline, and a list
    of plain ints or floats, or a dict whose values are all scalars (such as
    a {"re", "im"} pair), as one string.  It handles dicts with str keys,
    lists, tuples, str, int, float, bool and None of exactly those types;
    any other value (a subclass, a non-string key) goes to json.dumps, its
    newlines indented to its depth.  A ``_TableRows`` is written as its list
    of per-pair blocks (see ``_fusion_table_chunks``), a ``_ComplexRows`` as
    its list of rows (see ``_complex_rows_chunks``).
    """
    text_of = {
        str: encode_basestring_ascii,
        float: _float_text,
        int: int.__repr__,
        bool: lambda b: "true" if b else "false",
        type(None): lambda _: "null",
    }.get

    def inline(o, newline: str):
        """The text of o if it is a scalar, a list of plain ints or floats or a dict of scalars; else None."""
        text = text_of(type(o))
        if text is not None:
            return text(o)
        kind = type(o)
        if kind is list or kind is tuple:
            if not o:
                return "[]"
            kinds = set(map(type, o))
            if len(kinds) == 1 and kinds <= {int, float}:
                return _list_text(map(text_of(kinds.pop()), o), newline)
        elif kind is dict and _STR_ONLY.issuperset(map(type, o)):
            items = []
            for k, v in o.items():
                text = text_of(type(v))
                if text is None:
                    return None
                items.append(encode_basestring_ascii(k) + ": " + text(v))
            inner = newline + "  "
            return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
        return None

    def write(o, newline: str):
        """The chunks of o, a value that ``inline`` does not write, whose line starts with newline."""
        kind = type(o)
        inner = newline + "  "
        if kind is list or kind is tuple:
            texts = [inline(v, inner) for v in o]
            if None not in texts:
                yield "[" + inner + ("," + inner).join(texts) + newline + "]"
                return
            sep = "[" + inner
            for v, text in zip(o, texts):
                if text is None:
                    yield sep
                    yield from write(v, inner)
                else:
                    yield sep + text
                sep = "," + inner
            yield newline + "]"
        elif kind is dict and _STR_ONLY.issuperset(map(type, o)):
            sep = "{" + inner
            for k, v in o.items():
                text = inline(v, inner)
                if text is None:
                    yield sep + encode_basestring_ascii(k) + ": "
                    yield from write(v, inner)
                else:
                    yield sep + encode_basestring_ascii(k) + ": " + text
                sep = "," + inner
            yield newline + "}"
        elif kind is _TableRows:
            yield from _fusion_table_chunks(o.labels, o.rows, newline)
        elif kind is _ComplexRows:
            yield from _complex_rows_chunks(o.matrix, newline)
        else:  # subclasses, non-string keys, and what json rejects
            yield json.dumps(o, indent=2, allow_nan=False).replace("\n", newline)

    text = inline(payload, "\n")
    if text is not None:
        yield text
    else:
        yield from write(payload, "\n")


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)``, byte for byte."""
    return "".join(_json_chunks(payload))


def _list_text(items, newline: str) -> str:
    """An indented JSON list of item texts, whose line starts with newline."""
    inner = newline + "  "
    text = ("," + inner).join(items)
    return "[" + inner + text + newline + "]" if text else "[]"


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
    pair_text = [_list_text(map(int.__repr__, lam), i2) for lam in labels]
    mu_head = ["," + i2 + '"mu": ' + text + "," + i2 + '"entries": ' for text in pair_text]
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
        block = "{" + i2 + '"lam": ' + pair_text[i]
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


def _complex_rows_chunks(matrix: np.ndarray, newline: str):
    """The rows of a complex matrix as indented JSON lists of {"re", "im"} pairs, one chunk per row.

    The chunks join to the bytes of ``json.dumps`` of the rows as lists of
    ``{"re": z.real, "im": z.imag}`` dicts at this depth.  Each row is one
    %-format of a template built once, over the reprs of its parts; a
    non-finite part raises ValueError, as json.dumps does, before any chunk
    of its row.
    """
    i1 = newline + "  "  # a row
    i2 = i1 + "  "  # a pair
    i3 = i2 + "  "  # its keys
    pair = "{" + i3 + '"re": %s,' + i3 + '"im": %s' + i2 + "}"
    template = "[" + i2 + ("," + i2).join([pair] * matrix.shape[1]) + i1 + "]" if matrix.shape[1] else "[]"
    lead = "[" + i1
    for row in matrix:
        if not np.isfinite(row).all():
            raise ValueError("Out of range float values are not JSON compliant")
        parts = np.empty(2 * len(row))
        parts[0::2], parts[1::2] = row.real, row.imag
        yield lead + template % tuple(map(float.__repr__, parts.tolist()))
        lead = "," + i1
    yield newline + "]" if len(matrix) else "[]"


def _emit_json(payload: dict, out_path: str | None) -> None:
    try:
        _emit(chain(_json_chunks(payload), ["\n"]), out_path)
    except ValueError as exc:  # NaN or infinity: strict JSON has no spelling for them
        raise ComputationError(f"non-finite value in the {payload['command']} payload") from exc


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


def _fusion_csv_rows(labels, rows):
    """One row (lam, mu, kappa, value) per nonzero value, in label order, read one table row at a time."""
    text = [_fmt_partition(lam) for lam in labels]
    for i, row in enumerate(rows):
        nonzero = row != 0
        index = zip(*(axis.tolist() for axis in np.nonzero(nonzero)))
        for (j, k), v in zip(index, row[nonzero].tolist()):
            yield [text[i], text[j], text[k], v]


def _cmd_fusion(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    if args.route == "both" and args.format == "csv":
        parser.error("--format csv is not available with --route both")
    payload = _header("fusion", params, args.seed)
    payload["route"] = args.route
    if args.route in ("verlinde", "lr"):
        labels, rows = _table_rows(params, args.route, seed=args.seed)  # never the whole table
        if args.format == "csv":
            _emit_csv(_fusion_csv_rows(labels, rows), ["lam", "mu", "kappa", "value"], args.out)
            return 0
        payload["table"] = _TableRows(labels, rows)
    else:
        t_v = fusion_table(params, route="verlinde", seed=args.seed)
        t_lr = fusion_table(params, route="lr", seed=args.seed)
        payload["table"] = _TableRows(t_v.labels, t_v.values)
        payload["lr_table"] = _TableRows(t_lr.labels, t_lr.values)
        payload["diff"] = {"max_abs": t_v.max_difference(t_lr)}
    _emit_json(payload, args.out)
    return 0


def _cmd_smatrix(args, parser) -> int:
    params = _make_params(args, parser, locked_only=True)
    sm = s_matrix(params, seed=args.seed)
    payload = _header("smatrix", params, args.seed)
    payload["labels"] = [list(nu) for nu in sm.labels]
    payload["S"] = _ComplexRows(sm.S)
    payload["Sinv"] = _ComplexRows(sm.Sinv)
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
