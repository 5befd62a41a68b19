import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ellfusion import coeffs, operators
from ellfusion.cli import (
    _complex_rows_chunks,
    _emit_json,
    _fusion_csv_rows,
    _fusion_table_chunks,
    _json_chunks,
    main,
)
from ellfusion.errors import ComputationError
from ellfusion.fusion import FusionTable, fusion_table, s_matrix
from ellfusion.kernel import ModelParams
from ellfusion.operators import joint_spectrum
from ellfusion.partitions import enumerate_level


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_text(payload):
    return "".join(_json_chunks(payload))


def test_poly_command(capsys):
    code, out, err = run_cli(
        ["poly", "--n", "2", "--mu", "2,0", "--g", "1.0", "--p", "0", "--alpha", "2.399827"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "poly"
    assert payload["mu"] == [2, 0]
    assert len(payload["coeffs"]) == 2
    keys = {tuple(entry["key"]) for entry in payload["coeffs"]}
    assert keys == {(2, 0), (1, 1)}


def test_fusion_command_minimal_table(capsys):
    code, out, err = run_cli(["fusion", "--n", "2", "--m", "1", "--g", "1", "--p", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    blocks = {
        (tuple(b["lam"]), tuple(b["mu"])): {tuple(e["kappa"]): e["value"] for e in b["entries"]}
        for b in payload["table"]
    }
    assert abs(blocks[((1, 0), (1, 0))][(0, 0)] - 1.0) < 1e-9
    assert set(blocks[((0, 0), (1, 0))]) == {(1, 0)}


def test_fusion_both_routes_reports_diff(capsys):
    code, out, err = run_cli(
        ["fusion", "--n", "2", "--m", "1", "--g", "0.7", "--p", "0.3", "--route", "both"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diff"]["max_abs"] < 1e-7
    assert "lr_table" in payload


def test_fusion_both_csv_is_rejected_before_any_table(monkeypatch, capsys):
    from ellfusion import cli, fusion

    def refuse(*args, **kwargs):
        raise AssertionError("a table or its rows were built")

    monkeypatch.setattr(cli, "_rows", refuse)
    monkeypatch.setattr(fusion, "fusion_table", refuse)
    args = ["fusion", "--n", "4", "--m", "4", "--g", "0.7", "--p", "0.3"]
    code, out, err = run_cli([*args, "--route", "both", "--format", "csv"], capsys)
    assert code == 2
    assert "--format csv is not available with --route both" in err


def test_lr_command_csv(capsys):
    code, out, err = run_cli(
        [
            "lr", "--n", "2", "--lam", "1,0", "--mu", "1,0",
            "--g", "0.7", "--p", "0.3", "--alpha", "2.0", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nu,value"
    assert len(lines) == 3  # keys (2,0) and (1,1)


def test_pieri_command(capsys):
    code, out, err = run_cli(
        ["pieri", "--n", "2", "--lam", "1,0", "--r", "1", "--g", "0.7", "--p", "0.3", "--alpha", "2.0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert {tuple(e["nu"]) for e in payload["entries"]} == {(2, 0), (1, 1)}


def test_spectrum_command(capsys):
    code, out, err = run_cli(
        ["spectrum", "--n", "3", "--m", "2", "--g", "0.6", "--p", "0.3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 1
    assert len(payload["labels"]) == 6
    assert len(payload["points"][0]["e"]) == 3
    assert payload["points"][0]["e"][-1] == {"re": 1.0, "im": 0.0}
    assert payload["homotopy_steps"][-1] == 0.3


def test_smatrix_command(capsys):
    code, out, err = run_cli(
        ["smatrix", "--n", "2", "--m", "2", "--g", "0.8", "--p", "0.2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_residual"] < 1e-8
    assert payload["det_residual"] < 1e-6
    assert len(payload["S"]) == 3


def test_smatrix_command_writes_strict_json_at_large_nome(capsys, recwarn):
    # |det S| and its closed form overflow binary64 here: only their logs are
    # written, and numpy raises no warning.
    code, out, err = run_cli(
        ["smatrix", "--n", "4", "--m", "4", "--g", "0.7", "--p", "0.9"], capsys
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out, parse_constant=reject)
    assert "det_magnitude" not in payload and "det_closed_form" not in payload
    assert math.isfinite(payload["log_det_magnitude"])
    assert payload["log_det_magnitude"] > math.log(sys.float_info.max)  # |det S| itself overflows
    assert abs(payload["log_det_magnitude"] - payload["log_det_closed_form"]) < 1e-6
    assert payload["det_residual"] < 1e-6
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_smatrix_command_linear_det_in_range(capsys):
    """Where |det S| is a binary64 number too, the payload writes its log alone."""
    code, out, err = run_cli(
        ["smatrix", "--n", "2", "--m", "2", "--g", "0.8", "--p", "0.2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert "det_magnitude" not in payload and "det_closed_form" not in payload
    logs = payload["log_det_magnitude"], payload["log_det_closed_form"]
    assert all(map(math.isfinite, logs))
    assert abs(logs[0] - logs[1]) < 1e-6


def test_smatrix_payload_keys(capsys):
    code, out, err = run_cli(["smatrix", "--n", "2", "--m", "2", "--g", "0.8", "--p", "0.2"], capsys)
    assert code == 0
    assert list(json.loads(out)) == [
        "command", "params", "seed", "labels", "S", "Sinv", "normalization", "identity_residual",
        "log_det_magnitude", "log_det_closed_form", "det_residual",
    ]


_FREE = ["--n", "3", "--g", "0.7", "--p", "0.3", "--alpha", "2.0"]
_LOCKED = ["--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3", "--level-locked"]
_POLY = ["poly", "--mu", "3,1,0"]
_LR = ["lr", "--lam", "2,1,0", "--mu", "1,1,0"]
_PIERI = ["pieri", "--lam", "2,1,0", "--r", "2"]


@pytest.mark.parametrize("mode", [_FREE, _LOCKED], ids=["free", "locked"])
@pytest.mark.parametrize(
    "command, keys",
    [
        (_POLY, ["mu", "coeffs"]),
        (_LR, ["lam", "mu", "entries"]),
        (_PIERI, ["lam", "r", "entries"]),
    ],
    ids=["poly", "lr", "pieri"],
)
def test_commands_that_draw_nothing_write_no_seed(command, keys, mode, capsys):
    """The poly, lr and pieri payloads are the header {command, params} and their own fields."""
    code, out, err = run_cli([*command, *mode], capsys)
    assert code == 0
    assert list(json.loads(out)) == ["command", "params", *keys]


_SPECTRUM = ["spectrum", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.4"]
_FUSION = ["fusion", "--n", "2", "--m", "1", "--g", "0.7", "--p", "0.3"]
_SMATRIX = ["smatrix", "--n", "2", "--m", "2", "--g", "0.8", "--p", "0.2"]
_VERIFY = ["verify", "--suite", "limits", "--n", "2", "--m", "1"]


@pytest.mark.parametrize(
    "args",
    [
        [*_POLY, *_FREE, "--seed", "1"],
        [*_LR, *_FREE, "--seed", "1"],
        [*_PIERI, *_LOCKED, "--seed", "1"],
        [*_POLY, *_FREE, "--format", "json"],
        [*_SPECTRUM, "--format", "json"],
        [*_SMATRIX, "--format", "json"],
        [*_VERIFY, "--format", "json"],
    ],
    ids=["poly-seed", "lr-seed", "pieri-seed", "poly-format", "spectrum-format", "smatrix-format", "verify-format"],
)
def test_a_flag_no_computation_reads_is_unrecognized(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith(f"unrecognized arguments: {' '.join(args[-2:])}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, hidden",
    [("poly", "--format"), ("spectrum", "--format"), ("smatrix", "--format"), ("verify", "--format"),
     ("poly", "--seed"), ("lr", "--seed"), ("pieri", "--seed")],
)
def test_help_lists_only_the_flags_a_command_reads(command, hidden, capsys):
    code, out, err = run_cli([command, "--help"], capsys)
    assert code == 0 and "--out" in out
    assert hidden not in out


@pytest.mark.parametrize("args", [_SPECTRUM, _FUSION, _SMATRIX, _VERIFY], ids=["spectrum", "fusion", "smatrix", "verify"])
def test_commands_that_draw_record_their_seed(args, tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, err = run_cli([*args, "--seed", "7", "--out", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert list(payload)[:3] == ["command", "params", "seed"]
    assert payload["seed"] == 7


@pytest.mark.parametrize("seed", ["-1", "x"])
@pytest.mark.parametrize(
    "args",
    [_SPECTRUM, _FUSION, _SMATRIX, ["verify", "--suite", "spectrum", "--n", "2", "--m", "2"]],
    ids=["spectrum", "fusion", "smatrix", "verify"],
)
def test_a_bad_seed_is_a_usage_error_before_any_computation(args, seed, monkeypatch, capsys):
    """A negative --seed exits 2 naming the flag; it once ran as seed 1, or failed deep in numpy."""
    from ellfusion import cli, verification

    def refuse(*a, **k):
        raise AssertionError("a spectrum was computed")

    for module in (cli, operators, verification):
        monkeypatch.setattr(module, "joint_spectrum", refuse)
    monkeypatch.setattr(cli, "_rows", refuse)
    monkeypatch.setattr(cli, "s_matrix", refuse)
    monkeypatch.setattr(verification, "run_suite", refuse)
    code, out, err = run_cli([*args, "--seed", seed], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"ellfusion {args[0]}: error: argument --seed: ")
    assert "Traceback" not in err


def test_verify_command(capsys):
    code, out, err = run_cli(["verify", "--suite", "limits", "--n", "2", "--m", "1"], capsys)
    assert code == 0
    assert "OK" in out
    assert "FAIL" not in out.replace("FAILED", "")


def test_verify_takes_no_model_flags(capsys):
    """The checks choose their own couplings and nomes, so --g and --p are unknown flags."""
    for flag in ("--g", "--p"):
        code, out, err = run_cli(["verify", "--suite", "limits", "--n", "2", "--m", "1", flag, "0.7"], capsys)
        assert code == 2 and out == ""
        assert err.rstrip("\n").endswith(f"unrecognized arguments: {flag} 0.7")
        assert "Traceback" not in err
    code, out, err = run_cli(["verify", "--help"], capsys)
    assert code == 0 and "--g" not in out and "--p" not in out


@pytest.mark.parametrize("nm", [["--n", "0"], ["--n", "2", "--m", "-1"], ["--n", "1", "--m", "2"]])
def test_verify_checks_n_and_m_before_any_check(nm, monkeypatch, capsys):
    """n = 1 has no joint spectrum and no ideal generators: a usage error, as n = 0 is, before any check runs."""
    from ellfusion import verification

    monkeypatch.setattr(verification.Check, "report", lambda *a, **k: pytest.fail("a check ran"))
    code, out, err = run_cli(["verify", *nm], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ellfusion: error: ") and err.count("\n") == 1
    assert f"n={nm[1]}" in err or "m must be >= 0" in err


def test_verify_report_fields(tmp_path, capsys):
    path = tmp_path / "v.json"
    code, out, err = run_cli(["verify", "--suite", "limits", "--n", "2", "--m", "1", "--out", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["params"] == {"n": 2, "m": 1}
    assert payload["reports"]
    for report in payload["reports"]:
        assert list(report) == ["comparison", "max_abs", "tol", "passed"]
    assert all("  max_abs=" in line and "  tol=" in line and "max_rel" not in line for line in out.splitlines()[:-1])


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.4", "--seed", "5"],
        ["verify", "--suite", "all", "--n", "2", "--m", "2"],
        ["fusion", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3", "--route", "both"],
    ],
    ids=["spectrum", "verify", "fusion"],
)
def test_output_is_deterministic(args, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_usage_errors_exit_2(capsys):
    assert main(["nonsense"]) == 2
    # free-mode command without --alpha
    assert main(["poly", "--n", "2", "--mu", "1,0", "--g", "0.7", "--p", "0.3"]) == 2
    capsys.readouterr()
    gp = ["--g", "0.7", "--p", "0.3"]
    free = [*gp, "--alpha", "2.0"]
    lr = ["lr", "--n", "2", "--lam", "1,0", "--mu", "1,0", "--p", "0.3"]
    # arguments that parse but that the library rejects: one line on stderr
    for args in (
        ["lr", "--n", "3", "--lam", "1,2,0", "--mu", "1,0,0", *free],
        ["poly", "--n", "3", "--mu", "1,0", *free],
        ["spectrum", "--n", "0", "--m", "2", *gp],
        ["fusion", "--n", "2", "--m", "2", "--g", "-0.7", "--p", "0.3"],
        ["fusion", "--n", "2", "--m", "0", "--g", "0", "--p", "0.3"],  # m + n*g = 0
        ["fusion", "--n", "2", "--m", "2", "--g", "-1", "--p", "0.3"],
        ["pieri", "--n", "2", "--lam", "1,0", "--r", "5", *free],
        # out-of-range model arguments, checked before the free-mode gate
        [*lr, "--g", "0.7", "--alpha", "0"],
        [*lr, "--g", "0.7", "--alpha", "inf"],
        [*lr, "--g", "0.7", "--alpha", "nan"],
        [*lr, "--g", "inf", "--alpha", "2"],
        [*lr, "--g", "nan", "--alpha", "2"],
        ["fusion", "--n", "2", "--m", "2", "--g", "inf", "--p", "0.3"],
        ["fusion", "--n", "2", "--m", "2", "--g", "0.7", "--p", "1.5"],
        ["fusion", "--n", "2", "--m", "2", "--g", "0.7", "--p", "nan"],
        # one row: no operators D_1 .. D_{n-1}, so no joint spectrum
        ["spectrum", "--n", "1", "--m", "1", *gp],
        ["smatrix", "--n", "1", "--m", "1", *gp],
        ["fusion", "--n", "1", "--m", "1", *gp],
        ["verify", "--n", "1", "--m", "1"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert out == "" and err.startswith("ellfusion: error: ") and err.count("\n") == 1, args
    # the bracket has one evaluation path, so --precision is an unknown flag
    code, out, err = run_cli(["spectrum", "--n", "2", "--m", "2", *gp, "--precision", "mp30"], capsys)
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith("unrecognized arguments: --precision mp30")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", [["--alpha", "2.0"], ["--m", "2", "--level-locked"]])
def test_pieri_rejects_a_partition_of_another_length(mode, capsys):
    code, out, err = run_cli(
        ["pieri", "--n", "3", "--lam", "1,0", "--r", "1", "--g", "0.7", "--p", "0.3", *mode], capsys
    )
    assert code == 2 and out == ""
    assert "partition length 2 does not match n=3" in err


def test_computational_errors_exit_1(capsys):
    # resonant free-mode coupling is rejected by the genericity gate
    code, out, err = run_cli(
        ["poly", "--n", "2", "--mu", "2,0", "--g", "1.0", "--p", "0.0",
         "--alpha", str(2.0 * 3.141592653589793 / 3.0)],
        capsys,
    )
    assert code == 1
    assert "GenericityViolation" in err


def test_clustered_combinations_exit_1(monkeypatch, capsys):
    """Identity operators make every random combination cluster: DegenerateCombination, exit code 1."""
    conjugated = operators.conjugated_matrices

    def identities(params):
        mats, w = conjugated(params)
        return [np.eye(len(w), dtype=complex) for _ in mats], w

    monkeypatch.setattr(operators, "conjugated_matrices", identities)
    coeffs.clear_coeff_caches()  # no kept spectrum may answer the call
    try:
        code, out, err = run_cli(["spectrum", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3"], capsys)
    finally:
        coeffs.clear_coeff_caches()
    assert code == 1 and out == ""
    assert err.startswith("DegenerateCombination: ") and "Traceback" not in err


def test_header_embeds_params(capsys):
    code, out, err = run_cli(
        ["lr", "--n", "2", "--lam", "1,0", "--mu", "1,1", "--g", "0.7", "--p", "0.3",
         "--alpha", "2.0"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["params"]["n"] == 2
    assert payload["params"]["level_locked"] is False
    assert payload["params"]["alpha"] == 2.0


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
_json_payloads = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _json_payloads, max_size=5))
def test_json_writer_matches_indented_json_dumps(payload):
    """Same bytes as json.dumps(indent=2, allow_nan=False), empty containers and non-ASCII text included."""
    assert _json_text(payload) == json.dumps(payload, indent=2, allow_nan=False)


class _Label(str):
    pass


def test_json_writer_edge_values():
    cases = [
        [True, 1, False, 0, 1.0],  # bools never print as ints, nor ints as floats
        (1, 2, 3),
        {"a": [], "b": {}, "c": [[]], "d": [1.5, 2], "e": "\u00e9\u2603"},
        {1: "int key", 2.5: [None], True: {}},
        {"sub": [_Label("x"), 2**80, -0.0, 1e300]},
        "top-level string",
        17,
    ]
    for case in cases:
        payload = {"v": case}
        assert _json_text(payload) == json.dumps(payload, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        _json_text({"set": {1, 2}})


def test_json_writer_on_keys_and_values_that_read_as_slots():
    """A key or value "\x00", the slot of a template skeleton, or "%s" is written as json.dumps writes it."""
    matrix = np.array([[1.0 + 2.0j, -0.5]])
    payload = {"\x00": "\x00", "%s": ["\x00", "%s"], 'k": "\x00': partial(_complex_rows_chunks, matrix)}
    want = {"\x00": "\x00", "%s": ["\x00", "%s"], 'k": "\x00': _complex_pairs(matrix)}
    assert _json_text(payload) == json.dumps(want, indent=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_value_raises(bad, capsys):
    with pytest.raises(ComputationError, match="non-finite value in the probe payload"):
        _emit_json({"command": "probe", "rows": [[1.0, bad]]}, None)
    with pytest.raises(ComputationError):
        _emit_json({"command": "probe", "rows": [{"x": bad}]}, None)
    assert capsys.readouterr().out == ""


def test_an_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "--suite", "nope", "--n", "2", "--m", "2"], capsys)
    assert code == 2
    assert "argument --suite: invalid choice: 'nope'" in err
    assert "Traceback" not in err
    code, out, err = run_cli(["verify", "--help"], capsys)
    assert code == 0
    assert "{limits,ring,spectrum,all}" in out


def test_cli_and_lr_path_load_no_scipy():
    """Importing the CLI, an LR product, an expansion and a verify run load no scipy module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys
import ellfusion.cli as cli
from ellfusion.kernel import ModelParams
from ellfusion.littlewood import expand_in_P, lr_coefficients, multiply_monomial
from ellfusion.polynomials import build_P
params = ModelParams.locked(3, 3, 0.7, 0.3)
lr_coefficients((2, 1, 0), (1, 1, 0), params)
expand_in_P(multiply_monomial(build_P((2, 0, 0), params), build_P((1, 1, 0), params)), params)
assert cli.main(["verify", "--suite", "ring", "--n", "2", "--m", "2"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_chain_runs_with_mpmath_and_scipy_blocked():
    """numpy is the only runtime dependency: the chain runs with mpmath and scipy unimportable.

    The smatrix call runs at p = 0.9, in the modular regime of the kernel.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys
sys.modules["mpmath"] = None
sys.modules["scipy"] = None
import ellfusion
from ellfusion.cli import main
for args in (
    ["lr", "--n", "3", "--lam", "2,1,0", "--mu", "1,1,0", "--g", "0.65", "--p", "0.3", "--alpha", "2.0"],
    ["smatrix", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.9"],
    ["verify", "--suite", "all", "--n", "2", "--m", "2"],
):
    assert main(args) == 0, args
"""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _blocks(table):
    """The per-pair blocks of the fusion payload, built from ``table.values`` as dicts."""
    labels = table.labels
    return [
        {
            "lam": list(lam),
            "mu": list(mu),
            "entries": [
                {"kappa": list(labels[k]), "value": v}
                for k, v in enumerate(table.values[i, j].tolist())
                if v
            ],
        }
        for i, lam in enumerate(labels)
        for j, mu in enumerate(labels)
    ]


def _csv_rows(table):
    """The (lam, mu, kappa, value) rows of ``fusion --format csv``, read off the blocks."""
    fmt = " ".join
    return [
        [fmt(map(str, b["lam"])), fmt(map(str, b["mu"])), fmt(map(str, e["kappa"])), e["value"]]
        for b in _blocks(table)
        for e in b["entries"]
    ]


@pytest.mark.parametrize(
    "n,m,g,p,route",
    [
        (2, 2, 0.7, 0.3, "verlinde"),
        (3, 2, 0.7, -0.6, "verlinde"),
        (2, 2, 0.7, 0.3, "lr"),
        (3, 2, 1.0, 0.0, "lr"),
        (3, 2, 0.7, 0.3, "both"),
        (2, 3, 0.7, 0.3, "both"),
        (4, 4, 0.7, -0.6, "both"),
        (3, 6, 0.5, 0.3, "both"),
        (3, 4, 1.0, 0.0, "both"),
        (2, 0, 0.7, 0.3, "both"),  # m = 0: the one-label cone
        (3, 0, 1.0, 0.0, "lr"),
    ],
)
def test_fusion_payload_is_the_indented_dump_of_its_blocks(n, m, g, p, route, capsys):
    args = ["fusion", "--n", str(n), "--m", str(m), "--g", str(g), "--p", str(p), "--route", route]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    params = ModelParams.locked(n, m, g, p)
    payload = {"command": "fusion", "params": params.as_dict(), "seed": 0, "route": route}
    if route == "both":
        t_v, t_lr = fusion_table(params, route="verlinde"), fusion_table(params, route="lr")
        payload |= {"table": _blocks(t_v), "lr_table": _blocks(t_lr),
                    "diff": {"max_abs": float(np.abs(t_v.values - t_lr.values).max())}}
    else:
        payload["table"] = _blocks(fusion_table(params, route=route))
    assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _hand_table(**changes):
    """A FusionTable over the n=3 m=2 cone with signs, tiny values and an empty pair."""
    labels = tuple(enumerate_level(3, 2))
    N = len(labels)
    rng = np.random.default_rng(4)
    values = np.where(rng.random((N, N, N)) < 0.4, rng.standard_normal((N, N, N)), 0.0)
    values[0, 1, :4] = [-1.5, 5e-324, -1e-300, 1e300]
    values[1, 0, :2] = [-0.0, 0.1]  # -0.0 counts as zero, as ``if v`` does
    values[2, 3] = 0.0
    for k, v in changes.items():
        values[tuple(map(int, k.split("_")))] = v
    return FusionTable(params=ModelParams.locked(3, 2, 1.0, 0.0), labels=labels, values=values, route="lr")


def test_fusion_writer_on_a_hand_built_table():
    hand = _hand_table()
    blocks = _blocks(hand)
    assert blocks[1]["entries"][1]["value"] == 5e-324
    assert blocks[2 * len(hand.labels) + 3]["entries"] == []
    table = partial(_fusion_table_chunks, hand.labels, hand.values)
    for payload, want in [
        ({"v": table}, {"v": blocks}),
        ({"route": "lr", "table": table}, {"route": "lr", "table": blocks}),
    ]:
        assert _json_text(payload) == json.dumps(want, indent=2, allow_nan=False)


def test_fusion_writer_on_a_row_of_empty_pairs():
    """A table with a row of empty pairs, whose last pair ends the row."""
    table = _hand_table(**{"4": 0.0})  # every pair of row 4 empty
    assert not table.values[4].any()
    text = _json_text({"v": partial(_fusion_table_chunks, table.labels, table.values)})
    assert text == json.dumps({"v": _blocks(table)}, indent=2, allow_nan=False)


def _complex_pairs(matrix):
    return [[{"re": z.real, "im": z.imag} for z in map(complex, row)] for row in matrix]


def _smatrix_payload(params):
    """The smatrix payload of params as plain JSON data, the S rows as lists of {"re", "im"} dicts."""
    sm = s_matrix(params)
    return {
        "command": "smatrix", "params": params.as_dict(), "seed": 0,
        "labels": [list(nu) for nu in sm.labels], "S": _complex_pairs(sm.S), "Sinv": _complex_pairs(sm.Sinv),
        "normalization": sm.normalization, "identity_residual": sm.identity_residual(),
        "log_det_magnitude": sm.log_det_magnitude(), "log_det_closed_form": sm.log_det_closed_form(),
        "det_residual": sm.det_residual(),
    }


def test_smatrix_payload_is_the_indented_dump(capsys):
    code, out, err = run_cli(["smatrix", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3"], capsys)
    assert code == 0
    payload = _smatrix_payload(ModelParams.locked(3, 2, 0.7, 0.3))
    assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_smatrix_payload_at_a_large_nome_is_the_indented_dump(capsys):
    code, out, err = run_cli(["smatrix", "--n", "4", "--m", "4", "--g", "0.7", "--p", "0.9"], capsys)
    assert code == 0
    payload = _smatrix_payload(ModelParams.locked(4, 4, 0.7, 0.9))
    assert payload["log_det_magnitude"] > math.log(sys.float_info.max)  # |det S| itself overflows here
    assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_complex_rows_writer_edge_values():
    matrix = np.array([[1.0, -0.0 + 5e-324j, complex(1e300, -2.5)], [-0.0j, 3j, 0.1 + 0.2j]])

    def rows(m):
        return partial(_complex_rows_chunks, m)

    for payload, want in [
        ({"v": rows(matrix)}, {"v": _complex_pairs(matrix)}),
        (
            {"S": rows(matrix), "x": [1.5], "Sinv": rows(matrix[:1])},
            {"S": _complex_pairs(matrix), "x": [1.5], "Sinv": _complex_pairs(matrix[:1])},
        ),
        (
            {"a": rows(np.zeros((0, 0), complex)), "b": rows(np.zeros((2, 0), complex))},
            {"a": [], "b": [[], []]},
        ),
    ]:
        assert _json_text(payload) == json.dumps(want, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf), complex(0.0, math.nan)])
def test_complex_rows_writer_rejects_a_non_finite_part(bad, capsys):
    matrix = np.ones((3, 3), complex)
    matrix[2, 1] = bad
    with pytest.raises(ComputationError, match="^non-finite value in the smatrix payload$"):
        _emit_json({"command": "smatrix", "S": partial(_complex_rows_chunks, matrix)}, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fusion_writer_rejects_a_non_finite_value(bad, capsys):
    hand = _hand_table(**{"2_3_0": bad})
    table = partial(_fusion_table_chunks, hand.labels, hand.values)
    with pytest.raises(ComputationError, match="^non-finite value in the fusion payload$"):
        _emit_json({"command": "fusion", "table": table}, None)
    assert capsys.readouterr().out == ""


def test_fusion_csv_rows_are_those_of_the_blocks(tmp_path, capsys):
    table = _hand_table()
    assert list(_fusion_csv_rows(table.labels, table.values)) == _csv_rows(table)
    for route in ("verlinde", "lr"):
        path = tmp_path / f"{route}.csv"
        args = ["fusion", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3", "--route", route]
        assert main([*args, "--format", "csv", "--out", str(path)]) == 0
        rows = _csv_rows(fusion_table(ModelParams.locked(3, 2, 0.7, 0.3), route=route))
        want = "\n".join(["lam,mu,kappa,value", *(",".join(map(str, row)) for row in rows)]) + "\n"
        assert path.read_text() == want


def _spectrum_payload(params):
    """The spectrum payload of params as plain JSON data, each {"re", "im"} pair a dict."""
    spec = joint_spectrum(params)
    labels = [list(nu) for nu in spec.labels]
    e_rows, vector_columns = _complex_pairs(spec.e), _complex_pairs(spec.vectors.T)
    return {
        "command": "spectrum", "params": params.as_dict(), "seed": 0, "labels": labels,
        "points": [
            {
                "nu": nu, "e": e_rows[j], "dual_norm": float(spec.dual_norms[j]),
                "eigenvector": [{"lam": lam, "value": f} for lam, f in zip(labels, vector_columns[j])],
            }
            for j, nu in enumerate(labels)
        ],
        "homotopy_steps": [-s if params.p < 0 else s for s in spec.homotopy_steps],  # kept at |p|
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 4),
    m=st.integers(0, 3),  # m = 0 is the one-point cone
    g=st.sampled_from([0.4, 0.7, 1.0, 1.6]),
    p=st.sampled_from([0.0, 0.9, -0.9]),
)
def test_spectrum_payload_is_the_indented_dump(n, m, g, p, tmp_path, capsys):
    args = ["spectrum", "--n", str(n), "--m", str(m), "--g", str(g), "--p", str(p)]
    want = json.dumps(_spectrum_payload(ModelParams.locked(n, m, g, p)), indent=2, allow_nan=False) + "\n"
    assert json.loads(want)["homotopy_steps"][-1:] == ([p] if p else [])  # the steps take the sign of --p
    path = tmp_path / "spectrum.json"
    assert main([*args, "--out", str(path)]) == 0
    assert path.read_text() == want
    assert run_cli(args, capsys) == (0, want, "")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["e", "dual_norms", "vectors"])
def test_spectrum_writer_rejects_a_non_finite_point(where, bad, monkeypatch, tmp_path, capsys):
    """A non-finite value in the last point: exit 1 before any point is written, to a file or to stdout."""
    from ellfusion import cli

    spec = joint_spectrum(ModelParams.locked(3, 2, 0.7, 0.3))
    values = getattr(spec, where).copy()
    values.flat[-1] = bad
    monkeypatch.setattr(cli, "joint_spectrum", lambda params, seed: replace(spec, **{where: values}))
    path = tmp_path / "spectrum.json"
    path.write_bytes(b"earlier bytes\n")
    args = ["spectrum", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3"]
    failed = (1, "", "ComputationError: non-finite value in the spectrum payload\n")
    assert run_cli([*args, "--out", str(path)], capsys) == failed
    assert path.read_bytes() == b"earlier bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["spectrum.json"]
    assert run_cli(args, capsys) == failed


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--n", "2", "--m", "1", "--g", "0.7", "--p", "0.3"],
        ["fusion", "--n", "2", "--m", "1", "--g", "0.7", "--p", "0.3", "--format", "csv"],
    ],
    ids=["json", "csv"],
)
def test_an_unwritable_out_path_is_a_usage_error(args, tmp_path, capsys):
    """A missing directory, or a directory at the path: exit 2 and one stderr line naming the path,
    with no temp file left and the directory's contents kept."""
    missing = tmp_path / "missing" / "out.json"
    directory = tmp_path / "dir"
    directory.mkdir()
    (directory / "kept.txt").write_bytes(b"kept\n")
    for path in (missing, directory):
        code, out, err = run_cli([*args, "--out", str(path)], capsys)
        assert code == 2 and out == "", path
        assert err.startswith(f"ellfusion: error: cannot write --out {str(path)!r}: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert [p.name for p in directory.iterdir()] == ["kept.txt"]
    assert (directory / "kept.txt").read_bytes() == b"kept\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_out_target_is_written_in_place(tmp_path, capsys):
    """A FIFO at --out stays a FIFO and its reader gets the bytes a regular file gets; no temp file is left."""
    import stat
    import threading

    args = ["spectrum", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3"]
    plain = tmp_path / "plain.json"
    assert run_cli([*args, "--out", str(plain)], capsys)[0] == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run_cli([*args, "--out", str(fifo)], capsys)
    reader.join(timeout=60)
    assert (code, out, err) == (0, "", "")
    assert got == [plain.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "plain.json"]


def test_a_stdout_error_is_not_an_out_error(monkeypatch):
    class Broken:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Broken())
    with pytest.raises(BrokenPipeError):
        main(["spectrum", "--n", "2", "--m", "1", "--g", "0.7", "--p", "0.3"])


def _spy_verlinde_rows(monkeypatch, on_row):
    """Patch the raw row source so that on_row(i) runs before raw Verlinde row i is computed."""
    from ellfusion import fusion

    raw_rows = fusion._raw_rows

    def spied(params, route, *args, **kwargs):
        raw = raw_rows(params, route, *args, **kwargs)
        if route != "verlinde":
            return raw

        def row(i, mus=slice(None)):
            on_row(i)
            return raw(i, mus)

        return row

    monkeypatch.setattr(fusion, "_raw_rows", spied)


def _refuse_fusion_table(monkeypatch):
    """Make any call of ``fusion_table``, the one builder of a dense spectral table, fail."""
    from ellfusion import fusion

    def refuse(*args, **kwargs):
        raise AssertionError("the dense table was built")

    monkeypatch.setattr(fusion, "fusion_table", refuse)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_error_mid_table_writes_nothing(fmt, monkeypatch, tmp_path, capsys):
    """A row that raises mid-table: exit 1 and one stderr line; a file already at --out
    keeps its bytes and no temp file is left; without --out stdout stays empty."""

    def fail_at_row_3(i):
        if i == 3:
            raise ComputationError("row 3 failed")

    _spy_verlinde_rows(monkeypatch, fail_at_row_3)
    path = tmp_path / "table.out"
    path.write_bytes(b"earlier bytes\n")
    args = ["fusion", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3", "--format", fmt]
    code, out, err = run_cli([*args, "--out", str(path)], capsys)
    assert (code, out, err) == (1, "", "ComputationError: row 3 failed\n")
    assert path.read_bytes() == b"earlier bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.out"]
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (1, "", "ComputationError: row 3 failed\n")


def test_fusion_file_output_is_written_as_the_rows_are_computed(monkeypatch, tmp_path):
    """The first table block reaches the file handle before the last row is computed,
    and the Verlinde route builds no dense (N, N, N) table: ``fusion_table`` is never called."""
    events = []
    _spy_verlinde_rows(monkeypatch, lambda i: events.append(("row", i)))
    _refuse_fusion_table(monkeypatch)
    fdopen = os.fdopen

    class Handle:
        """A file that records each chunk written to it."""

        def __init__(self, *args, **kwargs):
            self.file = fdopen(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.file.__exit__(*exc)

        def write(self, text):
            events.append(("write", text))
            return self.file.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    monkeypatch.setattr(os, "fdopen", Handle)
    path = tmp_path / "table.json"
    assert main(["fusion", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3", "--out", str(path)]) == 0
    N = len(enumerate_level(3, 3))
    assert [e for e in events if e[0] == "row"] == [("row", i) for i in range(N)]
    first_block = next(k for k, (kind, what) in enumerate(events) if kind == "write" and '"lam"' in what)
    assert first_block < events.index(("row", N - 1))
    assert path.read_text() == "".join(what for kind, what in events if kind == "write")


def test_fusion_both_streams_each_verlinde_row_once(monkeypatch, tmp_path):
    """--route both computes each Verlinde row exactly once, in label order, and builds no dense table."""
    params = ModelParams.locked(3, 3, 0.7, 0.3)
    t_v, t_lr = fusion_table(params), fusion_table(params, route="lr")
    events = []
    _spy_verlinde_rows(monkeypatch, events.append)
    _refuse_fusion_table(monkeypatch)
    path = tmp_path / "both.json"
    assert main(["fusion", "--route", "both", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3",
                 "--out", str(path)]) == 0
    assert events == list(range(len(t_v.labels)))
    payload = {"command": "fusion", "params": params.as_dict(), "seed": 0, "route": "both",
               "table": _blocks(t_v), "lr_table": _blocks(t_lr), "diff": {"max_abs": float(np.abs(t_v.values - t_lr.values).max())}}
    assert path.read_text() == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_fusion_both_reports_a_verlinde_error_before_a_ring_error(monkeypatch, capsys):
    """A ring-table error is raised only after the last Verlinde row, so a Verlinde row error comes first."""
    from ellfusion import fusion

    def ring_fails(params):
        raise ComputationError("ring table failed")

    monkeypatch.setattr(fusion, "_ring_table", ring_fails)
    events = []
    _spy_verlinde_rows(monkeypatch, events.append)
    args = ["fusion", "--route", "both", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.3"]
    assert run_cli(args, capsys) == (1, "", "ComputationError: ring table failed\n")
    assert events == list(range(len(enumerate_level(3, 2))))

    def fail_at_row_3(i):
        if i == 3:
            raise ComputationError("row 3 failed")

    _spy_verlinde_rows(monkeypatch, fail_at_row_3)
    assert run_cli(args, capsys) == (1, "", "ComputationError: row 3 failed\n")


@pytest.mark.parametrize("m", [2, 3])
def test_fusion_both_names_the_verlinde_error_where_both_routes_raise(m, capsys):
    """At n=5 g=0.3 p=0.9 both routes raise; --route both reports the Verlinde route's error."""
    args = ["fusion", "--n", "5", "--m", str(m), "--g", "0.3", "--p", "0.9"]
    code, out, err = run_cli([*args, "--route", "verlinde"], capsys)
    assert code == 1 and "(verlinde)" in err
    assert run_cli([*args, "--route", "lr"], capsys)[0] == 1
    assert run_cli([*args, "--route", "both"], capsys) == (code, out, err)


def test_lr_rows_are_views_of_the_kept_ring_table():
    from ellfusion import fusion

    params = ModelParams.locked(3, 3, 0.7, 0.3)
    labels, rows = fusion._rows(params, "lr")
    table = fusion._ring_table(params)
    rows = list(rows)
    assert len(rows) == len(labels) == len(table)
    assert all(row.base is table for row in rows)


def test_file_output_follows_the_umask(tmp_path):
    """--out files get 0666 less the umask, as a plain open would give, not mkstemp's 0600."""
    path = tmp_path / "table.json"
    old = os.umask(0o022)
    try:
        assert main(["fusion", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3", "--out", str(path)]) == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["table.json"]
