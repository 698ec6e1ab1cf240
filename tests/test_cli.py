"""Command-line driver: report schema, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys

import pytest

from distpair import cli, dist_tensors
from distpair.cli import main
from distpair.identity import LHS, Identity
from distpair.scenarios import build_scenario

REQUIRED_KEYS = [
    "scenario",
    "check",
    "samples",
    "seed",
    "max_abs",
    "max_normalized",
    "tolerance",
    "pass",
    "runtime_ms",
]


def _parse_lines(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    return [json.loads(ln) for ln in lines]


def test_verify_emits_one_json_line_per_check(capsys):
    code = main(
        [
            "--scenario",
            "warped-torus",
            "--check",
            "pair",
            "--check",
            "codazzi",
            "--points",
            "10",
        ]
    )
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    assert [r["check"] for r in reports] == ["pair", "codazzi"]
    for r in reports:
        for key in REQUIRED_KEYS:
            assert key in r, key
        assert r["scenario"] == "warped-torus"
        assert r["samples"] == 10
        assert r["pass"] is True
        assert r["max_normalized"] <= r["tolerance"]


def test_default_check_list_excludes_contact_off_hopf(capsys):
    code = main(["--scenario", "flat-torus", "--points", "4"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    names = [r["check"] for r in reports]
    assert "contact" not in names
    assert names[0] == "pair" and "walczak" in names and "traces" in names


def test_contact_check_included_on_hopf(capsys):
    code = main(["--scenario", "hopf-s3", "--check", "contact", "--points", "8"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    assert reports[0]["check"] == "contact" and reports[0]["pass"] is True


def test_contact_max_abs_reads_both_unnormalized_residuals(monkeypatch, capsys):
    """max_abs is the largest unnormalized residual over hopf-s3 and its
    conformal rescale, here the rescale's ``plus``.  A rescale whose wrong
    sign also closes (its normalized ``minus`` <= 100 tol) fails the report."""

    def fixed(value, normalized):
        # one term ``value``, normalized to ``normalized`` (up to rounding)
        return Identity((("term", LHS, value),), None, lambda _ident: value / normalized, None)

    values = {
        "hopf-s3": {"plus": fixed(1e-15, 1e-16)},
        "hopf-s3-conformal": {"plus": fixed(5e-15, 2e-16)},
    }
    minus = {"minus": fixed(1e-3, 1.0)}

    def residual(phi, xi, chart, vx, cols):
        return {**values[chart.name], **minus}

    monkeypatch.setattr(cli, "contact_structure_residuals", lambda *args: {})
    monkeypatch.setattr(cli, "contact_identity_residual", residual)
    max_abs, max_norm, _ = cli.run_contact(build_scenario("hopf-s3"), 4, 42, 1e-6)
    assert (max_abs, max_norm) == (5e-15, 2e-16)

    minus["minus"] = fixed(1e-3, 5e-5)  # <= 100 tol: the signs did not separate
    code = main(["--scenario", "hopf-s3", "--check", "contact", "--points", "4"])
    (report,) = _parse_lines(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    assert (report["max_abs"], report["max_normalized"]) == (5e-15, 1.0)


def test_contact_elsewhere_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "warped-torus", "--check", "contact"])
    assert exc.value.code == 2


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "moebius"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "warped-torus", "--which", "stokes", "--grid", "0"],
        ["--scenario", "warped-torus", "--which", "stokes", "--grid", "4,4,4"],
        ["--scenario", "warped-torus", "--which", "formula", "--seed", "-1"],
        ["--scenario", "flat-torus", "--check", "pair", "--points", "2", "--tol=-1e-6"],
        ["--scenario", "flat-torus", "--check", "pair", "--points", "2", "--tol", "nan"],
        ["--scenario", "flat-torus", "--check", "pair", "--points", "2", "--tol", "inf"],
        ["--scenario", "flat-torus", "--check", "pair", "--points", "0"],
        ["--scenario", "warped-torus", "--which", "stokes", "--grid", "a,b"],
    ],
    ids=[
        "grid-zero", "grid-count-mismatch", "negative-seed", "negative-tol", "nan-tol", "inf-tol",
        "zero-points", "non-integer-grid",
    ],
)
def test_bad_option_values_are_usage_errors(argv, capsys):
    # each would otherwise raise a traceback (exit 1) or print a report
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_which_and_check_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "flat-torus", "--which", "stokes", "--check", "pair"])
    assert exc.value.code == 2


def test_impossible_tolerance_fails_with_exit_one(capsys):
    code = main(
        [
            "--scenario",
            "warped-torus",
            "--check",
            "walczak",
            "--points",
            "10",
            "--tol",
            "1e-30",
        ]
    )
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 1
    assert reports[0]["pass"] is False
    assert reports[0]["max_normalized"] > 1e-30


def test_integrate_mode_emits_fine_and_companion_grids(capsys):
    code = main(["--scenario", "warped-torus", "--which", "stokes", "--grid", "16"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    assert [r["grid"] for r in reports] == ["16,16", "8,8"]
    assert all(r["check"] == "stokes" for r in reports)
    # the requested grid meets tolerance; the half-resolution companion
    # passes because refinement visibly reduced the residual
    assert reports[0]["max_normalized"] <= reports[0]["tolerance"]
    assert reports[0]["max_normalized"] < reports[1]["max_normalized"]
    assert all(r["pass"] is True for r in reports)


def test_companion_on_the_requested_grid_does_not_pass_by_refinement(capsys):
    # at --grid 2 the companion has max(2, ceil(2 / 2)) = 2 nodes per axis
    # and at --grid 1 it has 1, never more than requested: the requested
    # grid itself, so no refinement took place and the companion passes
    # only if it meets tolerance
    for which, arg, grid in (("formula", "2", "2,2"), ("stokes", "1,1", "1,1")):
        code = main(["--scenario", "warped-torus", "--which", which, "--grid", arg])
        fine, coarse = _parse_lines(capsys.readouterr().out)
        assert code == 1
        assert fine["grid"] == coarse["grid"] == grid
        assert fine["max_normalized"] == coarse["max_normalized"] > coarse["tolerance"]
        assert fine["pass"] is False and coarse["pass"] is False


def test_integrate_formula_reports_degenerate_flag(capsys):
    code = main(["--scenario", "flat-torus", "--which", "formula", "--grid", "8"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    assert all(r["degenerate"] is True for r in reports)


def test_report_file_contains_all_reports(tmp_path, capsys):
    target = tmp_path / "out.json"
    main(
        [
            "--scenario",
            "flat-torus",
            "--check",
            "pair",
            "--points",
            "5",
            "--report",
            str(target),
        ]
    )
    capsys.readouterr()
    data = json.loads(target.read_text())
    assert isinstance(data, list) and data[0]["check"] == "pair"


@pytest.mark.parametrize(
    "argv",
    [["--check", "pair", "--points", "2"], ["--which", "stokes", "--grid", "4"]],
    ids=["verify", "integrate"],
)
def test_unwritable_report_path_is_a_usage_error_before_any_check(
    argv, tmp_path, monkeypatch, capsys
):
    ran = []
    monkeypatch.setattr(cli, "cmd_verify", lambda *args: ran.append("verify"))
    monkeypatch.setattr(cli, "cmd_integrate", lambda *args: ran.append("integrate"))
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "flat-torus", *argv, "--report", str(target)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert "--report" in err and str(target) in err
    assert not target.parent.exists()


def test_cli_output_is_deterministic_for_fixed_seed(child_env):
    cmd = [
        sys.executable,
        "-m",
        "distpair.cli",
        "--scenario",
        "warped-torus",
        "--check",
        "codazzi",
        "--check",
        "walczak",
        "--points",
        "15",
        "--seed",
        "7",
    ]
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        masked = re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', proc.stdout)
        outs.append(masked)
    assert outs[0] == outs[1]


def test_closed_pipe_exits_1_without_a_traceback(child_env, tmp_path):
    # the reader is gone before the first line is written, as when
    # ``distpair ... | head -1`` exits early
    target = tmp_path / "report.json"
    cmd = [
        sys.executable,
        "-c",
        "import sys; from distpair.cli import main; sys.exit(main())",
        "--scenario",
        "flat-torus",
        "--check",
        "pair",
        "--points",
        "2",
        "--report",
        str(target),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env()
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""
    (report,) = json.loads(target.read_text())
    assert report["check"] == "pair" and report["pass"] is True


def test_seed_changes_sampled_residuals(capsys):
    vals = []
    for seed in ("3", "4"):
        main(
            [
                "--scenario",
                "warped-torus",
                "--check",
                "walczak",
                "--points",
                "10",
                "--seed",
                seed,
            ]
        )
        rep = _parse_lines(capsys.readouterr().out)[0]
        vals.append(rep["max_abs"])
    assert vals[0] != vals[1]


def _nan_p1_scenario(monkeypatch):
    """warped-torus with an all-NaN P1, served to the CLI by name."""
    sc = build_scenario("warped-torus")
    nan = float("nan")
    broken = dataclasses.replace(
        sc, pair=dataclasses.replace(sc.pair, p1=lambda _z: [[nan, nan], [nan, nan]])
    )
    monkeypatch.setattr(cli, "build_scenario", lambda _name: broken)


def test_non_finite_residuals_fail_closed(monkeypatch, capsys):
    _nan_p1_scenario(monkeypatch)
    argv = ["--scenario", "warped-torus", "--points", "5"]
    code = main(argv + ["--check", "pair", "--check", "allowed", "--check", "codazzi"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 1
    assert [r["check"] for r in reports] == ["pair", "allowed", "codazzi"]
    for r in reports:
        assert r["pass"] is False, r
        assert math.isnan(r["max_abs"]) and math.isnan(r["max_normalized"]), r


def test_non_finite_integral_fails_closed(monkeypatch, capsys):
    _nan_p1_scenario(monkeypatch)
    code = main(["--scenario", "warped-torus", "--which", "stokes", "--grid", "8"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 1
    assert [r["pass"] for r in reports] == [False, False]


POINTWISE_CHECKS = ("pair", "allowed", "collapse", "codazzi", "divergence", "walczak", "traces")
SINGLE_NAN_CASES = [
    (name, field, i, j)
    for name, n in (("warped-torus", 2), ("hopf-s3", 3))
    for field in ("p1", "p2")
    for i in range(n)
    for j in range(n)
]


@pytest.mark.parametrize("name,field,i,j", SINGLE_NAN_CASES)
def test_single_nan_entry_fails_every_check(monkeypatch, capsys, name, field, i, j):
    """One NaN entry of P1 or P2 fails every pointwise and integral check:
    no product skipped as a structural zero may hide it."""
    sc = build_scenario(name)
    intact = getattr(sc.pair, field)

    def broken(z):
        p = [list(row) for row in intact(z)]
        p[i][j] = float("nan")
        return p

    broken_sc = dataclasses.replace(sc, pair=dataclasses.replace(sc.pair, **{field: broken}))
    monkeypatch.setattr(cli, "build_scenario", lambda _name: broken_sc)
    argv = ["--scenario", name, "--points", "3"]
    runs = [argv + [a for c in POINTWISE_CHECKS for a in ("--check", c)]]
    runs += [["--scenario", name, "--which", w, "--grid", "8"] for w in ("formula", "stokes")]
    checks = []
    for run in runs:
        assert main(run) == 1
        for r in _parse_lines(capsys.readouterr().out):
            checks.append(r["check"])
            assert r["pass"] is False, r
            assert math.isnan(r["max_abs"]), r
    assert checks == [*POINTWISE_CHECKS, "formula", "formula", "stokes", "stokes"]


def test_traces_sample_every_requested_point(capsys):
    code = main(["--scenario", "warped-torus", "--check", "traces", "--points", "15"])
    reports = _parse_lines(capsys.readouterr().out)
    assert code == 0
    assert reports[0]["samples"] == 15


def test_tower_checks_evaluate_one_batch(monkeypatch, capsys):
    """One tower evaluation per check, whatever the number of points: a
    fallback to per-point loops would multiply these counts."""
    calls = {"tsr_tensors": 0, "curvature_term": 0, "trace_identity_residuals": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(dist_tensors, "tsr_tensors")
    counting(dist_tensors, "curvature_term")
    counting(cli, "trace_identity_residuals")
    assert main(["--scenario", "hopf-s3", "--check", "codazzi", "--points", "10"]) == 0
    assert calls == {"tsr_tensors": 1, "curvature_term": 1, "trace_identity_residuals": 0}
    # the frame traces read t1, t2, s1, s2 only: no curvature-term towers
    assert main(["--scenario", "hopf-s3", "--check", "traces", "--points", "3"]) == 0
    assert calls == {"tsr_tensors": 2, "curvature_term": 1, "trace_identity_residuals": 1}
    capsys.readouterr()
