"""Command-line verification driver.

Runs the pointwise identity checks or the quadrature checks on a named
scenario and prints one JSON report line per check (NDJSON).  Exit status:
0 when every requested check passes, 1 when any residual exceeds its
tolerance or a report could not be written (stdout closed or full, or the
``--report`` file failed), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .dist_tensors import (
    codazzi_residual,
    contact_identity_residual,
    contact_structure_residuals,
    collapse_residual,
    div_equivalence_residuals,
    trace_identity_residuals,
    walczak_residual_batch,
)
from .endo_fields import allowed_forms, check_pair
from .identity import reduce_record
from .quadrature import integral_formula_check, refine_counts, stokes_check
from .scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    conformal_hopf,
    random_scalar_field,
    random_vector_field,
)


def _rng(seed, check):
    return np.random.default_rng([seed, CHECK_NAMES.index(check)])


def run_pair(sc, points, seed, tol):
    cols = sc.sample_columns(_rng(seed, "pair"), points)
    return (*reduce_record(check_pair(sc.pair, sc.chart, cols)), points)


def run_allowed(sc, points, seed, tol):
    rng = _rng(seed, "allowed")
    cols = sc.sample_columns(rng, points)
    vx, vy = sc.sample_slot_vectors(rng, points, 2)
    return (*reduce_record(allowed_forms(sc.pair, sc.chart, cols, vx, vy)), points)


def run_collapse(sc, points, seed, tol):
    rng = _rng(seed, "collapse")
    cols = sc.sample_columns(rng, points)
    vx, vy = sc.sample_slot_vectors(rng, points, 2)
    return (*reduce_record(collapse_residual(sc.pair, sc.chart, cols, vx, vy)), points)


def run_codazzi(sc, points, seed, tol):
    rng = _rng(seed, "codazzi")
    cols = sc.sample_columns(rng, points)
    vecs = sc.sample_slot_vectors(rng, points, 4)
    return (*reduce_record(codazzi_residual(sc.pair, sc.chart, cols, *vecs)), points)


def run_div_equivalence(sc, points, seed, tol):
    rng = _rng(seed, "divergence")
    vec_field = random_vector_field(sc, rng)
    scalar_field = random_scalar_field(sc, rng)
    cols = sc.sample_columns(rng, points)
    record = div_equivalence_residuals(sc.pair.total(), sc.chart, vec_field, cols, scalar_field)
    return (*reduce_record(record), points)


def run_walczak(sc, points, seed, tol):
    cols = sc.sample_columns(_rng(seed, "walczak"), points)
    return (*reduce_record(walczak_residual_batch(sc.chart, sc.pair, cols)), points)


def run_traces(sc, points, seed, tol):
    cols = sc.sample_columns(_rng(seed, "traces"), points)
    return (*reduce_record(trace_identity_residuals(sc.pair, sc.chart, cols)), points)


def run_contact(sc, points, seed, tol):
    rng = _rng(seed, "contact")
    cols = sc.sample_columns(rng, points)
    (vx,) = sc.sample_slot_vectors(rng, points, 1)
    # the two candidate signs only separate when the unit field is neither
    # geodesic nor divergence-free; a conformal rescale provides that, and
    # its ``minus`` is a control that must not close to within 100 tol
    conf = conformal_hopf()
    ccols = conf.sample_columns(rng, points)
    (cvx,) = conf.sample_slot_vectors(rng, points, 1)
    phi, xi = sc.extras["phi"], sc.extras["xi"]
    signs = contact_identity_residual(conf.extras["phi"], conf.extras["xi"], conf.chart, cvx, ccols)
    record = contact_structure_residuals(phi, xi, sc.chart, cols)
    record["plus"] = contact_identity_residual(phi, xi, sc.chart, vx, cols)["plus"]
    record["rescaled_plus"] = signs["plus"]
    max_abs, max_norm = reduce_record(record)
    if reduce_record({"minus": signs["minus"]})[1] <= 100.0 * tol:
        # the rescale failed to separate the signs; refuse to report success
        max_norm = max(max_norm, 1.0)
    return max_abs, max_norm, points


CHECK_RUNNERS = {
    "pair": run_pair,
    "allowed": run_allowed,
    "collapse": run_collapse,
    "codazzi": run_codazzi,
    "divergence": run_div_equivalence,
    "walczak": run_walczak,
    "traces": run_traces,
    "contact": run_contact,
}
CHECK_NAMES = tuple(CHECK_RUNNERS)


def _report(sc, check, samples, seed, tol, max_abs, max_norm, passed, seconds, **extra):
    """One report line, with a runtime of ``seconds``.

    A report with a NaN or infinite residual fails whatever its tolerance.
    """
    finite = bool(np.isfinite(max_abs) and np.isfinite(max_norm))
    return {
        "scenario": sc.name,
        "check": check,
        "samples": samples,
        "seed": seed,
        "max_abs": float(max_abs),
        "max_normalized": float(max_norm),
        "tolerance": tol,
        "pass": finite and bool(passed),
        **extra,
        "runtime_ms": round(seconds * 1000.0, 3),
    }


def cmd_verify(sc, checks, points, seed, tol):
    reports = []
    for check in checks:
        t0 = time.monotonic()
        max_abs, max_norm, samples = CHECK_RUNNERS[check](sc, points, seed, tol)
        reports.append(
            _report(
                sc, check, samples, seed, tol, max_abs, max_norm, max_norm <= tol,
                time.monotonic() - t0,
            )
        )
    return reports


def cmd_integrate(sc, which, grid, seed, tol):
    """Reports of the requested grid and its coarse companion.  Each
    ``runtime_ms`` is the time its grid's chunks took, summed over the
    processes that evaluated them, plus the grid's reduction."""
    grids = (grid, sc.grid(refine_counts(grid.counts)))
    if which == "stokes":
        vec_field = random_vector_field(sc, np.random.default_rng([seed, 100]))
        results = stokes_check(sc.pair.total(), sc.chart, vec_field, *grids)
    else:
        results = integral_formula_check(sc.pair, sc.chart, *grids)
    reports = []
    for grid, res in zip(grids, results):
        # The coarse companion exists to show convergence under
        # refinement; it passes when it meets tolerance outright or
        # when the requested grid improved on it.  A grid with every count
        # at most 2 is its own companion, and equal is no improvement.
        max_norm = res["normalized"]
        improved = bool(reports) and reports[0]["max_normalized"] < max_norm
        extra = {"degenerate": res["degenerate"]} if which == "formula" else {}
        extra["grid"] = ",".join(str(int(c)) for c in grid.counts)
        reports.append(
            _report(
                sc, which, grid.total_nodes, seed, tol, abs(res["integral"]), max_norm,
                max_norm <= tol or improved, res["runtime_s"], **extra,
            )
        )
    return reports


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distpair",
        description="Residual checks for pairs of singular distributions.",
    )
    parser.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    parser.add_argument(
        "--check",
        action="append",
        choices=CHECK_NAMES,
        metavar="NAME",
        help="pointwise check to run (repeatable); default: all applicable",
    )
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument(
        "--which",
        choices=("stokes", "formula"),
        help="run a quadrature check instead of pointwise checks",
    )
    parser.add_argument(
        "--grid",
        default="64",
        help="comma-separated node counts per axis (or one count for all)",
    )
    parser.add_argument("--report", help="also write all reports to FILE as JSON")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.which is not None and args.check:
        parser.error("--which and --check are mutually exclusive")
    if args.points <= 0:
        parser.error("--points must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        parser.error("--tol must be a finite non-negative number")

    sc = build_scenario(args.scenario)
    if args.which is not None:
        try:
            counts = tuple(int(c) for c in args.grid.split(","))
        except ValueError:
            parser.error(f"bad --grid value: {args.grid!r}")
        try:
            grid = sc.grid(counts)
        except ValueError as exc:
            parser.error(f"bad --grid value {args.grid!r}: {exc}")
    else:
        # a scenario with an almost-contact structure carries phi in its extras
        has_contact = "phi" in sc.extras
        checks = args.check
        if checks is None:
            checks = [c for c in CHECK_NAMES if c != "contact" or has_contact]
        if "contact" in checks and not has_contact:
            parser.error(
                f"the contact check needs a contact structure, which {args.scenario} lacks"
            )
    # opened before any check runs, so a bad path is a usage error
    try:
        report_file = open(args.report, "w") if args.report else None
    except OSError as exc:
        parser.error(f"cannot write --report {args.report!r}: {exc.strerror}")
    if args.which is not None:
        reports = cmd_integrate(sc, args.which, grid, args.seed, args.tol)
    else:
        reports = cmd_verify(sc, checks, args.points, args.seed, args.tol)

    # a failed write leaves some report undelivered, so the status is 1
    delivered = True
    try:
        for rep in reports:
            sys.stdout.write(json.dumps(rep) + "\n")
        sys.stdout.flush()
    except OSError as exc:
        delivered = False
        _write_failed("stdout", exc)
        _discard_stdout()
    if report_file is not None:
        try:
            with report_file:
                json.dump(reports, report_file, indent=2)
                report_file.write("\n")
        except OSError as exc:
            delivered = False
            _write_failed(f"--report {args.report!r}", exc)
    return 0 if delivered and all(rep["pass"] for rep in reports) else 1


def _write_failed(target, exc):
    """Say on stderr why a write failed, unless the reader closed its pipe
    early (``distpair ... | head -1``), which is no error of ours."""
    if not isinstance(exc, BrokenPipeError):
        sys.stderr.write(f"distpair: cannot write {target}: {exc.strerror}\n")


def _discard_stdout():
    """Point the process's closed stdout at os.devnull, so the interpreter's
    last flush of the unsent lines raises nothing.  A stream an in-process
    caller put in its place is left alone."""
    if sys.stdout is not sys.__stdout__:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
