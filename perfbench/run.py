"""distpair benchmark: time to a verdict from the ``distpair`` CLI.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload towers-hopf --seed 42 --seconds 50 --trace 0

Each run is one fresh process.  It drives the real entry point,
``distpair.cli.main(argv)``, in-process, the way a CLI user pays for it: every
invocation builds its own scenario.  Every report is checked from outside
(see ``gate``), and a deliberately broken pair must fail the tower checks.

``--trace 0`` prints the end-to-end metrics, measured with nothing attached:

* ``setup_s``: median, over fresh child processes, of ``import distpair`` plus
  ``build_scenario`` for each scenario the workload names;
* ``verdict_s``: median wall time of one repetition of the workload's CLI
  invocations, repeated in rounds until ``--seconds`` have passed;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

Both times are scaled to a reference machine speed by a calibration measured
in the same rounds (see ``calibration_s``); the unscaled medians and the
scale factor are in the details line.

``--trace 1`` runs the same untraced repetitions, then two repetitions under
``cProfile`` with counting wrappers installed from here (nothing under
``src/`` is edited), and prints the per-layer metrics.  The counts of the two
traced repetitions must agree exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries details (seed, repetitions, samples).  Exit status is 0 when a result
was printed and 2 when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is first imported, here and in children.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import cProfile
import importlib
import inspect
import io
import json
import math
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "distpair"

TOL = 1e-6
MIN_REPS = 5
NEGATIVE_POINTS = 20
MODULES = (
    "dual",
    "linalg",
    "chart_geometry",
    "endo_fields",
    "dist_tensors",
    "quadrature",
    "scenarios",
    "cli",
)


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Verify:
    """One pointwise CLI invocation; every check is named explicitly so that
    a change to the CLI's default check list cannot change the work."""

    scenario: str
    checks: tuple
    points: int

    def argv(self, seed):
        args = ["--scenario", self.scenario, "--points", str(self.points)]
        for check in self.checks:
            args += ["--check", check]
        return args + ["--seed", str(seed), "--tol", repr(TOL)]

    def expected(self):
        return [{"check": c, "samples": self.points} for c in self.checks]


@dataclass(frozen=True)
class Integrate:
    """One quadrature CLI invocation: the requested grid plus the coarse
    companion the CLI adds (ceil(n/2) per axis, at least 2)."""

    scenario: str
    which: str
    grid: tuple

    def argv(self, seed):
        return [
            "--scenario", self.scenario,
            "--which", self.which,
            "--grid", _grid_string(self.grid),
            "--seed", str(seed),
            "--tol", repr(TOL),
        ]

    def expected(self):
        coarse = tuple(max(2, math.ceil(c / 2)) for c in self.grid)
        return [
            {"check": self.which, "samples": math.prod(g), "grid": _grid_string(g)}
            for g in (self.grid, coarse)
        ]


def _grid_string(counts):
    return ",".join(str(c) for c in counts)


TOWER_CHECKS = ("pair", "allowed", "collapse", "codazzi", "divergence", "walczak")

# Point counts keep `traces` at <= 12 points and `contact` at <= 40, below the
# CLI's sampling caps, so removing those caps does not change the work.
WORKLOADS = {
    # Scalar-payload Dual towers on the 3-d sphere; the only CLI scenario
    # whose Codazzi terms and contact sign split are non-zero.
    "towers-hopf": (
        Verify("hopf-s3", TOWER_CHECKS, 40),
        Verify("hopf-s3", ("contact",), 40),
        Verify("hopf-s3", ("traces",), 3),
    ),
    # The same tower layers at n = 5: more jet passes per point and more
    # pressure on the geometry cache.  Residuals are exactly 0 (load only).
    "towers-s3xt2": (
        Verify("einstein-s3xt2", TOWER_CHECKS[1:], 24),
    ),
    # ndarray-payload duals through the einsum batch engine and chunked
    # quadrature; no point towers outside scenario construction.
    "quadrature": (
        Integrate("warped-torus", "formula", (128, 128)),
        Integrate("warped-torus", "stokes", (128, 128)),
        Integrate("hopf-s3", "formula", (24, 24, 24)),
        Integrate("hopf-s3", "stokes", (16, 16, 16)),
        Integrate("einstein-s3xt2", "formula", (5, 5, 5, 4, 4)),
        Integrate("einstein-s3xt2", "stokes", (10, 10, 10, 6, 6)),
    ),
}

CLI_CHECKS = (
    "pair", "allowed", "collapse", "codazzi", "divergence",
    "walczak", "traces", "contact", "formula", "stokes",
)

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "dual.objects": "count",
    "dual.passes": "count",
    "dual.self_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "chart_geometry.jet_lookups": "count",
    "chart_geometry.jets_computed": "count",
    "chart_geometry.jet_hit_ratio": "ratio",
    "chart_geometry.christoffel_calls": "count",
    "chart_geometry.cov_at_calls": "count",
    "chart_geometry.self_s": "s",
    "endo_fields.self_s": "s",
    "dist_tensors.tsr_tensors.calls": "count",
    "dist_tensors.tsr_tensors.ms_per_call": "ms",
    "dist_tensors.trace_identity_residuals.ms_per_call": "ms",
    "dist_tensors.dist_invariants_batch.us_per_node": "us",
    "dist_tensors.div_p_batch.us_per_node": "us",
    "dist_tensors.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.chunks": "count",
    "quadrature.us_per_node": "us",
    "quadrature.self_s": "s",
    "scenarios.build_s": "s",
    "scenarios.self_s": "s",
    **{f"cli.{check}.s": "s" for check in CLI_CHECKS},
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def workload_scenarios(invocations):
    return tuple(dict.fromkeys(inv.scenario for inv in invocations))


# -- running and checking the CLI --------------------------------------------------


def run_cli(cli, argv):
    """(seconds, stdout, error) of one in-process ``cli.main(argv)``."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed report
        return time.perf_counter() - t0, buf.getvalue(), repr(exc)
    return time.perf_counter() - t0, buf.getvalue(), None


def gate(inv, seed, out, error, degenerate_flags):
    """Failure reasons for the reports of one invocation, one per report."""
    expected = inv.expected()
    if error is not None:
        return [f"{inv.scenario}: raised {error}"] * len(expected)
    try:
        reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [f"{inv.scenario}: unparsable output ({exc})"] * len(expected)
    if len(reports) != len(expected):
        return [f"{inv.scenario}: {len(reports)} reports, {len(expected)} wanted"] * len(
            expected
        )
    failures = []
    for rep, want in zip(reports, expected):
        where = f"{inv.scenario}/{want['check']}"
        if rep.get("check") != want["check"] or rep.get("scenario") != inv.scenario:
            failures.append(f"{where}: got report {rep.get('scenario')}/{rep.get('check')}")
        elif rep.get("seed") != seed:
            failures.append(f"{where}: seed {rep.get('seed')}")
        elif rep.get("pass") is not True:
            failures.append(f"{where}: did not pass (max_normalized {rep.get('max_normalized')})")
        elif rep.get("samples") != want["samples"]:
            failures.append(f"{where}: samples {rep.get('samples')} != {want['samples']}")
        elif "grid" in want and rep.get("grid") != want["grid"]:
            failures.append(f"{where}: grid {rep.get('grid')} != {want['grid']}")
        elif want["check"] == "formula" and rep.get("degenerate") != degenerate_flags[
            inv.scenario
        ]:
            failures.append(f"{where}: degenerate {rep.get('degenerate')}")
    return failures


class Ledger:
    """Reports attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, count, failures):
        self.attempted += count
        self.failures += failures


def run_repetition(cli, invocations, seed, ledger, degenerate_flags):
    """Wall time of one repetition of the workload; every report is gated."""
    total = 0.0
    outputs = []
    for inv in invocations:
        seconds, out, error = run_cli(cli, inv.argv(seed))
        total += seconds
        outputs.append((inv, out, error))
    for inv, out, error in outputs:
        ledger.add(len(inv.expected()), gate(inv, seed, out, error, degenerate_flags))
    return total


def negative_control(cli, scenarios, seed, ledger):
    """A pair that is adapted but not allowed must fail the tower checks."""
    sc = scenarios.non_allowed_rotated()
    observed = {}
    for runner in (cli.run_allowed, cli.run_collapse, cli.run_codazzi):
        name = runner.__name__
        try:
            _, max_norm, samples = runner(sc, NEGATIVE_POINTS, seed, TOL)
        except Exception as exc:  # a crash is not the expected failure
            ledger.add(1, [f"negative control {name}: raised {exc!r}"])
            continue
        observed[name] = float(max_norm)
        ok = math.isfinite(max_norm) and max_norm > TOL and samples == NEGATIVE_POINTS
        ledger.add(
            1,
            [] if ok else [f"negative control {name}: {max_norm} on {samples} points did not fail"],
        )
    return observed


# -- set-up in fresh processes ------------------------------------------------------

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import distpair
from distpair.scenarios import build_scenario
for name in sys.argv[2:]:
    build_scenario(name)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(names):
    """Seconds a fresh process needs to import distpair and build ``names``."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *names],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- machine speed -------------------------------------------------------------------

# The speed of a shared host drifts: the same repetition took 1.9 s and 3.5 s
# a few minutes apart, with CPU time equal to wall time.  A fixed calibration
# made of the program's kinds of work (Python-object dual arithmetic, small
# numpy kernels, a fresh interpreter importing numpy) runs in every round and
# tracks that drift; the time metrics are reported at the machine speed at
# which the calibration takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.11

CALIBRATION_CHILD = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""


class _Jet:
    __slots__ = ("tag", "val", "eps")

    def __init__(self, tag, val, eps):
        self.tag, self.val, self.eps = tag, val, eps

    def __mul__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.tag, self.val * other.val, self.val * other.eps + self.eps * other.val)
        return _Jet(self.tag, self.val * other, self.eps * other)

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.tag, self.val + other.val, self.eps + other.eps)
        return _Jet(self.tag, self.val + other, self.eps)


def calibration_s():
    """Seconds for the fixed calibration; it touches nothing of distpair."""
    t0 = time.perf_counter()
    live = []
    for k in range(4000):
        x = _Jet(1, 0.5 + k * 1e-4, 1.0)
        m = [[x * x + 1.0, x * 0.5], [x * 0.5, x * x * x + 2.0]]
        live.append(m)
        m[0][0] * m[1][1] + m[0][1] * m[1][0] * (-1.0)
    a = np.random.default_rng(0).normal(size=(3, 3, 2000))
    for _ in range(60):
        b = np.einsum("ikn,kjn->ijn", a, a)
        np.sin(b) * 1.0001 + b
    in_process = time.perf_counter() - t0
    proc = subprocess.run(
        [sys.executable, "-c", CALIBRATION_CHILD],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return in_process + float(proc.stdout.strip().splitlines()[-1])


# -- tracing -------------------------------------------------------------------------


class Hooks:
    """Counting/timing wrappers on public entry points, installed from outside.

    A wrapped name is replaced in every ``distpair`` module that binds the same
    function, so calls across modules are seen too.  Everything is restored on
    exit.
    """

    def __init__(self, modules):
        self.modules = modules
        self.check_s = dict.fromkeys(CLI_CHECKS, 0.0)
        self.nodes = {"dist_invariants_batch": 0, "div_p_batch": 0, "quadrature": 0}
        self.chunks = 0
        self._undo = []

    def __enter__(self):
        cli, dt, quad = self.modules["cli"], self.modules["dist_tensors"], self.modules["quadrature"]
        for check, runner in list(cli.CHECK_RUNNERS.items()):
            self._set(cli.CHECK_RUNNERS, check, self._timed(runner, check))
        for name, check in (("integral_formula_check", "formula"), ("stokes_check", "stokes")):
            fn = getattr(quad, name, None)
            if fn is not None:
                self._rebind(fn, self._timed(fn, check, count_grid=True))
        for name in ("dist_invariants_batch", "div_p_batch"):
            fn = getattr(dt, name, None)
            if fn is not None:
                self._rebind(fn, self._node_counter(fn, name))
        chunker = getattr(quad, "_chunk_nodes", None)
        if chunker is not None:
            self._rebind(chunker, self._chunk_counter(chunker))
        return self

    def __exit__(self, *exc):
        for namespace, key, old in reversed(self._undo):
            namespace[key] = old
        self._undo.clear()

    def _set(self, namespace, key, new):
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = new

    def _rebind(self, fn, new):
        for mod in self.modules.values():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._set(namespace, key, new)

    def _timed(self, fn, check, count_grid=False):
        def wrapper(*args, **kwargs):
            if count_grid:
                self.nodes["quadrature"] += sum(
                    a.total_nodes for a in (*args, *kwargs.values()) if hasattr(a, "total_nodes")
                )
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.check_s[check] += time.perf_counter() - t0

        return wrapper

    def _node_counter(self, fn, name):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            cols = sig.bind(*args, **kwargs).arguments["cols"]
            self.nodes[name] += int(_size(cols[0]))
            return fn(*args, **kwargs)

        return wrapper

    def _chunk_counter(self, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.chunks += 1
                yield item

        return wrapper


def _size(col):
    shape = getattr(col, "shape", ())
    return math.prod(shape) if shape else 1


class Profile:
    """cProfile statistics grouped by ``distpair`` module.

    Every code object is kept, keyed by ``(filename, line, func)``: a module
    holds many code objects of one name (each comprehension, lambda and nested
    closure), and self time must count all of them."""

    def __init__(self, stats):
        self.by_module = {m: [] for m in MODULES}
        for (filename, line, func), entry in stats.items():
            path = Path(filename)
            if path.parent == PKG and path.stem in self.by_module:
                self.by_module[path.stem].append((line, func, entry))

    def self_s(self, module):
        return sum(entry[2] for _, _, entry in self.by_module[module])

    def _entry(self, module, func):
        """The one entry of ``module`` named ``func``, or None if never called."""
        found = [entry for _, name, entry in self.by_module[module] if name == func]
        if len(found) > 1:
            lines = sorted(line for line, name, _ in self.by_module[module] if name == func)
            raise ValueError(f"{module}.{func} is ambiguous: code objects at lines {lines}")
        return found[0] if found else None

    def calls(self, module, func, callers=None):
        entry = self._entry(module, func)
        if entry is None:
            return 0
        if callers is None:
            return entry[1]
        return sum(v[0] for (_, _, name), v in entry[4].items() if name in callers)

    def cum_s(self, module, func):
        entry = self._entry(module, func)
        return entry[3] if entry is not None else 0.0

    def calls_into(self, module):
        """Calls to ``module``'s public functions from code outside it.

        Generator expressions and comprehensions are skipped: cProfile counts
        each resumption of a generator as a call, and not reproducibly."""
        own = PKG / f"{module}.py"
        return sum(
            v[0]
            for _, func, entry in self.by_module[module]
            if func.isidentifier() and not func.startswith("_")
            for (filename, _, _), v in entry[4].items()
            if Path(filename) != own
        )


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def layer_metrics(prof, hooks):
    lookups = prof.calls("chart_geometry", "jet1") + prof.calls("chart_geometry", "jet2")
    computed = prof.calls("chart_geometry", "_metric_jet", callers=("jet1", "jet2"))
    tsr_calls = prof.calls("dist_tensors", "tsr_tensors")
    trace_calls = prof.calls("dist_tensors", "trace_identity_residuals")
    quad_s = prof.cum_s("quadrature", "integral_formula_check") + prof.cum_s(
        "quadrature", "stokes_check"
    )
    return {
        "dual.objects": prof.calls("dual", "__init__"),
        "dual.passes": prof.calls("dual", "fresh_tag"),
        "dual.self_s": prof.self_s("dual"),
        "linalg.calls": prof.calls_into("linalg"),
        "linalg.self_s": prof.self_s("linalg"),
        "chart_geometry.jet_lookups": lookups,
        "chart_geometry.jets_computed": computed,
        "chart_geometry.jet_hit_ratio": 1.0 - computed / lookups if lookups else 0.0,
        "chart_geometry.christoffel_calls": prof.calls("chart_geometry", "christoffel"),
        "chart_geometry.cov_at_calls": prof.calls("chart_geometry", "cov_at"),
        "chart_geometry.self_s": prof.self_s("chart_geometry"),
        "endo_fields.self_s": prof.self_s("endo_fields"),
        "dist_tensors.tsr_tensors.calls": tsr_calls,
        "dist_tensors.tsr_tensors.ms_per_call": _per(
            prof.cum_s("dist_tensors", "tsr_tensors"), tsr_calls, 1e3
        ),
        "dist_tensors.trace_identity_residuals.ms_per_call": _per(
            prof.cum_s("dist_tensors", "trace_identity_residuals"), trace_calls, 1e3
        ),
        "dist_tensors.dist_invariants_batch.us_per_node": _per(
            prof.cum_s("dist_tensors", "dist_invariants_batch"),
            hooks.nodes["dist_invariants_batch"],
            1e6,
        ),
        "dist_tensors.div_p_batch.us_per_node": _per(
            prof.cum_s("dist_tensors", "div_p_batch"), hooks.nodes["div_p_batch"], 1e6
        ),
        "dist_tensors.self_s": prof.self_s("dist_tensors"),
        "quadrature.nodes": hooks.nodes["quadrature"],
        "quadrature.chunks": hooks.chunks,
        "quadrature.us_per_node": _per(quad_s, hooks.nodes["quadrature"], 1e6),
        "quadrature.self_s": prof.self_s("quadrature"),
        "scenarios.build_s": prof.cum_s("scenarios", "build_scenario"),
        "scenarios.self_s": prof.self_s("scenarios"),
        **{f"cli.{check}.s": hooks.check_s[check] for check in CLI_CHECKS},
        "cli.self_s": prof.self_s("cli"),
    }


def traced_repetition(modules, invocations, seed, ledger, degenerate_flags):
    profiler = cProfile.Profile()
    with Hooks(modules) as hooks:
        profiler.enable()
        try:
            seconds = run_repetition(
                modules["cli"], invocations, seed, ledger, degenerate_flags
            )
        finally:
            profiler.disable()
    return seconds, layer_metrics(Profile(pstats.Stats(profiler).stats), hooks)


# -- main --------------------------------------------------------------------------


def import_package():
    """The ``distpair`` modules from this checkout's ``src/``, or None."""
    if not (PKG / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"distpair.{m}") for m in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != PKG.resolve():
        return None
    return modules


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    modules = import_package()
    if modules is None:
        print(f"cannot import distpair from {SRC}", file=sys.stderr)
        return 2
    cli, scenarios = modules["cli"], modules["scenarios"]
    invocations = WORKLOADS[args.workload]
    names = workload_scenarios(invocations)
    ledger = Ledger()

    degenerate_flags = {n: scenarios.build_scenario(n).integrand_degenerate for n in names}
    negative = negative_control(cli, scenarios, args.seed, ledger)

    # One untimed repetition first: lazy imports and first-call costs inside
    # numpy are paid once per process, not per verdict.
    run_repetition(cli, invocations, args.seed, ledger, degenerate_flags)
    # Each round takes one calibration, one set-up child and one timed
    # repetition, so all three medians are drawn from the whole window.
    calibrations, setup_samples, verdicts = [], [], []
    start = time.perf_counter()
    while len(verdicts) < MIN_REPS or time.perf_counter() - start < args.seconds:
        calibrations.append(calibration_s())
        setup_samples.append(measure_setup(names))
        verdicts.append(
            run_repetition(cli, invocations, args.seed, ledger, degenerate_flags)
        )
    verdict_s = statistics.median(verdicts)
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibrations)

    correct = True
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(verdicts),
        "verdict_samples_s": verdicts,
        "setup_samples_s": setup_samples,
        "calibration_samples_s": calibrations,
        "speed": speed,
        "negative_control_max_normalized": negative,
    }
    if args.trace:
        traced = [
            traced_repetition(modules, invocations, args.seed, ledger, degenerate_flags)
            for _ in range(2)
        ]
        counts = [
            {k: v for k, v in layers.items() if PER_LAYER_UNITS[k] == "count"}
            for _, layers in traced
        ]
        if counts[0] != counts[1]:
            correct = False
            details["count_mismatch"] = counts
        values = {
            k: statistics.fmean(layers[k] for _, layers in traced)
            for k in traced[0][1]
        }
        values.update(counts[0])
        values["trace.overhead"] = statistics.fmean(s for s, _ in traced) / verdict_s
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_samples) * speed,
            "verdict_s": verdict_s * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    details["failures"] = ledger.failures[:20]
    for reason in ledger.failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = correct and not ledger.failures
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
