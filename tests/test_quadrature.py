"""Grids, volumes, boundary-free divergence integrals, the integral identity."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time

import numpy as np
import pytest

import distpair.dual as ops
import distpair.quadrature as quad
from distpair import cli
from distpair.chart_geometry import Chart, MetricError
from distpair.dist_tensors import formula_record
from distpair.dual import Dual
from distpair.identity import RHS, Identity, engine_scale, side_sum
from distpair.quadrature import (
    Axis,
    QuadratureGrid,
    _chunk_nodes,
    axis_rule,
    formula_chunk,
    integral_formula_check,
    integrate,
    refine_counts,
    stokes_check,
    volume,
)
from distpair.scenarios import (
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    random_vector_field,
    warped_torus,
)

TWO_PI = 2.0 * math.pi

# modified Bessel I0(1), for the exact warped-torus volume (2 pi)^2 I0(1)
BESSEL_I0_1 = 1.2660658777520084
# modified Bessel I1(1) = sum_k (1/2)^(2k+1) / (k! (k+1)!)
BESSEL_I1_1 = math.fsum(
    0.5 ** (2 * k + 1) / math.factorial(k) / math.factorial(k + 1) for k in range(20)
)


def test_periodic_rule_integrates_trig_exactly():
    nodes, weights = axis_rule(Axis("periodic", 0.0, TWO_PI), 8)
    val = sum(w * math.sin(x) ** 2 for x, w in zip(nodes, weights))
    assert abs(val - math.pi) < 1e-13
    assert abs(sum(weights) - TWO_PI) < 1e-13
    # offset rule: no node sits on the interval endpoints
    assert min(nodes) > 0.0 and max(nodes) < TWO_PI


def test_legendre_rule_is_spectrally_accurate():
    nodes, weights = axis_rule(Axis("legendre", 0.0, math.pi), 12)
    val = sum(w * math.sin(x) ** 3 for x, w in zip(nodes, weights))
    assert abs(val - 4.0 / 3.0) < 1e-12


def test_volumes_match_closed_forms():
    ft = flat_torus_projectors()
    assert abs(volume(ft.chart, ft.grid(16)) - TWO_PI**2) < 1e-12

    wt = warped_torus()
    want = TWO_PI**2 * BESSEL_I0_1
    assert abs(volume(wt.chart, wt.grid(48)) - want) < 1e-10 * want

    h = hopf_contact_s3()
    assert abs(volume(h.chart, h.grid((20, 20, 20))) - 2.0 * math.pi**2) < 1e-10

    e = einstein_s3xt2()
    want = 12.0 * math.pi**4
    got = volume(e.chart, e.grid((12, 12, 12, 8, 8)))
    assert abs(got - want) < 1e-9 * want


def test_volume_runs_no_derivative_pass_and_validates_the_metric(monkeypatch):
    """A plain integrand needs only sqrt(det g): volume takes it with no
    dual pass, and a metric that is not positive definite still fails."""
    e = einstein_s3xt2()
    passes = []
    fresh_tag = ops.fresh_tag

    def counting():
        passes.append(None)
        return fresh_tag()

    monkeypatch.setattr(ops, "fresh_tag", counting)
    assert volume(e.chart, e.grid((4, 4, 4, 3, 3))) > 0.0
    assert passes == []

    def metric(z):
        return [[1.0, 2.0 * z[0]], [2.0 * z[0], 1.0]]

    bad = Chart("bad", 2, metric)
    grid = QuadratureGrid((Axis("legendre", 0.0, 1.0),) * 2, (4, 4))
    with pytest.raises(MetricError, match="not positive definite"):
        volume(bad, grid)


def test_volume_converges_under_refinement():
    h = hopf_contact_s3()
    want = 2.0 * math.pi**2
    coarse = abs(volume(h.chart, h.grid((8, 8, 8))) - want)
    fine = abs(volume(h.chart, h.grid((16, 16, 16))) - want)
    assert fine <= max(coarse, 1e-12)


def test_integrate_handles_chart_substitution():
    # integral of a smooth global function over the round sphere factor
    h = hopf_contact_s3()

    def f(z):
        r2 = z[0] ** 2 + z[1] ** 2 + z[2] ** 2
        q0 = (r2 - 1.0) / (r2 + 1.0)
        return q0 * q0

    got = integrate(h.chart, f, h.grid((24, 24, 24)))
    # mean of q0^2 over the unit sphere in R^4 is 1/4
    assert abs(got - 0.25 * 2.0 * math.pi**2) < 1e-10


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(axes=(Axis("periodic", 0.0, 1.0),), counts=(4, 4))
    ft = flat_torus_projectors()
    with pytest.raises(ValueError):
        ft.grid((4, 4, 4))
    with pytest.raises(ValueError):
        Axis("chebyshev", 0.0, 1.0) and axis_rule(Axis("chebyshev", 0.0, 1.0), 4)


def test_refine_counts_halves_and_floors():
    assert refine_counts((16, 16)) == (8, 8)
    assert refine_counts((9,)) == (5,)
    assert refine_counts((3, 2)) == (2, 2)
    assert refine_counts((1, 16)) == (1, 8)  # never finer than requested


@pytest.mark.parametrize(
    "builder,counts,tol",
    [
        (lambda: flat_torus_projectors(), (16, 16), 1e-12),
        (warped_torus, (48, 48), 1e-6),
        (hopf_contact_s3, (20, 20, 20), 1e-6),
    ],
)
def test_stokes_for_modified_divergence(builder, counts, tol):
    sc = builder()
    rng = np.random.default_rng(101)
    X = random_vector_field(sc, rng)
    (res,) = stokes_check(sc.pair.total(), sc.chart, X, sc.grid(counts))
    assert res["normalized"] < tol


def test_stokes_improves_under_refinement():
    sc = warped_torus()
    rng = np.random.default_rng(102)
    X = random_vector_field(sc, rng)
    coarse, fine = stokes_check(sc.pair.total(), sc.chart, X, sc.grid(12), sc.grid(24))
    assert fine["normalized"] <= max(coarse["normalized"], 1e-12)


def test_integral_formula_warped_torus():
    sc = warped_torus()
    (res,) = integral_formula_check(sc.pair, sc.chart, sc.grid(128))
    assert not res["degenerate"]
    assert res["mass"] > 1.0  # the individual terms are genuinely nonzero
    assert res["ratio"] < 1e-6
    assert res["normalized"] == res["ratio"]  # judged by I/N


FORMULA_TERMS = ("smix", "norm_h1", "norm_h2", "-norm_t1", "-norm_t2", "-norm_H1", "-norm_H2")


@pytest.mark.parametrize(
    "builder,counts,nonzero",
    [
        (hopf_contact_s3, (12, 12, 12), {"smix": 4.0, "-norm_t1": -4.0}),
        (warped_torus, (64, 64), {"norm_h2": 4.0 * BESSEL_I1_1, "-norm_H2": -4.0 * BESSEL_I1_1}),
    ],
    ids=["hopf-s3", "warped-torus"],
)
def test_formula_terms_integrate_to_their_closed_forms(builder, counts, nonzero):
    """Each signed term of the formula record, integrated on its own, in
    units of pi^2: on hopf-s3 the mixed scalar curvature 2 and |T1|^2 = 2
    over the volume 2 pi^2 of S^3, on warped-torus |h2|^2 = w'^2 and
    |H2|^2 = w'^2, w = sin u, over the density e^w; every other term is 0."""
    sc = builder()
    grid = sc.grid(counts)
    cols = sc.sample_columns(np.random.default_rng(5), 2)
    (ident,) = formula_record(sc.chart, sc.pair, cols).values()
    assert tuple(name for name, _, _ in ident.terms) == FORMULA_TERMS
    for k, name in enumerate(FORMULA_TERMS):

        def term(cols):
            return formula_record(sc.chart, sc.pair, cols)["formula"].terms[k][2]

        got = integrate(sc.chart, term, grid)
        assert abs(got - nonzero.get(name, 0.0) * math.pi**2) < 1e-12, name


def test_integral_formula_degenerate_scenarios():
    ft = flat_torus_projectors()
    (res,) = integral_formula_check(ft.pair, ft.chart, ft.grid(8))
    assert res["degenerate"] and res["max_pointwise_normalized"] < 1e-9

    h = hopf_contact_s3()
    (res,) = integral_formula_check(h.pair, h.chart, h.grid((10, 10, 10)))
    assert res["degenerate"] and res["max_pointwise_normalized"] < 1e-9
    assert res["normalized"] == res["max_pointwise_normalized"]  # judged pointwise


def test_formula_check_reports_nan_integrand_as_not_degenerate():
    sc = warped_torus()
    nan = float("nan")
    pair = dataclasses.replace(sc.pair, p1=lambda _z: [[nan, nan], [nan, nan]])
    (res,) = integral_formula_check(pair, sc.chart, sc.grid(16))
    assert math.isnan(res["max_pointwise"])
    assert math.isnan(res["max_pointwise_normalized"])
    assert math.isnan(res["ratio"])
    assert res["degenerate"] is False


@pytest.mark.parametrize("builder", [warped_torus, hopf_contact_s3])
def test_one_chunk_evaluates_the_metric_at_its_nodes_once(builder, monkeypatch):
    """The density comes from the chunk's metric jet, and the batch engines
    take field values from their derivative passes, so the metric is
    evaluated at the real nodes of a chunk once: in the jet, which validates
    it.  Calls at the dual points of the passes are not counted."""
    sc = builder()
    vec_field = random_vector_field(sc, np.random.default_rng(103))
    grid = sc.grid(8)  # one chunk
    metric = sc.chart.metric
    real_calls = []

    def counting(z):
        if not any(isinstance(c, Dual) for c in z):
            real_calls.append(z)
        return metric(z)

    monkeypatch.setitem(vars(sc.chart), "metric", counting)  # Chart is frozen
    integral_formula_check(sc.pair, sc.chart, grid)
    assert len(real_calls) == 1
    real_calls.clear()
    stokes_check(sc.pair.total(), sc.chart, vec_field, grid)
    assert len(real_calls) == 1


@pytest.mark.parametrize(
    "builder,counts,chunk",
    [
        (warped_torus, (9, 7), 10),
        (hopf_contact_s3, (5, 6, 7), 16),  # angular substitution
    ],
)
def test_chunks_concatenate_to_the_one_chunk_nodes(builder, counts, chunk):
    """A chunk size that does not divide the node count splits the nodes and
    weights of the one-chunk enumeration and changes none of their bits."""
    grid = builder().grid(counts)
    assert grid.total_nodes % chunk != 0
    (whole_cols, whole_wts), = _chunk_nodes(grid, grid.total_nodes)
    parts = list(_chunk_nodes(grid, chunk))
    assert len(parts) == math.ceil(grid.total_nodes / chunk)
    for a, whole in enumerate(whole_cols):
        joined = np.concatenate([cols[a] for cols, _ in parts])
        assert joined.tobytes() == whole.tobytes(), a
    joined = np.concatenate([wts for _, wts in parts])
    assert joined.tobytes() == whole_wts.tobytes()


def test_formula_check_does_not_depend_on_the_chunking(monkeypatch):
    """Per-node values are the same bits in any chunk, so the pointwise
    maxima are too; only the order of the chunk sums moves the integrals."""
    sc = warped_torus()
    grid = sc.grid((80, 80))
    assert grid.total_nodes > 2 * formula_chunk(sc.chart.dim)  # >= 3 chunks
    (chunked,) = integral_formula_check(sc.pair, sc.chart, grid)
    monkeypatch.setattr(quad, "formula_chunk", lambda _dim: grid.total_nodes)
    (whole,) = integral_formula_check(sc.pair, sc.chart, grid)
    for key in ("max_pointwise", "max_pointwise_normalized", "degenerate"):
        assert chunked[key] == whole[key], key
    # the signed integral cancels to round-off, so it is held to the mass
    assert abs(chunked["integral"] - whole["integral"]) <= 1e-14 * whole["mass"]
    for key in ("mass", "volume"):
        assert abs(chunked[key] - whole[key]) <= 1e-14 * abs(whole[key]), key


# -- chunks split over worker processes ------------------------------------------------


def _use_cpus(monkeypatch, n):
    """Make the chunk driver see ``n`` CPUs, and record each fork it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))
    forks = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return forks


def _bits(reports):
    """Each report's values as exact bits, but for ``runtime_s``, a timing."""
    return [
        {k: v.hex() if isinstance(v, float) else v for k, v in r.items() if k != "runtime_s"}
        for r in reports
    ]


def _check(which, builder, *counts):
    sc = builder()
    grids = [sc.grid(c) for c in counts]
    if which == "formula":
        return integral_formula_check(sc.pair, sc.chart, *grids)
    vec_field = random_vector_field(sc, np.random.default_rng(104))
    return stokes_check(sc.pair.total(), sc.chart, vec_field, *grids)


@pytest.mark.parametrize(
    "which,builder,counts,chunker,chunk",
    [
        ("formula", warped_torus, (80, 80), "formula_chunk", 1000),
        ("formula", hopf_contact_s3, (8, 8, 8), "formula_chunk", 80),
        ("stokes", einstein_s3xt2, (6, 6, 6, 4, 4), "_default_chunk", 500),
    ],
    ids=["formula-warped-torus", "formula-hopf-s3", "stokes-einstein-s3xt2"],
)
def test_results_do_not_depend_on_the_worker_count(
    which, builder, counts, chunker, chunk, monkeypatch
):
    """The grid and its companion in one call: every key is the same bits
    at 1, 2 and 3 workers, each worker evaluating at least 2 of the grid's
    7 chunks, and the same as each grid's own call in one process."""
    monkeypatch.setattr(quad, chunker, lambda _dim: chunk)
    companion = refine_counts(counts)
    _use_cpus(monkeypatch, 1)
    want = _bits(_check(which, builder, counts)) + _bits(_check(which, builder, companion))
    for workers in (1, 2, 3):
        forks = _use_cpus(monkeypatch, workers)
        assert _bits(_check(which, builder, counts, companion)) == want, workers
        assert len(forks) == workers - 1


def test_a_set_of_one_chunk_grids_runs_in_process(monkeypatch):
    """The warped-torus stokes invocation: 128 x 128 and its 64 x 64
    companion are one chunk each, so nothing is forked at any CPU count."""
    want = _bits(_check("stokes", warped_torus, (128, 128))) + _bits(
        _check("stokes", warped_torus, (64, 64))
    )
    _use_cpus(monkeypatch, 2)
    _one_chunk(monkeypatch)
    assert _bits(_check("stokes", warped_torus, (128, 128), (64, 64))) == want


def test_the_deal_balances_nodes_largest_first():
    """The hopf-s3 formula invocation: 24^3 is six chunks of 2,048 nodes and
    one of 1,536, its 12^3 companion one chunk of 1,728.  The calling
    process gets 7,872 nodes, the companion included, and the child 7,680."""
    sizes = [2048] * 6 + [1536, 1728]
    owner = quad._deal(sizes, 2)
    assert owner == [0, 1, 0, 1, 0, 1, 1, 0]
    assert sum(n for n, w in zip(sizes, owner) if w == 0) == 7872
    assert quad._deal([5, 5, 5], 2) == [0, 1, 0]  # ties: lowest worker, earliest task
    assert quad._deal([3], 1) == [0]


def test_each_process_builds_only_the_chunks_it_evaluates(monkeypatch):
    """At 2 workers the calling process runs the angular substitution once
    per chunk it owns: chunks 0, 2, 4 and 6 of hopf-s3 8^3 in 80-node
    chunks, the last one of 32 nodes, and none of the child's."""
    monkeypatch.setattr(quad, "formula_chunk", lambda _dim: 80)
    sc = hopf_contact_s3()
    grid = sc.grid((8, 8, 8))
    substitution = grid.substitution
    sizes = []

    def counting(params):
        sizes.append(params[0].size)
        return substitution(params)

    grid = dataclasses.replace(grid, substitution=counting)
    forks = _use_cpus(monkeypatch, 2)
    integral_formula_check(sc.pair, sc.chart, grid)
    assert len(forks) == 1
    assert sizes == [80, 80, 80, 32]


def _first_nodes(grid, chunk):
    """The first node of each chunk, as a tuple of floats."""
    return [tuple(float(c[0]) for c in cols) for cols, _ in _chunk_nodes(grid, chunk)]


def _record(vals, scale):
    """A formula record of one right-side term ``vals`` with signed scale ``scale``."""
    return {"formula": Identity((("rhs", RHS, vals),), None, engine_scale, scale)}


def _failing_formula(monkeypatch, grids, failing):
    """Make the formula integrand raise in the chunks ``(g, i)`` of
    ``failing``, chunk i of ``grids[g]``, with a message that names the
    chunk (and the companion, for g = 1), and cost nothing elsewhere."""
    chunk = formula_chunk(len(grids[0].counts))
    tasks = {
        first: (g, i)
        for g, grid in enumerate(grids)
        for i, first in enumerate(_first_nodes(grid, chunk))
    }

    def terms(_chart, _pair, cols):
        g, i = tasks[tuple(float(c[0]) for c in cols)]
        if (g, i) in failing:
            raise ValueError(f"{'companion ' * g}chunk {i} failed")
        return _record(np.ones_like(cols[0]), np.zeros_like(cols[0]))

    monkeypatch.setattr(quad, "formula_record", terms)


@pytest.mark.parametrize(
    "failing,message",
    [
        ({1}, "chunk 1 failed"),  # a chunk of the child
        ({2}, "chunk 2 failed"),  # a chunk of the parent
        ({1, 2}, "chunk 1 failed"),  # the child's comes first
        ({2, 3}, "chunk 2 failed"),  # the parent's comes first
    ],
)
def test_a_failing_chunk_raises_the_one_process_exception(failing, message, monkeypatch):
    sc = warped_torus()
    grid = sc.grid((80, 80))  # 4 chunks; 2 workers own chunks 0, 2 and 1, 3
    _failing_formula(monkeypatch, [grid], {(0, i) for i in failing})
    for workers in (1, 2):
        forks = _use_cpus(monkeypatch, workers)
        with pytest.raises(ValueError) as raised:
            integral_formula_check(sc.pair, sc.chart, grid)
        assert str(raised.value) == message
        assert len(forks) == workers - 1


@pytest.mark.parametrize(
    "failing,message",
    [
        ({(0, 3), (1, 0)}, "chunk 3 failed"),  # both in the child at 2 workers
        ({(0, 2), (1, 0)}, "chunk 2 failed"),  # the parent's before the child's
        ({(1, 0)}, "companion chunk 0 failed"),
    ],
    ids=["both-in-one-child", "requested-in-parent", "companion-only"],
)
def test_a_failing_chunk_in_a_set_raises_the_one_process_exception(
    failing, message, monkeypatch
):
    """Over the requested 80 x 80 grid (4 chunks) and its 40 x 40 companion
    (1 chunk), the exception is the one a loop over the grids in order
    raises: the requested grid's if both fail.  At 2 workers the parent
    owns chunks 0, 2 and the child chunks 1, 3 and the companion; at 3
    the parent owns chunk 0 and the companion."""
    sc = warped_torus()
    grids = [sc.grid((80, 80)), sc.grid((40, 40))]
    _failing_formula(monkeypatch, grids, failing)
    for workers in (1, 2, 3):
        forks = _use_cpus(monkeypatch, workers)
        with pytest.raises(ValueError) as raised:
            integral_formula_check(sc.pair, sc.chart, *grids)
        assert str(raised.value) == message, workers
        assert len(forks) == workers - 1


def test_runtime_sums_each_grids_chunks_over_the_processes(monkeypatch):
    """Each report's ``runtime_s`` counts every chunk of its grid, in
    whichever process evaluated it: at 2 workers the child owns chunks 1
    and 3 of the 80 x 80 grid and the companion's one chunk, and every
    chunk takes at least 50 ms."""
    sc = warped_torus()

    def terms(_chart, _pair, cols):
        time.sleep(0.05)
        return _record(np.ones_like(cols[0]), np.zeros_like(cols[0]))

    monkeypatch.setattr(quad, "formula_record", terms)
    forks = _use_cpus(monkeypatch, 2)
    fine, coarse = integral_formula_check(sc.pair, sc.chart, sc.grid((80, 80)), sc.grid((40, 40)))
    assert len(forks) == 1
    assert fine["runtime_s"] >= 4 * 0.05
    assert coarse["runtime_s"] >= 0.05


class _Interrupt(BaseException):
    pass


def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    """A BaseException in the parent's chunk is not held back until the
    children finish: they are killed, reaped, and the exception propagates."""
    sc = warped_torus()
    grid = sc.grid((80, 80))
    parent = os.getpid()

    def terms(_chart, _pair, cols):
        if os.getpid() == parent:
            raise _Interrupt
        time.sleep(60.0)

    monkeypatch.setattr(quad, "formula_record", terms)
    forks = _use_cpus(monkeypatch, 2)
    t0 = time.monotonic()
    with pytest.raises(_Interrupt):
        integral_formula_check(sc.pair, sc.chart, grid)
    assert time.monotonic() - t0 < 30.0
    assert len(forks) == 1


def test_nan_in_a_child_chunk_fails_the_formula_closed(monkeypatch, capsys):
    sc = warped_torus()
    grid = sc.grid((80, 80))
    first = _first_nodes(grid, formula_chunk(2))[1]  # chunk 1: the child's at 2 workers
    real = quad.formula_record
    parent = os.getpid()

    def terms(chart, pair, cols):
        (ident,) = real(chart, pair, cols).values()
        vals = side_sum(ident, RHS)
        if tuple(float(c[0]) for c in cols) == first:
            assert os.getpid() != parent
            vals[7] = math.nan
        return _record(vals, ident.scale)

    monkeypatch.setattr(quad, "formula_record", terms)
    forks = _use_cpus(monkeypatch, 2)
    (res,) = integral_formula_check(sc.pair, sc.chart, grid)
    assert math.isnan(res["max_pointwise"]) and math.isnan(res["integral"])
    assert len(forks) == 1

    forks.clear()
    argv = ["--scenario", "warped-torus", "--which", "formula", "--grid", "80,80"]
    assert cli.main(argv) == 1
    fine = json.loads(capsys.readouterr().out.splitlines()[0])
    assert fine["grid"] == "80,80" and fine["pass"] is False
    assert len(forks) == 1  # one fork set for the grid and its 40 x 40 companion


def _without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")


def _with_a_thread(monkeypatch):
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60.0,))
    thread.start()

    def stop():
        done.set()
        thread.join(10.0)
        assert not thread.is_alive()

    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a thread running"))
    return stop


def _one_chunk(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one chunk"))


@pytest.mark.parametrize(
    "setup,counts",
    [
        (_without_fork, (80, 80)),
        (_without_affinity, (80, 80)),
        (_with_a_thread, (80, 80)),
        (_one_chunk, (40, 40)),
    ],
)
def test_runs_in_process_where_forking_is_unavailable_or_unsafe(setup, counts, monkeypatch):
    """Every chunk is evaluated in this process, with the same results."""
    sc = warped_torus()
    grid = sc.grid(counts)
    want = _bits(integral_formula_check(sc.pair, sc.chart, grid))
    real = quad.formula_record
    seen = []

    def terms(chart, pair, cols):
        seen.append(cols[0].size)
        return real(chart, pair, cols)

    monkeypatch.setattr(quad, "formula_record", terms)
    _use_cpus(monkeypatch, 2)
    stop = setup(monkeypatch)
    try:
        got = _bits(integral_formula_check(sc.pair, sc.chart, grid))
    finally:
        if stop is not None:
            stop()
    assert sum(seen) == grid.total_nodes
    assert got == want
