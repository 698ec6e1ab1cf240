"""Deterministic product-rule quadrature over chart domains.

Grids are products of per-axis rules: offset-uniform on periodic axes
(spectrally accurate for smooth periodic integrands, and the half-step offset
keeps nodes away from coordinate-special points) and Gauss-Legendre on
bounded open axes.  A grid may carry a ``substitution`` when the integration
parameters are not the chart coordinates themselves, e.g. the angular
parametrization of the stereographic chart: one callable that maps the
parameter arrays to ``(chart columns, jacobian)``, the jacobian multiplying
the product-rule weights.

Node enumeration is chunked through ``np.unravel_index`` in a fixed order and
partial sums are combined pairwise, so results are bit-reproducible.  Chunk
sizes depend on the chart dimension only: :func:`formula_chunk` keeps each
invariants-engine call at about 10 MB of arrays, and :func:`_default_chunk`
sizes the cheaper density and ``div_p`` chunks.

``stokes_check`` and ``integral_formula_check`` take ``*grids`` (the CLI
passes the requested grid and its coarse companion) and return one report
per grid.  The chunks of all the grids are one task set, split over W
processes: W is the number of CPUs this process may run on
(``os.sched_getaffinity``), at most the chunk count of the largest grid.
Tasks are dealt largest first by node count, each to the least-loaded
worker (:func:`_deal`); worker 0 is the calling process and the others are
forked once per call and reaped before it returns (:func:`_chunk_results`).
Each process builds only the chunks it evaluates.  Each chunk's partials are
floats computed as in one process, and each grid's are reduced in chunk
order, so no result depends on the split.  Where forking is unavailable or
unsafe (a process with threads) every chunk runs in-process.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg as la
from .dist_tensors import div_p, formula_record
from .dual import Point
from .identity import RHS, reduce_record, side_sum


@dataclass(frozen=True)
class Axis:
    kind: str  # "periodic" | "legendre"
    lo: float
    hi: float


@dataclass
class QuadratureGrid:
    axes: tuple
    counts: tuple
    substitution: Optional[Callable] = None

    def __post_init__(self):
        if len(self.axes) != len(self.counts):
            raise ValueError("axis/count mismatch")
        self.counts = tuple(int(c) for c in self.counts)
        if any(c < 1 for c in self.counts):
            raise ValueError("grid counts must be positive")

    @property
    def total_nodes(self):
        return int(np.prod(self.counts))


def axis_rule(axis: Axis, n: int):
    if axis.kind == "periodic":
        h = (axis.hi - axis.lo) / n
        nodes = axis.lo + h * (np.arange(n) + 0.5)
        weights = np.full(n, h)
        return nodes, weights
    if axis.kind == "legendre":
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (axis.hi - axis.lo)
        return axis.lo + half * (x + 1.0), half * w
    raise ValueError(f"unknown axis kind {axis.kind!r}")


def _chunk_nodes(grid: QuadratureGrid, chunk: int, owned=None):
    """Yield (chart_columns, weights) of each chunk numbered in ``owned``
    (every chunk by default), in the order given, weights including any
    substitution jacobian but not the metric volume density.  Chunk ``i`` is
    nodes ``i * chunk`` up to the next multiple; no other chunk is built."""
    rules = [axis_rule(a, c) for a, c in zip(grid.axes, grid.counts)]
    total = grid.total_nodes
    if owned is None:
        owned = range(-(-total // chunk))
    for i in owned:
        idx = np.arange(i * chunk, min((i + 1) * chunk, total))
        multi = np.unravel_index(idx, grid.counts)
        params = [rules[a][0][multi[a]] for a in range(len(grid.counts))]
        wts = rules[0][1][multi[0]].copy()
        for a in range(1, len(grid.counts)):
            wts *= rules[a][1][multi[a]]
        cols = params
        if grid.substitution is not None:
            cols, jac = grid.substitution(params)
            wts = wts * jac
        yield Point(np.asarray(c, dtype=float) for c in cols), wts


def _default_chunk(dim):
    return 65536 if dim <= 3 else 4096


def formula_chunk(dim):
    """Nodes per chunk of :func:`integral_formula_check`: 2,048 at dim <= 3
    and 512 above.

    The invariants engine holds many more arrays per node than a density or
    ``div_p``, so its chunks are far smaller than :func:`_default_chunk`'s.
    At these sizes one engine call peaks at about 10 MB of arrays (2.9-9.4 MB
    on the built-in scenarios), so the chunk, not the grid, bounds the
    formula's working set.  Whether one chunk's freed arrays are reused by
    the next or faulted in again is the allocator's choice: in a process
    that also runs the larger stokes chunks they are reused, and far fewer
    pages are faulted in per call than with larger formula chunks.  The
    size depends on ``dim`` only, so the chunk sums, and their order, are
    the same on every machine."""
    return 2048 if dim <= 3 else 512


def _workers(n_chunks):
    """Processes to split a chunk set over: one per CPU this process may run
    on, at most ``n_chunks``, the chunk count of the set's largest grid.  1
    where ``os.fork`` or ``os.sched_getaffinity`` is missing, or where the
    process runs other threads, since a forked child gets no copy of them,
    and a lock one of them held stays held in the child."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), n_chunks)


def _deal(sizes, workers):
    """Worker of each task, given the tasks' node counts: largest first, each
    to the least-loaded worker in nodes, ties to the lowest worker index and
    then to the earliest task.  A fixed deal, not a work queue, so every
    process evaluates the same chunks on every run."""
    loads = [0] * workers
    owner = [0] * len(sizes)
    for task in sorted(range(len(sizes)), key=lambda t: -sizes[t]):
        worker = loads.index(min(loads))
        owner[task] = worker
        loads[worker] += sizes[task]
    return owner


def _evaluate(grids, chunk, part, tasks):
    """Yield ``((g, i), (part(cols, wts), seconds))`` for each task ``(g, i)``,
    chunk ``i`` of ``grids[g]``, in the order of ``tasks``, which is grid
    order.  Only these chunks are built, one at a time; ``seconds`` times
    the building and the evaluation of the chunk."""
    for g, grid in enumerate(grids):
        owned = [i for h, i in tasks if h == g]
        nodes = _chunk_nodes(grid, chunk, owned)
        for i in owned:
            t0 = time.perf_counter()
            cols, wts = next(nodes)
            res = part(cols, wts)
            yield (g, i), (res, time.perf_counter() - t0)


def _child(write, grids, chunk, part, tasks):
    """Body of a forked worker: send ``{task: (partials, seconds)}`` of its
    tasks to the parent, pickled, and exit 0; exit 1 on any exception.  It
    leaves through ``os._exit``, so it never returns into the caller's stack
    or runs the parent's exit handlers and buffered writes."""
    code = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(dict(_evaluate(grids, chunk, part, tasks)), pipe)
        code = 0
    finally:
        os._exit(code)


def _chunk_results(grids, chunk, part):
    """For each grid, ``([part(cols, wts) for each chunk], seconds)``, with
    the partials in chunk order and ``seconds`` the time its chunks took,
    summed over the processes that evaluated them.

    ``part`` returns a dict of floats.  The chunks of every grid are one
    task set, dealt by :func:`_deal` over the W workers of :func:`_workers`:
    worker 0 is this process, the others are children forked here once for
    the whole set, which send their results back over a pipe and are reaped
    before this returns.  A task a child did not return (the child exited
    non-zero) is evaluated here, in (grid, chunk) order, after the tasks
    before it, so an exception is the one the loop over grids and chunks in
    one process raises.  If anything else raises here (an interrupt, say),
    the children are killed and reaped before it propagates.
    """
    counts = [-(-grid.total_nodes // chunk) for grid in grids]
    tasks = [(g, i) for g, n in enumerate(counts) for i in range(n)]
    sizes = [min(chunk, grids[g].total_nodes - i * chunk) for g, i in tasks]
    workers = _workers(max(counts, default=1))
    owner = _deal(sizes, workers)
    owned = [[t for t, w in zip(tasks, owner) if w == k] for k in range(workers)]
    results, children = {}, {}
    failed = None  # (task, exception) of this process's first failing task
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(write, grids, chunk, part, owned[worker])
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        try:
            results.update(_evaluate(grids, chunk, part, owned[0]))
        except Exception as exc:  # raised below, once every earlier task is in
            failed = (next(t for t in owned[0] if t not in results), exc)
        for pid, pipe in list(children.items()):
            data = pipe.read()
            pipe.close()
            del children[pid]
            if os.waitpid(pid, 0)[1] == 0:
                results.update(pickle.loads(data))
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    missing = [t for t in tasks if t not in results]
    if failed is not None:
        missing = missing[: missing.index(failed[0])]
    results.update(_evaluate(grids, chunk, part, missing))
    if failed is not None:
        raise failed[1]
    return [
        (
            [results[g, i][0] for i in range(n)],
            sum(results[g, i][1] for i in range(n)),
        )
        for g, n in enumerate(counts)
    ]


def _per_grid(grids, chunk, part, derive):
    """One report per grid, in order, from one chunk set: each chunk's
    ``part(cols, wts)`` dict of floats reduced key by key in chunk order,
    ``max_*`` keys by :func:`la.max_entry` and the rest by
    :func:`la.pairwise_sum`, then the keys ``derive(report)`` reads off
    those, and ``runtime_s``: the time the grid's chunks took, summed over
    the processes that evaluated them, plus its reduction."""
    reports = []
    for partials, seconds in _chunk_results(grids, chunk, part):
        t0 = time.perf_counter()
        report = {}
        for key in partials[0]:
            vals = [p[key] for p in partials]
            total = la.max_entry(*vals) if key.startswith("max_") else la.pairwise_sum(vals)
            report[key] = float(total)
        report.update(derive(report))
        report["runtime_s"] = seconds + time.perf_counter() - t0
        reports.append(report)
    return reports


def integrate(chart, f, grid: QuadratureGrid):
    """Integral of a scalar field over the chart with the metric volume form.

    ``f`` receives a list of coordinate arrays and must return an array of
    values (or a scalar, which is broadcast).
    """

    def part(cols, wts):
        dens = chart.jet1(cols).sqrt_det
        vals = np.broadcast_to(np.asarray(f(cols), dtype=float), wts.shape)
        return {"integral": float(np.sum(wts * dens * vals))}

    (report,) = _per_grid((grid,), _default_chunk(chart.dim), part, lambda _: {})
    return report["integral"]


def volume(chart, grid: QuadratureGrid):
    return integrate(chart, lambda cols: 1.0, grid)


def stokes_check(p_endo, chart, vec_field, *grids: QuadratureGrid):
    """Integral of div_P X over a closed chart domain (should vanish) on
    each of ``grids`` (:func:`_per_grid`), with the volume and
    ``normalized`` = |integral| / volume."""

    def part(cols, wts):
        dens = chart.jet1(cols).sqrt_det
        vals = div_p(p_endo, chart, vec_field, cols)
        return {"integral": float(np.sum(wts * dens * vals)), "volume": float(np.sum(wts * dens))}

    def derive(r):
        return {"normalized": abs(r["integral"]) / r["volume"]}

    return _per_grid(grids, _default_chunk(chart.dim), part, derive)


def integral_formula_check(pair, chart, *grids: QuadratureGrid):
    """Integral of :func:`formula_record`'s right side over a closed domain,
    on each of ``grids`` (:func:`_per_grid`).

    Each report has the signed integral I, the mass N = integral of
    |integrand|, the volume, I/N and the record's pointwise reduction.  An
    integrand that vanishes identically gives a pass that must be reported
    as ``degenerate``; ``normalized``, the figure a grid is judged by, is
    then the pointwise maximum, and I/N otherwise.
    """

    def part(cols, wts):
        dens = chart.jet1(cols).sqrt_det
        record = formula_record(chart, pair, cols)
        vals = side_sum(record["formula"], RHS)
        max_pt, max_pt_norm = reduce_record(record)
        return {
            "integral": float(np.sum(wts * dens * vals)),
            "mass": float(np.sum(wts * dens * np.abs(vals))),
            "volume": float(np.sum(wts * dens)),
            "max_pointwise": float(max_pt),
            "max_pointwise_normalized": float(max_pt_norm),
        }

    def derive(r):
        ratio = abs(r["integral"]) / r["mass"] if not r["mass"] <= 0.0 else 0.0
        degenerate = r["max_pointwise_normalized"] <= 1e-9
        normalized = r["max_pointwise_normalized"] if degenerate else ratio
        return {"ratio": ratio, "degenerate": degenerate, "normalized": normalized}

    return _per_grid(grids, formula_chunk(chart.dim), part, derive)


def refine_counts(counts):
    """Companion (coarser) grid counts: ceil(n / 2), at least 2 but not above n."""
    return tuple(min(c, max(2, math.ceil(0.5 * c))) for c in counts)
