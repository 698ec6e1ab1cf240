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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg as la
from .dist_tensors import div_p, formula_terms_batch
from .dual import Point


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


def _chunk_nodes(grid: QuadratureGrid, chunk: int):
    """Yield (chart_columns, weights) per chunk, weights including any
    substitution jacobian but not the metric volume density."""
    rules = [axis_rule(a, c) for a, c in zip(grid.axes, grid.counts)]
    total = grid.total_nodes
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
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


def integrate(chart, f, grid: QuadratureGrid):
    """Integral of a scalar field over the chart with the metric volume form.

    ``f`` receives a list of coordinate arrays and must return an array of
    values (or a scalar, which is broadcast).
    """
    partials = []
    for cols, wts in _chunk_nodes(grid, _default_chunk(chart.dim)):
        dens = chart.jet1(cols).sqrt_det
        vals = np.broadcast_to(np.asarray(f(cols), dtype=float), wts.shape)
        partials.append(float(np.sum(wts * dens * vals)))
    return float(la.pairwise_sum(partials))


def volume(chart, grid: QuadratureGrid):
    return integrate(chart, lambda cols: 1.0, grid)


def stokes_check(p_endo, chart, vec_field, grid: QuadratureGrid):
    """Integral of div_P X over a closed chart domain (should vanish)."""
    int_parts = []
    vol_parts = []
    for cols, wts in _chunk_nodes(grid, _default_chunk(chart.dim)):
        dens = chart.jet1(cols).sqrt_det
        vals = div_p(p_endo, chart, vec_field, cols)
        int_parts.append(float(np.sum(wts * dens * vals)))
        vol_parts.append(float(np.sum(wts * dens)))
    total = float(la.pairwise_sum(int_parts))
    vol = float(la.pairwise_sum(vol_parts))
    return {
        "integral": total,
        "volume": vol,
        "normalized": abs(total) / vol,
    }


def integral_formula_check(pair, chart, grid: QuadratureGrid):
    """Integral of the frame-summed formula terms over a closed domain.

    Returns the signed integral I, the mass N = integral of |integrand|, the
    volume, I/N, and pointwise degeneracy data (an integrand that vanishes
    identically gives a pass that must be reported as degenerate).
    """
    i_parts, m_parts, v_parts = [], [], []
    max_pt = 0.0
    max_pt_norm = 0.0
    for cols, wts in _chunk_nodes(grid, formula_chunk(chart.dim)):
        dens = chart.jet1(cols).sqrt_det
        vals, scale = formula_terms_batch(chart, pair, cols)
        i_parts.append(float(np.sum(wts * dens * vals)))
        m_parts.append(float(np.sum(wts * dens * np.abs(vals))))
        v_parts.append(float(np.sum(wts * dens)))
        max_pt = float(la.max_entry(max_pt, np.abs(vals)))
        max_pt_norm = float(la.max_entry(max_pt_norm, np.abs(vals) / (1.0 + scale)))
    total = float(la.pairwise_sum(i_parts))
    mass = float(la.pairwise_sum(m_parts))
    vol = float(la.pairwise_sum(v_parts))
    degenerate = max_pt_norm <= 1e-9
    return {
        "integral": total,
        "mass": mass,
        "volume": vol,
        "ratio": abs(total) / mass if not mass <= 0.0 else 0.0,
        "max_pointwise": max_pt,
        "max_pointwise_normalized": max_pt_norm,
        "degenerate": degenerate,
    }


def refine_counts(counts):
    """Companion (coarser) grid counts: ceil(n / 2), at least 2."""
    return tuple(max(2, math.ceil(0.5 * c)) for c in counts)
