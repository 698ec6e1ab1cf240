"""Coordinate-chart Riemannian geometry through automatic differentiation.

A chart supplies the metric as a callable on coordinate lists; every derived
object (Christoffel symbols, divergences, covariant derivatives) is produced
by differentiating that callable with the derivative engine of :mod:`dual` —
there are no hand-differentiated metric formulas anywhere downstream.  Each
quantity is computed one way; the independent second routes (density forms
of the divergences, the coordinate curvature tensors) live in the tests as
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import dual as ops
from . import linalg as la
from .dual import Dual, Point, directional, partials


class MetricError(ValueError):
    """Raised when a chart's metric is not symmetric positive definite."""


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart with a metric in coordinates.

    ``metric(x)`` must return a nested list g[i][j] and be evaluable on
    floats, numpy arrays and dual numbers (use the ops module for sin etc.).
    """

    name: str
    dim: int
    metric: Callable[[Sequence], list]

    def jet1(self, x) -> MetricJet:
        """The metric jet at x.  A :class:`~distpair.dual.Point` keeps the
        jet of its first lookup and gives it back to every later lookup under
        this chart; any other sequence, or a point looked up under another
        chart, gets a fresh jet."""
        if isinstance(x, Point):
            if x.jet is None:
                x.jet = _metric_jet(self, x)
            if x.jet.chart is self:
                return x.jet
        return _metric_jet(self, x)


class MetricJet:
    """The metric of ``chart`` at a point x and what the checks derive from it.

    ``g`` is evaluated when the jet is built.  ``g_inv`` and ``sqrt_det``
    (one LU of g, whose factors are not kept), ``dg[k][i][j] = d_k g_ij``
    (one derivative pass of the metric) and ``gamma[k][i][j] = Gamma^k_{ij}``
    are each computed on first read and then kept, so a caller that reads
    only g at a dual point runs no LU and no pass.  At a real point or batch
    the LU runs when the jet is built: it validates the metric (see
    :func:`_validate_metric`) before any pass runs, since a bad metric may not
    be evaluable on duals at all.

    The jet keeps a plain tuple of x's coordinates, never x itself: a
    :class:`~distpair.dual.Point` holds its jet, so the jet goes with the
    point, with no reference cycle to wait for.
    """

    def __init__(self, chart: Chart, x):
        self.chart = chart
        self._x = tuple(x)
        self.g = chart.metric(x)
        if not any(isinstance(c, Dual) for c in x):
            self._inverse = _inverse_and_density(self.g, _validate_metric(self.g, x))

    @cached_property
    def _inverse(self):
        return _inverse_and_density(self.g)

    @property
    def g_inv(self):
        return self._inverse[0]

    @property
    def sqrt_det(self):
        return self._inverse[1]

    @cached_property
    def dg(self):
        return partials(self.chart.metric, self._x)[1]

    @cached_property
    def gamma(self):
        return christoffel(self)


def point_columns(points):
    """A list of sample points as one column batch: a Point of (N,) arrays."""
    return Point(np.array([p[i] for p in points]) for i in range(len(points[0])))


def _metric_jet(chart: Chart, x) -> MetricJet:
    return MetricJet(chart, x)


def _inverse_and_density(g, check_pivot=None):
    """(g^{-1}, sqrt(det g)) from one LU of g."""
    g_inv, det = la.inverse_and_det(g, check_pivot)
    return g_inv, ops.sqrt(det)


def _validate_metric(g, x):
    """Check that g is symmetric at every node of the real point or batch x
    (the tolerances of ``np.allclose(g, g.T, atol=1e-12)``), and return the
    pivot check that makes the LU of g a positive-definiteness test
    (Sylvester: a symmetric matrix is positive definite iff every leading
    pivot is positive).  Errors name the first bad node."""

    def fail(what, ok):
        shape = np.broadcast_shapes(*(np.shape(c) for c in x))
        node = int(np.flatnonzero(~np.broadcast_to(ok, shape))[0])
        coords = [float(np.ravel(np.broadcast_to(c, shape))[node]) for c in x]
        raise MetricError(f"metric matrix is not {what} at node {node}, x = {coords}")

    n = len(g)
    symmetric = True
    for i in range(n):
        for j in range(i + 1, n):
            a, b = g[i][j], g[j][i]
            diff = abs(a - b)
            symmetric = symmetric & (diff <= 1e-12 + 1e-5 * abs(b))
            symmetric = symmetric & (diff <= 1e-12 + 1e-5 * abs(a))
    if not np.all(symmetric):
        fail("symmetric", symmetric)

    def check_pivot(_k, pivot):
        ok = pivot > 0.0
        if not np.all(ok):
            fail("positive definite", ok)

    return check_pivot


def christoffel(jet: MetricJet) -> list:
    """Christoffel symbols of the jet, gamma[k][i][j] = Gamma^k_{ij}."""
    n = len(jet.g)
    g_inv, dg = jet.g_inv, jet.dg
    # first[i][j][l] = d_i g_jl + d_j g_il - d_l g_ij, shared by every k
    first = [
        [[dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for l in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return [
        [[0.5 * la.dot(zip(g_inv[k], first[i][j])) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]


def christoffel_field(chart):
    """Field z -> Gamma(z), for differentiating Gamma.  The jet at a seeded
    point z lives on z and goes with it when the pass ends; Gamma is
    computed from it but not kept there, since nothing reads it again."""

    def fld(z):
        return christoffel(chart.jet1(z))

    return fld


# -- covariant derivatives of fields --------------------------------------


def cov_deriv_vector(chart, vec_field, x):
    """Matrix D[i][k] = (nabla_{d_i} X)^k = d_i X^k + Gamma^k_{is} X^s."""
    n = chart.dim
    xval, jac = partials(vec_field, x)
    gamma = chart.jet1(x).gamma
    return [
        [
            jac[i][k] + sum(gamma[k][i][s] * xval[s] for s in range(n))
            for k in range(n)
        ]
        for i in range(n)
    ]


def div_vector(chart, vec_field, x):
    """Divergence of a vector field: the trace of its covariant derivative."""
    cov = cov_deriv_vector(chart, vec_field, x)
    return sum(cov[i][i] for i in range(chart.dim))


def div_endo(chart, endo_field, x):
    """Divergence covector of a (1,1) field S, in Christoffel form:
    (div S)_j = S^i_{j,i} + S^l_j Gamma^i_{il} - Gamma^l_{ij} S^i_l."""
    n = chart.dim
    gamma = chart.jet1(x).gamma
    s_val, d_s = partials(endo_field, x)
    out = []
    for j in range(n):
        v = sum(d_s[i][i][j] for i in range(n))
        v = v + sum(gamma[i][i][l] * s_val[l][j] for i in range(n) for l in range(n))
        v = v - sum(gamma[l][i][j] * s_val[i][l] for i in range(n) for l in range(n))
        out.append(v)
    return out


# -- tower primitives ------------------------------------------------------


def cov_at(chart, z, direction, vec_field):
    """(nabla_u X)(z) for a direction vector u and a vector field closure.

    One dual pass gives d_u X; the Christoffel correction uses the cached
    connection at z.  z may itself be a dual/array point, which is what lets
    these towers nest.
    """
    n = chart.dim
    w, dw = directional(vec_field, z, direction)
    gamma = chart.jet1(z).gamma
    res = []
    for k in range(n):
        corr = sum(
            gamma[k][i][j] * direction[i] * w[j] for i in range(n) for j in range(n)
        )
        res.append(dw[k] + corr)
    return res


def nabla_field(chart, dir_field, vec_field):
    """Field closure z -> (nabla_{U(z)} X)(z)."""

    def fld(z):
        return cov_at(chart, z, dir_field(z), vec_field)

    return fld


def lie_bracket(u_field, w_field):
    """Field closure for [U, W] (coordinate expression, no metric)."""

    def fld(z):
        u = u_field(z)
        w = w_field(z)
        _, dw = directional(w_field, z, u)
        _, du = directional(u_field, z, w)
        return [a - b for a, b in zip(dw, du)]

    return fld


def frame_at(chart, z):
    """Metric-orthonormal frame L[i][s] at z (column s = frame vector s)."""
    return la.gram_schmidt_frame(chart.jet1(z).g)


def frame_column_field(chart, s):
    """Field z -> frame vector s at z.

    ``s`` is an integer array that broadcasts against the point's axes: a
    node carries frame vector s there, sum_k L[i][k] (s == k).  An index axis
    of its own, e.g. s of shape (n, 1, 1) at a point of shape (1, 1, N),
    stacks n frame slots into one tower; s must not have more axes than the
    point, as a derivative pass puts its axis in front.
    """
    masks = [(s == k).astype(float) for k in range(chart.dim)]

    def fld(z):
        frame = frame_at(chart, z)
        return [sum(row[k] * mask for k, mask in enumerate(masks)) for row in frame]

    return fld
