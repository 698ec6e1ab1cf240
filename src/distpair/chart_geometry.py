"""Coordinate-chart Riemannian geometry through automatic differentiation.

A chart supplies the metric as a callable on coordinate lists; every derived
object (Christoffel symbols, curvature, divergences, covariant derivatives)
is produced by differentiating that callable with nested dual numbers — there
are no hand-differentiated metric formulas anywhere downstream.

Sign conventions, fixed once and used consistently:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R_{ijkl} = <R(d_i, d_j) d_k, d_l>,   Ric_{jk} = R^i_{ijk}

With these, the round 3-sphere has sectional curvature +1 and Ric = 2g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dual as ops
from . import linalg as la
from .dual import Dual, eps_part, fresh_tag, seed_point, val_part


class MetricError(ValueError):
    """Raised when a chart's metric is not symmetric positive definite."""


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart with a metric in coordinates.

    ``metric(x)`` must return a nested list g[i][j] and be evaluable on
    floats, numpy arrays and dual numbers (use the ops module for sin etc.).
    ``domain`` gives per-axis (lo, hi); ``periodic`` marks axes where the
    endpoints are identified.  ``singular_locus`` is a human-readable note
    about where the associated endomorphism pair degenerates, if anywhere.
    """

    name: str
    dim: int
    metric: Callable[[Sequence], list]
    domain: tuple
    periodic: tuple
    singular_locus: Optional[str] = None


@dataclass
class MetricJet:
    """Metric with derivatives at a point: dg[k][i][j] = d_k g_ij,
    d2g[k][l][i][j] = d_k d_l g_ij (or None for a first-order jet)."""

    g: list
    dg: list
    d2g: Optional[list]
    g_inv: list
    sqrt_det: object


@dataclass
class ConnectionCoeffs:
    """Christoffel symbols, gamma[k][i][j] = Gamma^k_{ij}."""

    gamma: list


def _is_plain_floats(x):
    return all(isinstance(c, (float, int, np.floating, np.integer)) for c in x)


class Geometry:
    """Caching wrapper around a chart.

    Float points are cached by value; dual/array points by object identity
    (the cache keeps a strong reference so ids stay valid).  Tower evaluation
    hits the same point object many times, which makes this worthwhile.
    """

    def __init__(self, chart: Chart):
        self.chart = chart
        self._by_value = {}
        self._by_id = {}

    def _slot(self, x):
        if _is_plain_floats(x):
            key = tuple(float(c) for c in x)
            slot = self._by_value.get(key)
            if slot is None:
                if len(self._by_value) > 60000:
                    self._by_value.clear()
                slot = {}
                self._by_value[key] = slot
            return slot
        key = id(x)
        entry = self._by_id.get(key)
        if entry is None or entry[0] is not x:
            if len(self._by_id) > 48:
                self._by_id.clear()
            entry = (x, {})
            self._by_id[key] = entry
        return entry[1]

    def jet1(self, x) -> MetricJet:
        slot = self._slot(x)
        jet = slot.get("jet1")
        if jet is None:
            jet = _metric_jet(self.chart, x, second_order=False)
            slot["jet1"] = jet
        return jet

    def jet2(self, x) -> MetricJet:
        slot = self._slot(x)
        jet = slot.get("jet2")
        if jet is None:
            jet = _metric_jet(self.chart, x, second_order=True)
            slot["jet2"] = jet
        return jet

    def gamma(self, x) -> list:
        slot = self._slot(x)
        gam = slot.get("gamma")
        if gam is None:
            gam = christoffel(self.jet1(x)).gamma
            slot["gamma"] = gam
        return gam


def ensure_geometry(obj) -> Geometry:
    if isinstance(obj, Geometry):
        return obj
    return Geometry(obj)


def point_columns(points):
    """A list of sample points as one column batch: (dim,) arrays of shape (N,)."""
    return [np.array([p[i] for p in points]) for i in range(len(points[0]))]


def _metric_jet(chart: Chart, x, second_order: bool) -> MetricJet:
    n = chart.dim
    g = chart.metric(x)
    check_pivot = None
    if not any(isinstance(c, Dual) for c in x):
        check_pivot = _validate_metric(g, x)
    g_inv, det = la.inverse_and_det(g, check_pivot)
    dg = []
    for k in range(n):
        tag = fresh_tag()
        xd = seed_point(x, [1.0 if i == k else 0.0 for i in range(n)], tag)
        gd = chart.metric(xd)
        dg.append([[eps_part(gd[i][j], tag) for j in range(n)] for i in range(n)])
    d2g = None
    if second_order:
        d2g = [[None] * n for _ in range(n)]
        for l in range(n):
            tag_l = fresh_tag()
            xl = seed_point(x, [1.0 if i == l else 0.0 for i in range(n)], tag_l)
            for k in range(l + 1):
                tag_k = fresh_tag()
                xlk = seed_point(xl, [1.0 if i == k else 0.0 for i in range(n)], tag_k)
                gd = chart.metric(xlk)
                block = [
                    [eps_part(eps_part(gd[i][j], tag_k), tag_l) for j in range(n)]
                    for i in range(n)
                ]
                d2g[k][l] = block
                d2g[l][k] = block
    return MetricJet(g=g, dg=dg, d2g=d2g, g_inv=g_inv, sqrt_det=ops.sqrt(det))


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


def metric_jet(chart, x) -> MetricJet:
    """Full second-order metric jet at x (g, dg, d2g, inverse, sqrt det)."""
    if isinstance(chart, Geometry):
        return chart.jet2(x)
    return _metric_jet(chart, x, second_order=True)


def christoffel(jet: MetricJet) -> ConnectionCoeffs:
    n = len(jet.g)
    g_inv, dg = jet.g_inv, jet.dg
    gamma = []
    for k in range(n):
        mk = []
        for i in range(n):
            row = []
            for j in range(n):
                s = sum(
                    g_inv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    for l in range(n)
                )
                row.append(0.5 * s)
            mk.append(row)
        gamma.append(mk)
    return ConnectionCoeffs(gamma=gamma)


def gamma_jet(geom, x):
    """(gamma, dgamma) with dgamma[l][k][i][j] = d_l Gamma^k_{ij}."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    gamma = geom.gamma(x)
    dgamma = []
    for l in range(n):
        tag = fresh_tag()
        xd = seed_point(x, [1.0 if i == l else 0.0 for i in range(n)], tag)
        gd = christoffel(geom.jet1(xd)).gamma
        dgamma.append(
            [
                [[eps_part(gd[k][i][j], tag) for j in range(n)] for i in range(n)]
                for k in range(n)
            ]
        )
    return gamma, dgamma


def riemann_up(geom, x):
    """R^m_{ijk} = d_i Gamma^m_{jk} - d_j Gamma^m_{ik} + Gamma Gamma terms."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    gamma, dgamma = gamma_jet(geom, x)
    out = []
    for m in range(n):
        bm = []
        for i in range(n):
            bi = []
            for j in range(n):
                row = []
                for k in range(n):
                    v = dgamma[i][m][j][k] - dgamma[j][m][i][k]
                    v = v + sum(
                        gamma[m][i][s] * gamma[s][j][k] - gamma[m][j][s] * gamma[s][i][k]
                        for s in range(n)
                    )
                    row.append(v)
                bi.append(row)
            bm.append(bi)
        out.append(bm)
    return out


def riemann(geom, x):
    """Fully lowered curvature R_{ijkl} = <R(d_i,d_j) d_k, d_l>."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    up = riemann_up(geom, x)
    g = geom.jet1(x).g
    return [
        [
            [
                [sum(g[l][m] * up[m][i][j][k] for m in range(n)) for l in range(n)]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def ricci(geom, x):
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    up = riemann_up(geom, x)
    return [[sum(up[i][i][j][k] for i in range(n)) for k in range(n)] for j in range(n)]


def scalar_curvature(geom, x):
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    ric = ricci(geom, x)
    g_inv = geom.jet1(x).g_inv
    return sum(g_inv[j][k] * ric[j][k] for j in range(n) for k in range(n))


def einstein_tensor(geom, x):
    """Mixed (1,1) Einstein tensor E^i_j = Ric^i_j - 1/2 Scal delta^i_j."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    ric = ricci(geom, x)
    g_inv = geom.jet1(x).g_inv
    ric_up = [[sum(g_inv[i][k] * ric[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    scal = sum(ric_up[i][i] for i in range(n))
    return [
        [ric_up[i][j] - (0.5 * scal if i == j else 0.0) for j in range(n)]
        for i in range(n)
    ]


def sectional_curvature(geom, x, u, v):
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    r4 = riemann(geom, x)
    g = geom.jet1(x).g
    num = sum(
        r4[i][j][k][l] * u[i] * v[j] * v[k] * u[l]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
    )
    uu = la.bilinear(g, u, u)
    vv = la.bilinear(g, v, v)
    uv = la.bilinear(g, u, v)
    return num / (uu * vv - uv * uv)


# -- covariant derivatives of fields --------------------------------------


def cov_deriv_vector(geom, vec_field, x):
    """Matrix D[i][k] = (nabla_{d_i} X)^k = d_i X^k + Gamma^k_{is} X^s."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    xval = vec_field(x)
    jac = ops.partials_vector(vec_field, x)
    gamma = geom.gamma(x)
    return [
        [
            jac[i][k] + sum(gamma[k][i][s] * xval[s] for s in range(n))
            for k in range(n)
        ]
        for i in range(n)
    ]


def div_vector_paths(geom, vec_field, x):
    """Divergence two ways: Christoffel trace and the sqrt(det)-density form."""
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    cov = cov_deriv_vector(geom, vec_field, x)
    trace_form = sum(cov[i][i] for i in range(n))

    def density(z):
        jet = geom.jet1(z)
        xv = vec_field(z)
        return [jet.sqrt_det * xv[i] for i in range(n)]

    acc = 0.0
    for i in range(n):
        tag = fresh_tag()
        zd = seed_point(x, [1.0 if k == i else 0.0 for k in range(n)], tag)
        acc = acc + eps_part(density(zd)[i], tag)
    density_form = acc / geom.jet1(x).sqrt_det
    return trace_form, density_form


def div_vector(geom, vec_field, x):
    return div_vector_paths(geom, vec_field, x)[0]


def div_endo_paths(geom, endo_field, x):
    """Divergence covector of a (1,1) field S two ways.

    The Christoffel form (div S)_j = S^i_{j,i} + S^l_j Gamma^i_{il}
    - Gamma^l_{ij} S^i_l holds for any S.  The density form replaces the
    first two terms by (1/sqrt g) d_i (sqrt g S^i_j) and the last by
    -1/2 S^{ik} d_j g_{ik}; the two agree when S is metric-self-adjoint
    (the only kind the identities here consume).
    """
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    jet = geom.jet1(x)
    gamma = geom.gamma(x)
    s_val = endo_field(x)

    d_s = []
    d_dens = []
    for i in range(n):
        tag = fresh_tag()
        zd = seed_point(x, [1.0 if k == i else 0.0 for k in range(n)], tag)
        sd = endo_field(zd)
        d_s.append([[eps_part(sd[a][b], tag) for b in range(n)] for a in range(n)])
        sq = geom.jet1(zd).sqrt_det
        d_dens.append([eps_part(sq * sd[i][b], tag) for b in range(n)])

    gamma_form = []
    for j in range(n):
        v = sum(d_s[i][i][j] for i in range(n))
        v = v + sum(gamma[i][i][l] * s_val[l][j] for i in range(n) for l in range(n))
        v = v - sum(gamma[l][i][j] * s_val[i][l] for i in range(n) for l in range(n))
        gamma_form.append(v)

    s_upup = la.mat_mul(s_val, jet.g_inv)
    density_form = []
    for j in range(n):
        v = sum(d_dens[i][j] for i in range(n)) / jet.sqrt_det
        v = v - 0.5 * sum(
            s_upup[i][k] * jet.dg[j][i][k] for i in range(n) for k in range(n)
        )
        density_form.append(v)
    return gamma_form, density_form


def div_endo(geom, endo_field, x):
    return div_endo_paths(geom, endo_field, x)[0]


# -- tower primitives ------------------------------------------------------


def cov_at(geom, z, direction, vec_field):
    """(nabla_u X)(z) for a direction vector u and a vector field closure.

    One dual pass gives d_u X; the Christoffel correction uses the cached
    connection at z.  z may itself be a dual/array point, which is what lets
    these towers nest.
    """
    geom = ensure_geometry(geom)
    n = geom.chart.dim
    tag = fresh_tag()
    zd = seed_point(z, direction, tag)
    out = vec_field(zd)
    w = [val_part(c, tag) for c in out]
    dw = [eps_part(c, tag) for c in out]
    gamma = geom.gamma(z)
    res = []
    for k in range(n):
        corr = sum(
            gamma[k][i][j] * direction[i] * w[j] for i in range(n) for j in range(n)
        )
        res.append(dw[k] + corr)
    return res


def nabla_field(geom, dir_field, vec_field):
    """Field closure z -> (nabla_{U(z)} X)(z)."""
    geom = ensure_geometry(geom)

    def fld(z):
        return cov_at(geom, z, dir_field(z), vec_field)

    return fld


def lie_bracket(u_field, w_field):
    """Field closure for [U, W] (coordinate expression, no metric)."""

    def fld(z):
        u = u_field(z)
        w = w_field(z)
        _, dw = ops.directional_vector(w_field, z, u)
        _, du = ops.directional_vector(u_field, z, w)
        return [a - b for a, b in zip(dw, du)]

    return fld


def frame_at(geom, z):
    """Metric-orthonormal frame L[i][s] at z (column s = frame vector s)."""
    geom = ensure_geometry(geom)
    return la.gram_schmidt_frame(geom.jet1(z).g)


def frame_column_field(geom, s):
    """Field z -> frame vector s at z.

    ``s`` may also be an integer array over the node axis of a column batch:
    node m then carries frame vector s[m], selected as sum_k L[i][k] mask_k
    with mask_k = (s == k).  This stacks several frame slots into one tower.
    """
    geom = ensure_geometry(geom)
    if np.ndim(s) == 0:
        return lambda z: [row[s] for row in frame_at(geom, z)]
    masks = [(s == k).astype(float) for k in range(geom.chart.dim)]

    def fld(z):
        frame = frame_at(geom, z)
        return [sum(row[k] * mask for k, mask in enumerate(masks)) for row in frame]

    return fld
