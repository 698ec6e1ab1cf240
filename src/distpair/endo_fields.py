"""Endomorphism fields on chart domains and pair-level conditions.

An endomorphism field is a callable z -> nested-list matrix P[i][j] in mixed
position ((P X)^i = P[i][j] X^j), evaluable on float/array/dual points like
everything else in this package.  A pair (P1, P2) is *adapted* when the four
mixed products P1 P2^*, P1^* P2, P2 P1^*, P2^* P1 vanish; the four
first-order forms in :func:`allowed_forms` are the additional derivative
conditions gating the curvature-level identities in dist_tensors.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg as la
from .chart_geometry import cov_at


def adjoint_matrix(g, g_inv, p):
    """Metric adjoint of a mixed endomorphism matrix: P^* = g^{-1} P^T g."""
    return la.mat_mul(g_inv, la.mat_mul(la.transpose(p), g))


def adjoint_field(chart, p_endo):
    """Field closure z -> P^*(z)."""

    def fld(z):
        jet = chart.jet1(z)
        return adjoint_matrix(jet.g, jet.g_inv, p_endo(z))

    return fld


@dataclass
class EndoPair:
    """A pair of endomorphism fields plus advertised structural flags.

    Flags describe what the pair is supposed to satisfy;
    ``scenarios.probe_pair`` measures them on demand.  Nothing downstream
    trusts the flags without re-measuring.
    """

    p1: Callable
    p2: Callable
    self_adjoint: bool = False
    allowed: bool = False
    div_pp_star_zero: bool = False
    div_p_squared_zero: bool = False

    def total(self):
        def fld(z):
            return la.mat_add(self.p1(z), self.p2(z))

        return fld

    def swapped(self):
        """The pair (P2, P1).  Each flag is symmetric in the two members, so
        the flags carry over.  An index-1 object of the pair is the index-2
        one of its swap, with the two slots exchanged."""
        return dataclasses.replace(self, p1=self.p2, p2=self.p1)


def frob(m):
    """Frobenius norm of a nested-list matrix of floats or node arrays.

    ``float_power`` squares with C ``pow``, as ``float ** 2`` does, so a
    batch gives bit for bit the norms of its points one at a time.
    """
    return np.sqrt(sum(np.float_power(v, 2) for row in m for v in row))


def pair_defects(pair, chart, x):
    """(products, defects, scale) at x, each member evaluated once.

    ``products`` holds the Frobenius norms of the four adaptedness products,
    ``defects`` those of P1 - P1^* and P2 - P2^* (keys ``p1``, ``p2``), and
    ``scale`` is |P1|_F |P2|_F.
    """
    jet = chart.jet1(x)
    p1 = pair.p1(x)
    p2 = pair.p2(x)
    p1s = adjoint_matrix(jet.g, jet.g_inv, p1)
    p2s = adjoint_matrix(jet.g, jet.g_inv, p2)
    products = {
        "p1_p2_star": frob(la.mat_mul(p1, p2s)),
        "p1_star_p2": frob(la.mat_mul(p1s, p2)),
        "p2_p1_star": frob(la.mat_mul(p2, p1s)),
        "p2_star_p1": frob(la.mat_mul(p2s, p1)),
    }
    defects = {"p1": frob(la.mat_sub(p1, p1s)), "p2": frob(la.mat_sub(p2, p2s))}
    return products, defects, frob(p1) * frob(p2)


def check_pair(pair, chart, cols):
    """Adaptedness (+ self-adjointness if advertised) over a column batch.

    Returns max_abs / max_normalized over all nodes and all product norms
    (NaN if any is).
    """
    products, defects, scale = pair_defects(pair, chart, cols)
    vals = list(products.values())
    if pair.self_adjoint:
        vals.extend(defects.values())
    worst = functools.reduce(np.maximum, vals)
    return {
        "max_abs": la.max_entry(worst),
        "max_normalized": la.max_entry(worst / (1.0 + scale)),
        "samples": len(cols[0]),
    }


# -- first-order compatibility forms ---------------------------------------


def as_field(v):
    """v itself if it is already a field closure, else the constant field z -> v."""
    if callable(v):
        return v

    def fld(_z):
        return v

    return fld


def apply_endo(mat_field, vec_field):
    def fld(z):
        return la.mat_vec(mat_field(z), vec_field(z))

    return fld


def gnorm(g, v):
    return np.sqrt(np.maximum(la.bilinear(g, v, v), 0.0))


def covector_gnorm(g_inv, omega):
    """Metric norm of a covector, through the inverse metric."""
    n = len(omega)
    val = sum(omega[i] * g_inv[i][j] * omega[j] for i in range(n) for j in range(n))
    return np.sqrt(np.maximum(val, 0.0))


def allowed_forms(pair, chart, x, vec_x, vec_y):
    """The four first-order compatibility forms at x on slot vectors (X, Y).

    For an adapted pair each form is tensorial in both slots, so constant
    extension of X and Y is faithful.  Returns (forms, normalizers); each
    normalizer sums the magnitudes of the two terms whose difference is the
    form (used for normalized residual reporting).  The b1 forms are the b2
    forms of ``pair.swapped()``.
    """
    x_fld = as_field(vec_x)
    y_fld = as_field(vec_y)
    g = chart.jet1(x).g

    forms = {}
    norms = {}
    for tag, p in (("b1", pair.swapped()), ("b2", pair)):
        pa, pb = p.p2, p.p1
        pa_adj = adjoint_field(chart, pa)
        pb_adj = adjoint_field(chart, pb)
        d_main = la.mat_vec(pa(x), vec_x)
        pa_star_y = apply_endo(pa_adj, y_fld)
        pa_pa_star_y = apply_endo(pa, pa_star_y)
        t_shared = la.mat_vec(
            la.mat_mul(pb_adj(x), pb(x)), cov_at(chart, x, d_main, pa_star_y)
        )
        t_plain = la.mat_vec(pb_adj(x), cov_at(chart, x, d_main, pa_pa_star_y))
        d_star = la.mat_vec(la.mat_mul(pa_adj(x), pa(x)), vec_x)
        t_star = la.mat_vec(pb(x), cov_at(chart, x, d_star, pa_star_y))
        forms[f"{tag}_plain"] = la.vec_sub(t_shared, t_plain)
        forms[f"{tag}_star"] = la.vec_sub(t_shared, t_star)
        shared_norm = gnorm(g, t_shared)
        norms[f"{tag}_plain"] = shared_norm + gnorm(g, t_plain)
        norms[f"{tag}_star"] = shared_norm + gnorm(g, t_star)
    return forms, norms


def form_residuals(g, forms, norms):
    """(max residual, max normalized residual) over named residual vectors:
    |v|_g and |v|_g / (1 + norms[key]) for each ``forms[key] = v``, per node
    when g is a column batch, NaN where any is."""
    worst = 0.0
    worst_norm = 0.0
    for key, v in forms.items():
        r = gnorm(g, v)
        worst = np.maximum(worst, r)
        worst_norm = np.maximum(worst_norm, r / (1.0 + norms[key]))
    return worst, worst_norm


def allowed_residual(pair, chart, x, vec_x, vec_y):
    """(max residual, max normalized residual) over the four forms at x,
    per node when x is a column batch."""
    forms, norms = allowed_forms(pair, chart, x, vec_x, vec_y)
    return form_residuals(chart.jet1(x).g, forms, norms)
