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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg as la
from .chart_geometry import cov_at
from .identity import LHS, RHS, Identity, one_term, pair_size, rule


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


def check_pair(pair, chart, cols):
    """Adaptedness (+ self-adjointness if advertised) on a column batch, each
    member evaluated once: a record of one-term identities, the Frobenius
    norms of the four products (``p1_p2_star``, ...) and of P1 - P1^*,
    P2 - P2^* (``p1``, ``p2``), normalized by :func:`identity.pair_size`."""
    jet = chart.jet1(cols)
    p1 = pair.p1(cols)
    p2 = pair.p2(cols)
    p1s = adjoint_matrix(jet.g, jet.g_inv, p1)
    p2s = adjoint_matrix(jet.g, jet.g_inv, p2)
    norms = {
        "p1_p2_star": frob(la.mat_mul(p1, p2s)),
        "p1_star_p2": frob(la.mat_mul(p1s, p2)),
        "p2_p1_star": frob(la.mat_mul(p2, p1s)),
        "p2_star_p1": frob(la.mat_mul(p2s, p1)),
    }
    if pair.self_adjoint:
        norms.update(p1=frob(la.mat_sub(p1, p1s)), p2=frob(la.mat_sub(p2, p2s)))
    return one_term(norms, pair_size, frob(p1) * frob(p2))


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


def allowed_forms(pair, chart, x, vec_x, vec_y):
    """The four first-order compatibility forms at x on slot vectors (X, Y).

    For an adapted pair each form is tensorial in both slots, so constant
    extension of X and Y is faithful.  Returns a record of four vector
    identities, ``b{i}_plain`` and ``b{i}_star``: the shared term (lhs)
    against the plain or star one (rhs).  b1 is b2 of ``pair.swapped()``.
    """
    y_fld = as_field(vec_y)
    g = chart.jet1(x).g

    record = {}
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
        for key, other in (("plain", t_plain), ("star", t_star)):
            terms = (("shared", LHS, t_shared), (key, RHS, other))
            record[f"{tag}_{key}"] = Identity(terms, g, rule, None)
    return record
