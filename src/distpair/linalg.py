"""Small dense linear algebra over generic payloads.

Matrices are nested lists; entries may be floats, numpy arrays (batched
evaluation) or dual numbers, so nothing here may branch on entry values.
The LU factorization therefore runs without pivoting — it is only ever
applied to symmetric positive-definite matrices (the metric), where no-pivot
LU is numerically safe.  :func:`nested_to_array` turns a nested list over a
batch of nodes into one stacked array for the einsum engines.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import dual as ops


def eye(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def mat_vec(a, x):
    return [sum(ai[j] * x[j] for j in range(len(x))) for ai in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][s] * b[s][j] for s in range(k)) for j in range(m)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def vec_add(x, y):
    return [a + b for a, b in zip(x, y)]


def vec_sub(x, y):
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


def bilinear(g, x, y):
    """<x, y>_g = sum_ij x_i g_ij y_j."""
    return sum(x[i] * sum(g[i][j] * y[j] for j in range(len(y))) for i in range(len(x)))


def lu_nopivot(a, check_pivot=None):
    """Doolittle LU without pivoting.  Caller guarantees nonzero pivots
    (metric matrices are SPD); entries may be duals or arrays.  When given,
    ``check_pivot(k, pivot)`` sees each pivot before anything divides by it."""
    n = len(a)
    upper = [row[:] for row in a]
    lower = eye(n)
    for k in range(n):
        piv = upper[k][k]
        if check_pivot is not None:
            check_pivot(k, piv)
        for i in range(k + 1, n):
            m = upper[i][k] / piv
            lower[i][k] = m
            for j in range(k, n):
                upper[i][j] = upper[i][j] - m * upper[k][j]
    return lower, upper


def lu_det(upper):
    d = upper[0][0]
    for k in range(1, len(upper)):
        d = d * upper[k][k]
    return d


def lu_solve(lower, upper, b):
    n = len(b)
    y = [None] * n
    for i in range(n):
        y[i] = b[i] - sum(lower[i][j] * y[j] for j in range(i))
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum(upper[i][j] * x[j] for j in range(i + 1, n))) / upper[i][i]
    return x


def inverse_and_det(a, check_pivot=None):
    lower, upper = lu_nopivot(a, check_pivot)
    n = len(a)
    cols = [lu_solve(lower, upper, [1.0 if i == j else 0.0 for i in range(n)]) for j in range(n)]
    inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    return inv, lu_det(upper)


def gram_schmidt_frame(g):
    """Orthonormalize the coordinate basis against the metric g.

    Returns L with columns L[i][s] = components of the s-th orthonormal frame
    vector, so that L^T g L = Id.  Uses only +,-,*,/ and sqrt, hence works on
    dual/array payloads.
    """
    n = len(g)
    cols = []
    for s in range(n):
        v = [1.0 if k == s else 0.0 for k in range(n)]
        for u in cols:
            c = bilinear(g, u, v)
            v = [v[k] - c * u[k] for k in range(n)]
        nv = ops.sqrt(bilinear(g, v, v))
        cols.append([v[k] / nv for k in range(n)])
    return [[cols[s][i] for s in range(n)] for i in range(n)]


def pairwise_sum(values):
    """Sum a list by pairwise reduction (deterministic, low roundoff)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def max_entry(*values):
    """Largest entry over floats and arrays, floored at 0.0.

    Any NaN entry makes the result NaN, so a residual that could not be
    computed never reads as small (builtin ``max(0.0, nan)`` is 0.0).
    """
    top = np.max(np.concatenate([np.ravel(v) for v in values]))
    return top if not top <= 0.0 else 0.0


def nested_to_array(obj, n_nodes):
    """A nested list of floats / (n_nodes,) arrays as one float array.

    The shape is read off the nesting (first entry at each level) and a
    trailing node axis of length ``n_nodes`` is added; constant entries are
    broadcast along it.  The data is copied once, into one preallocated array.
    """
    shape = []
    probe = obj
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0]
    out = np.zeros((*shape, n_nodes))
    for idx in itertools.product(*map(range, shape)):
        v = obj
        for i in idx:
            v = v[i]
        out[idx] = v
    return out
