"""Small dense linear algebra over generic payloads.

Matrices are nested lists; entries may be floats, numpy arrays (batched
evaluation) or dual numbers.  Arrays and duals are never inspected, so the
LU factorization runs without pivoting — it is only ever applied to
symmetric positive-definite matrices (the metric), where no-pivot LU is
numerically safe.  :func:`nested_to_array` turns a nested list over a batch
of nodes into one stacked array for the einsum engines.

A Python ``float`` equal to 0.0 is a *structural zero*: the constant zeros
of diagonal metrics, projectors, identity columns and triangular frames.
Products, sums, LU steps and frame entries skip it and keep it a float, so
it is never multiplied into a dual (Griewank & Walther, *Evaluating
Derivatives*, ch. 3 and ch. 13).  For a finite factor ``x``, ``0.0 * x`` is
±0.0 and ``a ± 0.0`` is ``a``, so every value equals the one the full
products give (a zero may differ only in its sign).  A skipped
``0.0 * nan`` hides no NaN: a metric is validated at real points before any
pass, and each frame's diagonal ``v_k / |v|`` is never a structural zero, so
a NaN entry ``P[i][k]`` still reaches column k of ``P L``.

Every nested-list contraction of the package is one of these routines, so
the product order, the structural-zero rule and the start value of a sum are
decided here.  :func:`chart_geometry.cov_at` forms Gamma^k_ij u^i before
:func:`dot` sees it, which is why a NaN of the pair still reaches the tower.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import dual as ops


def eye(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def is_zero(x):
    """True for a structural zero: a Python float equal to 0.0."""
    return type(x) is float and x == 0.0


def dot(pairs):
    """sum(a * b) over the pairs in order, skipping every pair with a
    structural-zero factor; the structural zero 0.0 if all are skipped.

    :func:`is_zero` is spelled out here, the hot site, to save a Python call
    per factor."""
    terms = [
        a * b
        for a, b in pairs
        if not ((type(a) is float and a == 0.0) or (type(b) is float and b == 0.0))
    ]
    return sum(terms) if terms else 0.0


def mat_vec(a, x):
    return [dot(zip(ai, x)) for ai in a]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[dot(zip(ai, col)) for col in cols] for ai in a]


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
    return dot((xi, dot(zip(gi, y))) for xi, gi in zip(x, g) if not is_zero(xi))


def lu_nopivot(a, check_pivot=None):
    """Doolittle LU without pivoting.  Caller guarantees nonzero pivots
    (metric matrices are SPD); entries may be duals or arrays.  When given,
    ``check_pivot(k, pivot)`` sees each pivot before anything divides by it.
    A row whose entry below the pivot is a structural zero is not eliminated,
    and no update subtracts a multiple of a structural zero."""
    n = len(a)
    upper = [row[:] for row in a]
    lower = eye(n)
    for k in range(n):
        piv = upper[k][k]
        if check_pivot is not None:
            check_pivot(k, piv)
        for i in range(k + 1, n):
            if is_zero(upper[i][k]):
                continue
            m = upper[i][k] / piv
            lower[i][k] = m
            for j in range(k, n):
                if not is_zero(upper[k][j]):
                    upper[i][j] = upper[i][j] - m * upper[k][j]
    return lower, upper


def lu_det(upper):
    d = upper[0][0]
    for k in range(1, len(upper)):
        d = d * upper[k][k]
    return d


def _minus(a, b):
    return a if is_zero(b) else a - b


def lu_solve(lower, upper, b):
    """Solve L U x = b; a structural zero on the right stays one in x."""
    n = len(b)
    y = [None] * n
    for i in range(n):
        y[i] = _minus(b[i], dot(zip(lower[i][:i], y)))
    x = [None] * n
    for i in reversed(range(n)):
        r = _minus(y[i], dot(zip(upper[i][i + 1 :], x[i + 1 :])))
        x[i] = r if is_zero(r) else r / upper[i][i]
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
    dual/array payloads.  Structural zeros stay 0.0, so L is upper
    triangular with no zero entry ever multiplied or divided.
    """
    n = len(g)
    cols = []
    for s in range(n):
        v = [1.0 if k == s else 0.0 for k in range(n)]
        for u in cols:
            c = bilinear(g, u, v)
            if not is_zero(c):
                v = [vk if is_zero(uk) else vk - c * uk for vk, uk in zip(v, u)]
        nv = ops.sqrt(bilinear(g, v, v))
        cols.append([vk if is_zero(vk) else vk / nv for vk in v])
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

    The shape is read off the nesting (first entry at each level; an empty
    list ends it with a zero-length axis) and a trailing node axis of length
    ``n_nodes`` is added; constant entries are broadcast along it.  The data
    is copied once, into one preallocated array.
    """
    shape = []
    probe = obj
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    out = np.zeros((*shape, n_nodes))
    for idx in itertools.product(*map(range, shape)):
        v = obj
        for i in idx:
            v = v[i]
        out[idx] = v
    return out
