"""Nested-list linear algebra used by the geometry kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest

import distpair.dual as ops
import distpair.linalg as la


def _random_spd(rng, n):
    a = rng.normal(size=(n, n))
    m = a @ a.T + n * np.eye(n)
    return [[float(v) for v in row] for row in m]


def test_inverse_and_det_match_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        g = _random_spd(rng, n)
        inv, det = la.inverse_and_det(g)
        assert abs(det - np.linalg.det(np.array(g))) < 1e-8 * abs(det)
        prod = np.array(la.mat_mul(g, inv))
        assert np.allclose(prod, np.eye(n), atol=1e-10)


def test_lu_solve():
    rng = np.random.default_rng(1)
    g = _random_spd(rng, 4)
    lo, up = la.lu_nopivot(g)
    b = list(rng.normal(size=4))
    x = la.lu_solve(lo, up, b)
    assert np.allclose(np.array(g) @ np.array(x), b, atol=1e-10)


def test_gram_schmidt_frame_orthonormalizes():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        g = _random_spd(rng, n)
        L = la.gram_schmidt_frame(g)
        # columns of L are g-orthonormal: L^T g L = I
        prod = np.array(la.mat_mul(la.transpose(L), la.mat_mul(g, L)))
        assert np.allclose(prod, np.eye(n), atol=1e-10)


def test_bilinear_and_basic_ops():
    g = [[2.0, 0.5], [0.5, 1.0]]
    x = [1.0, -1.0]
    y = [0.5, 2.0]
    want = sum(g[i][j] * x[i] * y[j] for i in range(2) for j in range(2))
    assert abs(la.bilinear(g, x, y) - want) < 1e-15
    assert la.vec_add(x, y) == [1.5, 1.0]
    assert la.vec_scale(2.0, x) == [2.0, -2.0]
    assert la.trace(g) == 3.0
    assert la.mat_scale(2.0, g)[0] == [4.0, 1.0]


def test_pairwise_sum_is_deterministic_and_accurate():
    rng = np.random.default_rng(3)
    vals = list(rng.normal(size=10001) * 1e8)
    s1 = la.pairwise_sum(vals)
    s2 = la.pairwise_sum(list(vals))
    assert s1 == s2  # bitwise reproducible
    assert abs(s1 - math.fsum(vals)) < 1e-4 * max(1.0, abs(math.fsum(vals)))
    assert la.pairwise_sum([]) == 0.0
    assert la.pairwise_sum([3.25]) == 3.25


# -- structural zeros ------------------------------------------------------
#
# A float 0.0 entry is skipped; an ndarray of zeros is not inspected, so it is
# multiplied through like any other entry.  With ``is_zero`` patched off and
# ``dot``, which spells the test out, replaced by the sum of every product,
# nothing is skipped at all: the reference every skipped result must equal.

NODES = 4
SHAPES = {
    "diagonal": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "block": [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
    "dense": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
}


def _dual_spd(shape, zero):
    """An SPD matrix over NODES nodes with dual entries where ``shape`` is 1
    and ``zero()`` elsewhere; diagonally dominant at every node."""
    rng = np.random.default_rng(len(shape) + sum(map(sum, shape)))
    tag = ops.fresh_tag()
    n = len(shape)
    g = [[zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if shape[i][j]:
                lo, hi = (2.0 + n, 4.0 + 2 * n) if i == j else (-1.0, 1.0)
                val = rng.uniform(lo, hi, NODES)
                g[i][j] = g[j][i] = ops.Dual(tag, val, rng.normal(size=NODES))
    return g


def _parts(x):
    """(value, eps) of an entry as arrays over the nodes; a float is constant."""
    if isinstance(x, ops.Dual):
        return np.broadcast_to(x.val, NODES), np.broadcast_to(x.eps, NODES)
    return np.broadcast_to(x, NODES), np.zeros(NODES)


def _assert_same(got, want):
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
        return
    for a, b in zip(_parts(got), _parts(want)):
        assert np.array_equal(a, b), (a, b)


def _results(g):
    n = len(g)
    x = [g[i][0] if i % 2 == 0 else g[i][i] for i in range(n)]  # zero where g is
    y = [g[i][i] for i in range(n)]
    inv, det = la.inverse_and_det(g)
    return {
        "mat_mul": la.mat_mul(g, g),
        "mat_vec": la.mat_vec(g, y),
        "bilinear": la.bilinear(g, x, y),
        "inverse": inv,
        "det": det,
        "frame": la.gram_schmidt_frame(g),
    }


def _dot_of_every_product(pairs):
    terms = [a * b for a, b in pairs]
    return sum(terms) if terms else 0.0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_structural_zeros_leave_values_unchanged(monkeypatch, shape):
    skipped = _results(_dual_spd(SHAPES[shape], lambda: 0.0))
    monkeypatch.setattr(la, "is_zero", lambda _x: False)
    monkeypatch.setattr(la, "dot", _dot_of_every_product)
    full = _results(_dual_spd(SHAPES[shape], lambda: np.zeros(NODES)))
    for name, want in full.items():
        _assert_same(skipped[name], want)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_structural_zeros_stay_floats(shape):
    g = _dual_spd(SHAPES[shape], lambda: 0.0)
    n = len(g)
    frame = la.gram_schmidt_frame(g)
    inv, _ = la.inverse_and_det(g)
    for i in range(n):
        for j in range(n):
            # the frame is upper triangular; g_inv keeps g's block pattern
            if i > j:
                assert type(frame[i][j]) is float and frame[i][j] == 0.0
            if not SHAPES[shape][i][j]:
                assert type(inv[i][j]) is float and inv[i][j] == 0.0
                if shape == "diagonal":
                    assert type(frame[i][j]) is float and frame[i][j] == 0.0
