"""Independent routes kept as test oracles.

The coordinate curvature tensors (Riemann, Ricci, scalar, Einstein and
sectional curvature) from the Christoffel symbols, the PSD square root of a
metric-self-adjoint endomorphism, and all six structural tensors at once.
No check of the package reads them; the tests compare the package's
quantities with them.

Sign conventions:

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R_{ijkl} = <R(d_i, d_j) d_k, d_l>,   Ric_{jk} = R^i_{ijk}

With these, the round 3-sphere has sectional curvature +1 and Ric = 2g.
"""

from __future__ import annotations

import numpy as np

from distpair import linalg as la
from distpair.chart_geometry import christoffel_field
from distpair.dist_tensors import field_b2, field_check_b2, field_hat_b2
from distpair.dual import partials
from distpair.endo_fields import as_field


def riemann_up(chart, x):
    """R^m_{ijk} = d_i Gamma^m_{jk} - d_j Gamma^m_{ik} + Gamma Gamma terms."""
    n = chart.dim
    gamma = chart.jet1(x).gamma
    _, dgamma = partials(christoffel_field(chart), x)  # dgamma[l][k][i][j] = d_l Gamma^k_{ij}
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


def riemann(chart, x):
    """Fully lowered curvature R_{ijkl} = <R(d_i,d_j) d_k, d_l>."""
    n = chart.dim
    up = riemann_up(chart, x)
    g = chart.jet1(x).g
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


def ricci(chart, x):
    n = chart.dim
    up = riemann_up(chart, x)
    return [[sum(up[i][i][j][k] for i in range(n)) for k in range(n)] for j in range(n)]


def scalar_curvature(chart, x):
    n = chart.dim
    ric = ricci(chart, x)
    g_inv = chart.jet1(x).g_inv
    return sum(g_inv[j][k] * ric[j][k] for j in range(n) for k in range(n))


def einstein_tensor(chart, x):
    """Mixed (1,1) Einstein tensor E^i_j = Ric^i_j - 1/2 Scal delta^i_j."""
    n = chart.dim
    ric = ricci(chart, x)
    g_inv = chart.jet1(x).g_inv
    ric_up = [[sum(g_inv[i][k] * ric[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    scal = sum(ric_up[i][i] for i in range(n))
    return [
        [ric_up[i][j] - (0.5 * scal if i == j else 0.0) for j in range(n)]
        for i in range(n)
    ]


def sectional_curvature(chart, x, u, v):
    n = chart.dim
    r4 = riemann(chart, x)
    g = chart.jet1(x).g
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


class NotPositiveSemidefinite(ValueError):
    pass


def sqrt_psd(s, g=None, tol=1e-8):
    """Metric-self-adjoint PSD square root of a mixed endomorphism matrix.

    Conjugating with the Cholesky factor of g turns a g-self-adjoint mixed
    matrix into a plain symmetric one; take its eigenvalue square root and
    conjugate back.  Eigenvalues below -tol raise; tiny negatives clamp to 0.
    Float-only (this is a verification utility, not part of the AD towers).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    gm = np.eye(n) if g is None else np.asarray(g, dtype=float)
    chol = np.linalg.cholesky(gm)
    sym = chol.T @ s @ np.linalg.inv(chol.T)
    sym = 0.5 * (sym + sym.T)
    w, v = np.linalg.eigh(sym)
    if w.min() < -tol:
        raise NotPositiveSemidefinite(f"eigenvalue {w.min():.3e} below -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    root = v @ np.diag(np.sqrt(w)) @ v.T
    return np.linalg.solve(chol.T, root @ chol.T)


def b_tensors(pair, chart, x, vec_x, vec_y):
    """All six structural tensors at x on (X, Y), as vectors."""
    xf = as_field(vec_x)
    yf = as_field(vec_y)
    slots = ((1, pair.swapped(), yf, xf), (2, pair, xf, yf))
    out = {}
    for name, build in (("b", field_b2), ("hat_b", field_hat_b2), ("check_b", field_check_b2)):
        for index, p, u, v in slots:
            out[f"{name}{index}"] = build(chart, p, u, v)(x)
    return out
