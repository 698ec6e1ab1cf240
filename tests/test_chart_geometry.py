"""Chart-level geometry: connection, curvature, divergences."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import distpair.dual as ops
import distpair.linalg as la
from distpair.chart_geometry import (
    Chart,
    MetricError,
    cov_at,
    cov_deriv_vector,
    div_endo,
    div_vector,
    frame_at,
    lie_bracket,
    point_columns,
)
from distpair.dual import Point, partials
from distpair.scenarios import (
    conformal_hopf,
    einstein_factor,
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    warped_torus,
)
from oracles import (
    einstein_tensor,
    ricci,
    riemann,
    riemann_up,
    scalar_curvature,
    sectional_curvature,
)

TWO_PI = 2.0 * math.pi


def _conformal_torus():
    # metric (1 + sin^2 u) (du^2 + dv^2)
    def metric(z):
        f = 1.0 + ops.sin(z[0]) ** 2
        return [[f, 0.0], [0.0, f]]

    return Chart(
        name="conformal-torus",
        dim=2,
        metric=metric,
    )


def test_christoffel_closed_form_on_conformal_torus():
    chart = _conformal_torus()
    u = math.pi / 4
    gam = chart.jet1([u, 0.3]).gamma
    s, c = math.sin(u), math.cos(u)
    f = 1.0 + s * s
    # for a conformal factor f(u): Gamma^u_uu = f'/2f, Gamma^u_vv = -f'/2f,
    # Gamma^v_uv = f'/2f, everything else zero
    w = s * c / f
    assert abs(gam[0][0][0] - w) < 1e-12
    assert abs(gam[0][1][1] + w) < 1e-12
    assert abs(gam[1][0][1] - w) < 1e-12
    assert abs(gam[1][1][0] - w) < 1e-12
    assert abs(gam[0][0][0] - 1.0 / 3.0) < 1e-12  # value at pi/4
    assert abs(gam[1][0][0]) < 1e-14 and abs(gam[0][0][1]) < 1e-14


def test_christoffel_against_finite_differences():
    chart = _conformal_torus()
    x = [0.8, 1.7]
    gam = chart.jet1(x).gamma
    h = 1e-5
    n = 2

    def g_at(z):
        return np.array(chart.metric(z), dtype=float)

    dg = np.zeros((n, n, n))
    for k in range(n):
        zp = list(x)
        zm = list(x)
        zp[k] += h
        zm[k] -= h
        dg[k] = (g_at(zp) - g_at(zm)) / (2 * h)
    ginv = np.linalg.inv(g_at(x))
    want = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                want[k][i][j] = 0.5 * sum(
                    ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    for l in range(n)
                )
    got = np.array(gam)
    assert np.abs(got - want).max() < 1e-9


def test_flat_torus_is_flat():
    sc = flat_torus_projectors()
    x = [1.0, 2.0]
    gam = sc.chart.jet1(x).gamma
    assert np.abs(np.array(gam)).max() == 0.0
    R = riemann_up(sc.chart, x)
    assert np.abs(np.array(R)).max() == 0.0


def test_round_sphere_curvature():
    sc = hopf_contact_s3()
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = list(rng.uniform(-1.5, 1.5, size=3))
        g = sc.chart.jet1(x).g
        ric = ricci(sc.chart, x)
        for i in range(3):
            for j in range(3):
                assert abs(ric[i][j] - 2.0 * g[i][j]) < 1e-10
        assert abs(scalar_curvature(sc.chart, x) - 6.0) < 1e-10
        u = list(rng.normal(size=3))
        v = list(rng.normal(size=3))
        assert abs(sectional_curvature(sc.chart, x, u, v) - 1.0) < 1e-10
        # mixed Einstein tensor of the unit round 3-sphere is -identity
        E = einstein_tensor(sc.chart, x)
        for i in range(3):
            for j in range(3):
                want = -1.0 if i == j else 0.0
                assert abs(E[i][j] - want) < 1e-10


def test_warped_torus_gauss_curvature():
    sc = warped_torus()  # w = sin
    for u in (0.0, 0.7, 2.1, 4.4):
        x = [u, 0.9]
        got = sectional_curvature(sc.chart, x, [1.0, 0.0], [0.0, 1.0])
        want = -(-math.sin(u) + math.cos(u) ** 2)  # -(w'' + w'^2)
        assert abs(got - want) < 1e-11


def test_riemann_first_bianchi_and_symmetries():
    sc = einstein_s3xt2()
    x = [0.2, -0.4, 0.6, 1.2, 0.5]
    R = np.array(riemann(sc.chart, x))
    assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-10
    assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10
    bianchi = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
    assert np.abs(bianchi).max() < 1e-10


def test_einstein_product_closed_forms():
    sc = einstein_s3xt2()
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = sc.sample_points(rng, 1)[0]
        u = x[3]
        E = einstein_tensor(sc.chart, x)
        e1 = einstein_factor(u)
        for i in range(5):
            for j in range(5):
                want = (e1 if i < 3 else -3.0) if i == j else 0.0
                assert abs(E[i][j] - want) < 1e-9
        s2 = math.sin(u) ** 2
        scal_want = 2.0 * (3.0 * s2**3 + 9.0 * s2**2 + 12.0 * s2 + 2.0) / (1.0 + s2) ** 3
        assert abs(scalar_curvature(sc.chart, x) - scal_want) < 1e-9


def test_einstein_factor_spot_values():
    # sin = 1: -(1 * (0 - 0 + 10)) / 8
    assert abs(einstein_factor(math.pi / 2) + 1.25) < 1e-14
    assert abs(einstein_factor(0.0)) < 1e-14
    # mixed torus eigenvalue is the constant -3, fixed by the block scaling
    sc = einstein_s3xt2()
    E = einstein_tensor(sc.chart, [0.1, 0.2, 0.3, 0.8, 0.4])
    assert abs(E[3][3] + 3.0) < 1e-10 and abs(E[4][4] + 3.0) < 1e-10


# -- second routes to the divergences, kept here as independent references --


def density_div_vector(chart, vec_field, x):
    """div X = (1/sqrt g) d_i (sqrt g X^i)."""
    n = chart.dim

    def density(z):
        sq = chart.jet1(z).sqrt_det
        return [sq * c for c in vec_field(z)]

    _, d = partials(density, x)
    return sum(d[i][i] for i in range(n)) / chart.jet1(x).sqrt_det


def density_div_endo(chart, endo_field, x):
    """(div S)_j = (1/sqrt g) d_i (sqrt g S^i_j) - 1/2 S^{ik} d_j g_{ik},
    valid for metric-self-adjoint S."""
    n = chart.dim
    jet = chart.jet1(x)

    def density(z):
        sq = chart.jet1(z).sqrt_det
        return [[sq * c for c in row] for row in endo_field(z)]

    _, d = partials(density, x)
    s_upup = la.mat_mul(endo_field(x), jet.g_inv)
    return [
        sum(d[i][i][j] for i in range(n)) / jet.sqrt_det
        - 0.5 * sum(s_upup[i][k] * jet.dg[j][i][k] for i in range(n) for k in range(n))
        for j in range(n)
    ]


def test_divergence_two_routes_agree_and_match_hand_formula():
    sc = warped_torus()
    rng = np.random.default_rng(5)

    def X(z):
        return [ops.sin(z[0] + z[1]), ops.cos(2.0 * z[0]) * ops.sin(z[1])]

    for _ in range(4):
        x = list(rng.uniform(0, TWO_PI, size=2))
        tr = div_vector(sc.chart, X, x)
        dens = density_div_vector(sc.chart, X, x)
        assert abs(tr - dens) < 1e-10
        # div X = dX^u/du + dX^v/dv + w'(u) X^u for this metric
        u, v = x
        want = (
            math.cos(u + v)
            + math.cos(2 * u) * math.cos(v)
            + math.cos(u) * math.sin(u + v)
        )
        assert abs(tr - want) < 1e-11


def test_div_endo_routes_agree_for_self_adjoint_fields():
    sc = warped_torus()

    def S(z):
        f = ops.sin(z[0]) * ops.cos(z[1])
        return [[1.0 + f * f, 0.0], [0.0, 2.0 - f]]

    x = [0.9, 2.5]
    gamma_form = div_endo(sc.chart, S, x)
    density_form = density_div_endo(sc.chart, S, x)
    assert max(abs(gamma_form[j] - density_form[j]) for j in range(2)) < 1e-10


def test_cov_at_matches_component_formula():
    sc = warped_torus()
    x = [1.1, 0.4]

    def Y(z):
        return [z[1] * ops.sin(z[0]), ops.cos(z[1])]

    v = [0.7, -0.3]
    got = cov_at(sc.chart, x, v, Y)
    jac = np.array(
        [
            [x[1] * math.cos(x[0]), 0.0],
            [math.sin(x[0]), -math.sin(x[1])],
        ]
    )
    gam = np.array(sc.chart.jet1(x).gamma)
    yv = np.array([x[1] * math.sin(x[0]), math.cos(x[1])])
    want = jac.T @ v + np.einsum("kij,i,j->k", gam, v, yv)
    assert np.allclose(np.array(got), want, atol=1e-12)


def test_lie_bracket_oracle():
    def U(z):
        return [z[1], 0.0]

    def W(z):
        return [0.0, z[0] * z[0]]

    # [U, W]^k = U^i d_i W^k - W^i d_i U^k
    br = lie_bracket(U, W)([2.0, 3.0])
    assert abs(br[0] - (-4.0)) < 1e-14
    assert abs(br[1] - 12.0) < 1e-14


def test_frame_is_orthonormal_on_einstein_chart():
    sc = einstein_s3xt2()
    x = [0.3, 0.1, -0.5, 2.0, 1.0]
    g = sc.chart.jet1(x).g
    L = frame_at(sc.chart, x)
    prod = np.array(la.mat_mul(la.transpose(L), la.mat_mul(g, L)))
    assert np.allclose(prod, np.eye(5), atol=1e-12)


def test_metric_validation_rejects_non_spd():
    def bad(z):
        return [[1.0, 2.0], [2.0, 1.0]]

    chart = Chart(
        name="bad",
        dim=2,
        metric=bad,
    )
    with pytest.raises(MetricError):
        chart.jet1([0.5, 0.5])
    # batched real nodes are validated too, not passed to the LU as NaN
    with pytest.raises(MetricError):
        chart.jet1([np.array([0.5, 0.25]), np.array([0.5, 0.75])])
    # and so is a real batch whose caller reads only g
    with pytest.raises(MetricError):
        chart.jet1([np.array([0.5, 0.25]), np.array([0.5, 0.75])]).g


@pytest.mark.parametrize(
    "metric, what",
    [
        (lambda z: [[1.0, 2.0 * z[0]], [2.0 * z[0], 1.0]], "positive definite"),
        (lambda z: [[1.0, 0.0], [np.floor(2.0 * z[0]), 1.0]], "symmetric"),
    ],
)
def test_metric_validation_names_first_bad_node(metric, what):
    chart = Chart(
        name="bad-at-one-node",
        dim=2,
        metric=metric,
    )
    # node 0 is fine, nodes 1 and 2 are not
    cols = [np.array([0.25, 0.75, 0.9]), 0.5]
    with pytest.raises(MetricError, match=f"not {what} at node 1, x = \\[0.75, 0.5\\]"):
        chart.jet1(cols)


def _count_passes_and_lus(monkeypatch):
    """Lists that grow by one per derivative pass started and per LU run."""
    passes, lus = [], []
    fresh_tag, lu_nopivot = ops.fresh_tag, la.lu_nopivot

    def counting_tag():
        passes.append(None)
        return fresh_tag()

    def counting_lu(*args):
        lus.append(None)
        return lu_nopivot(*args)

    monkeypatch.setattr(ops, "fresh_tag", counting_tag)
    monkeypatch.setattr(la, "lu_nopivot", counting_lu)
    return passes, lus


def test_reading_g_at_a_dual_point_runs_no_lu_and_no_pass(monkeypatch):
    """A caller that reads only g at a dual point gets one metric evaluation,
    and neither an LU nor a derivative pass runs there."""
    sc = warped_torus()
    calls = []

    def counting(z):
        calls.append(z)
        return sc.chart.metric(z)

    chart = dataclasses.replace(sc.chart, metric=counting)
    passes, lus = _count_passes_and_lus(monkeypatch)

    def read_g_twice(z):
        assert chart.jet1(z).g is chart.jet1(z).g
        return chart.jet1(z).g

    value, _ = partials(read_g_twice, [0.3, 1.1])
    assert len(calls) == 1
    assert len(passes) == 1  # the pass of partials itself
    assert lus == []
    assert np.array_equal(np.array(value), np.array(sc.chart.metric([0.3, 1.1])))


def test_dual_point_jet_runs_its_derivative_pass_on_the_first_read_of_dg(monkeypatch):
    """Inside a pass, g and g_inv of the jet at the pass's point start no
    derivative pass; the first read of dg starts one, a second read none."""
    sc = hopf_contact_s3()
    passes, _ = _count_passes_and_lus(monkeypatch)
    started = []

    def field(z):
        before = len(passes)
        jet = sc.chart.jet1(z)
        _ = (jet.g, jet.g_inv)
        started.append(len(passes) - before)
        dg = jet.dg
        started.append(len(passes) - before)
        assert jet.dg is dg
        started.append(len(passes) - before)
        return dg

    partials(field, [0.4, -0.3, 1.2])
    assert started == [0, 1, 1]


def test_a_batch_jet_goes_with_its_batch():
    """The jet lives on its point and holds no reference back to it, so
    dropping the batch frees the jet at once, with no garbage collection."""
    sc = hopf_contact_s3()
    cols = point_columns(sc.sample_points(np.random.default_rng(5), 8))
    jet = sc.chart.jet1(cols)
    assert sc.chart.jet1(cols) is jet
    assert len(jet.gamma) == 3
    ref = weakref.ref(jet)
    gc.disable()
    try:
        del jet, cols
        assert ref() is None
    finally:
        gc.enable()


def test_one_point_under_two_charts_gets_each_charts_metric():
    """A point keeps the jet of its first chart; a lookup under another
    chart gets that chart's g, and the kept jet stays the first chart's."""
    charts = (hopf_contact_s3().chart, conformal_hopf().chart)
    x = Point((0.4, -0.3, 1.2))
    first = charts[0].jet1(x)
    for chart in charts + charts:
        jet = chart.jet1(x)
        assert jet.chart is chart
        assert np.array_equal(np.array(jet.g), np.array(chart.metric([0.4, -0.3, 1.2])))
    assert charts[0].jet1(x) is first
    assert not np.allclose(np.array(charts[0].jet1(x).g), np.array(charts[1].jet1(x).g))
