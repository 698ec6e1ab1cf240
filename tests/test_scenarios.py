"""Scenario construction: advertised flags, anchors, samplers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import distpair.dual as ops
import distpair.linalg as la
from distpair.chart_geometry import cov_at, div_vector
from distpair.dual import directional
from distpair import scenarios
from distpair.cli import cmd_verify
from distpair.quadrature import Axis, _chunk_nodes
from distpair.scenarios import (
    SCENARIO_NAMES,
    _cross_product_endo,
    _s3_e1,
    _s3_frame,
    _s3_half,
    _unit_field_projectors,
    build_scenario,
    conformal_hopf,
    einstein_a1,
    einstein_factor,
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    non_allowed_rotated,
    probe_pair,
    random_scalar_field,
    random_vector_field,
    scaled_identity,
    warped_torus,
)
from oracles import einstein_tensor, sqrt_psd


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_construction_probe_supports_advertised_flags(name):
    sc = build_scenario(name)
    ev = probe_pair(sc)
    assert ev["adapted"] < 1e-8
    if sc.pair.self_adjoint:
        assert ev["self_adjoint"] < 1e-8
    if sc.pair.allowed:
        assert ev["allowed"] < 1e-8
    if sc.pair.div_pp_star_zero:
        assert ev["div_pp_star"] < 1e-8
    if sc.pair.div_p_squared_zero:
        assert ev["div_p_squared"] < 1e-8


@pytest.mark.parametrize(
    "build",
    [lambda name=name: build_scenario(name) for name in SCENARIO_NAMES]
    + [conformal_hopf, non_allowed_rotated],
    ids=list(SCENARIO_NAMES) + ["conformal-hopf", "non-allowed-rotated"],
)
def test_building_a_scenario_runs_no_derivative_pass(build):
    a = ops.fresh_tag()
    build()
    assert ops.fresh_tag() == a + 1


def test_registry_builds_each_scenario_under_its_name():
    # the order is the CLI's --scenario choices
    assert SCENARIO_NAMES == (
        "flat-torus", "scaled-identity", "warped-torus", "einstein-s3xt2", "hopf-s3"
    )
    for name in SCENARIO_NAMES:
        assert build_scenario(name).name == name
    with pytest.raises(KeyError):
        build_scenario("no-such-scenario")


def test_rotated_pair_flags():
    sc = non_allowed_rotated()
    assert probe_pair(sc)["adapted"] < 1e-10
    assert not sc.pair.allowed and not sc.pair.self_adjoint


def test_einstein_block_coefficient_anchors():
    assert abs(einstein_a1(math.pi / 2) - math.sqrt(1.25)) < 1e-14
    assert abs(einstein_a1(0.0)) < 1e-14
    rng = np.random.default_rng(7)
    for u in rng.uniform(0, 2 * math.pi, size=6):
        assert abs(einstein_a1(u) ** 2 + einstein_factor(u)) < 1e-13


def test_einstein_block_coefficient_is_smooth_at_its_zero():
    # the signed root sin(u) c(u) has slope c(0) = sqrt(6) on both sides of
    # u = 0; |sin u| c(u) would jump from -sqrt(6) to +sqrt(6)
    for u in (-1e-9, 0.0, 1e-9):
        slope = directional(lambda z: einstein_a1(z[0]), [u], [1.0])[1]
        assert abs(slope - math.sqrt(6.0)) < 1e-6


def test_einstein_pair_is_psd_root_of_minus_einstein_tensor():
    # the pair is the PSD root where sin u >= 0, so u is drawn in (0, pi)
    sc = einstein_s3xt2()
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = sc.sample_points(rng, 1)[0]
        x[3] = float(rng.uniform(0.0, math.pi))
        E = einstein_tensor(sc.chart, x)
        minus_e = [[-v for v in row] for row in E]
        g = sc.chart.jet1(x).g
        root = sqrt_psd(minus_e, g=g)
        total = sc.pair.total()(x)
        assert np.allclose(np.array(root), np.array(total), atol=1e-8)


def test_hopf_field_is_unit_geodesic_divergence_free():
    sc = hopf_contact_s3()
    xi = sc.extras["xi"]
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        g = sc.chart.jet1(x).g
        v = xi(x)
        assert abs(la.bilinear(g, v, v) - 1.0) < 1e-12
        acc = cov_at(sc.chart, x, v, xi)
        assert la.bilinear(g, acc, acc) < 1e-20
        assert abs(div_vector(sc.chart, xi, x)) < 1e-12


def test_hopf_projectors_read_g_without_an_lu_or_a_pass(monkeypatch):
    """eta reads only g, so differentiating the projectors evaluates the
    metric once at the pass's dual point and runs no LU and no derivative
    pass there; the real batch's jet still validates g with its one LU."""
    sc = hopf_contact_s3()
    cols = sc.sample_columns(np.random.default_rng(12), 5)
    calls, passes, lus = [], [], []
    metric, fresh_tag, lu_nopivot = sc.chart.metric, ops.fresh_tag, la.lu_nopivot

    def counting_metric(z):
        calls.append(any(isinstance(c, ops.Dual) for c in z))
        return metric(z)

    def counting_tag():
        passes.append(None)
        return fresh_tag()

    def counting_lu(*args):
        lus.append(None)
        return lu_nopivot(*args)

    monkeypatch.setitem(vars(sc.chart), "metric", counting_metric)  # Chart is frozen
    monkeypatch.setattr(ops, "fresh_tag", counting_tag)
    monkeypatch.setattr(la, "lu_nopivot", counting_lu)
    value, _ = directional(sc.pair.p2, cols, [1.0, 0.0, 0.0])
    assert (calls, len(passes), len(lus)) == ([True], 1, 0)  # the directional pass only
    assert la.nested_to_array(value, 5).tobytes() == la.nested_to_array(sc.pair.p2(cols), 5).tobytes()
    assert (calls, len(passes), len(lus)) == ([True, False], 1, 1)


def test_quarter_turn_endo_is_conformally_invariant():
    base = hopf_contact_s3()
    conf = conformal_hopf()
    rng = np.random.default_rng(10)
    for _ in range(5):
        x = base.sample_points(rng, 1)[0]
        pb = np.array(base.extras["phi"](x), dtype=float)
        pc = np.array(conf.extras["phi"](x), dtype=float)
        assert np.abs(pb - pc).max() < 1e-12


def test_conformal_field_is_not_geodesic():
    conf = conformal_hopf()
    xi = conf.extras["xi"]
    rng = np.random.default_rng(11)
    worst_acc = worst_div = 0.0
    for _ in range(6):
        x = conf.sample_points(rng, 1)[0]
        g = conf.chart.jet1(x).g
        v = xi(x)
        assert abs(la.bilinear(g, v, v) - 1.0) < 1e-12  # still unit length
        acc = cov_at(conf.chart, x, v, xi)
        worst_acc = max(worst_acc, math.sqrt(max(la.bilinear(g, acc, acc), 0.0)))
        worst_div = max(worst_div, abs(div_vector(conf.chart, xi, x)))
    assert worst_acc > 1e-2 and worst_div > 1e-2


def test_sampled_fields_are_differentiable_everywhere_sampled():
    rng = np.random.default_rng(12)
    for name in SCENARIO_NAMES:
        sc = build_scenario(name)
        X = random_vector_field(sc, rng)
        f = random_scalar_field(sc, rng)
        x = sc.sample_points(rng, 1)[0]
        d = cov_at(sc.chart, x, list(rng.normal(size=sc.chart.dim)), X)
        assert all(np.isfinite(float(c)) for c in d)
        df = directional(f, x, list(rng.normal(size=sc.chart.dim)))[1]
        assert np.isfinite(float(df))


def test_sample_points_respect_bounds_and_seed():
    sc = warped_torus()
    rng1 = np.random.default_rng(13)
    rng2 = np.random.default_rng(13)
    pts1 = sc.sample_points(rng1, 10)
    pts2 = sc.sample_points(rng2, 10)
    assert pts1 == pts2
    for p in pts1:
        for c, (lo, hi) in zip(p, sc.sample_bounds):
            assert lo <= c <= hi


@pytest.mark.parametrize("build", [warped_torus, hopf_contact_s3, einstein_s3xt2])
def test_sample_points_keep_the_per_coordinate_stream(build):
    """One draw of every coordinate gives the floats of one draw per
    coordinate, point by point, and leaves the generator in the same state."""
    sc = build()
    rng1 = np.random.default_rng(17)
    rng2 = np.random.default_rng(17)
    want = [[float(rng1.uniform(lo, hi)) for lo, hi in sc.sample_bounds] for _ in range(6)]
    got = sc.sample_points(rng2, 6)
    assert got == want
    assert all(type(c) is float for p in got for c in p)
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_grid_builder_broadcasts_single_count():
    sc = einstein_s3xt2()
    grid = sc.grid(6)
    assert grid.counts == (6, 6, 6, 6, 6)
    grid = sc.grid((8, 8, 8, 4, 4))
    assert grid.counts == (8, 8, 8, 4, 4)


_PERIODIC = Axis("periodic", 0.0, 2.0 * math.pi)
_ANGULAR = (Axis("legendre", 0.0, math.pi), Axis("legendre", 0.0, math.pi), _PERIODIC)
# Nodes 0, n // 2 and n - 1 of grid(3) as (chart coordinates, weight), then
# the sum of all n weights.
_TORUS_NODES = (
    [
        ([1.0471975511965976, 1.0471975511965976], 4.386490844928603),
        ([3.141592653589793, 3.141592653589793], 4.386490844928603),
        ([5.235987755982988, 5.235987755982988], 4.386490844928603),
    ],
    39.478417604357425,
)
_S3_COORDS = [
    [0.031014067488463307, 0.05371794063938852, 0.16780714146887993],
    [-0.9999999999999999, 1.224646799147353e-16, 6.123233995736765e-17],
    [0.9689859325115354, -1.6783328669294897, -5.242871142870998],
]
_TORUS = ((_PERIODIC,) * 2, ((0.0, 2.0 * math.pi),) * 2, _TORUS_NODES)
_S3 = (
    _ANGULAR,
    ((-2.0, 2.0),) * 3,
    (
        list(zip(_S3_COORDS, [0.00913303749711027, 4.083131085471579, 278.5425032544137])),
        5545.2393880552045,
    ),
)
_S3XT2 = (
    _ANGULAR + (_PERIODIC,) * 2,
    ((-2.0, 2.0),) * 3 + ((0.0, 2.0 * math.pi),) * 2,
    (
        [
            (x + [t, t], w)
            for x, t, w in zip(
                _S3_COORDS,
                [1.0471975511965976, 3.141592653589793, 5.235987755982988],
                [0.040061985367463845, 17.91061712506447, 1221.8241404489813],
            )
        ],
        218917.27627777483,
    ),
)


@pytest.mark.parametrize(
    "build,layout",
    [
        pytest.param(build, layout, id=build.__name__)
        for build, layout in [
            (flat_torus_projectors, _TORUS),
            (warped_torus, _TORUS),
            (scaled_identity, _TORUS),
            (non_allowed_rotated, _TORUS),
            (einstein_s3xt2, _S3XT2),
            (hopf_contact_s3, _S3),
            (conformal_hopf, _S3),
        ]
    ],
)
def test_quadrature_and_sampling_layout(build, layout):
    axes, bounds, (nodes, weight_sum) = layout
    sc = build()
    assert sc.quad_axes == axes
    assert sc.sample_bounds == bounds
    grid = sc.grid(3)
    cols, wts = next(_chunk_nodes(grid, grid.total_nodes))
    n = grid.total_nodes
    for i, (x, w) in zip((0, n // 2, n - 1), nodes):
        np.testing.assert_allclose([c[i] for c in cols], x, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(wts[i], w, rtol=1e-14)
    np.testing.assert_allclose(np.sum(wts), weight_sum, rtol=1e-14)


def _nan_p1_pair(sc):
    nan = float("nan")
    return dataclasses.replace(sc.pair, p1=lambda _z: [[nan, nan], [nan, nan]])


def test_probe_propagates_nan_evidence():
    # builtin max(0.0, nan) is 0.0; an all-NaN P1 must not read as evidence
    sc = warped_torus()
    sc = dataclasses.replace(sc, pair=_nan_p1_pair(sc))
    ev = probe_pair(sc)
    for key in ("adapted", "self_adjoint", "allowed"):
        assert math.isnan(ev[key]), (key, ev[key])


def _bits(obj, n_nodes):
    return la.nested_to_array(obj, n_nodes).tobytes()


def _float_columns_and_dual_values(f, sc):
    """f at a float point, at a column batch, and the parts of a directional
    and a second-order pass, each as bytes."""
    rng = np.random.default_rng(21)
    x = sc.sample_points(rng, 1)[0]
    cols = sc.sample_columns(rng, 4)
    v = list(rng.normal(size=len(x)))
    out = [_bits(f(x), 1), _bits(f(cols), 4)]
    out += [_bits(part, 1) for part in directional(f, x, v)]
    val, d, d2 = ops.second_partials(f, cols)
    out += [_bits(val, 4), _bits(d, 4), _bits(d2, 4)]
    return out


def test_hopf_e1_equals_first_frame_vector_bit_for_bit():
    sc = hopf_contact_s3()
    e1 = _float_columns_and_dual_values(lambda z: _s3_e1(z, _s3_half(z)), sc)
    frame = _float_columns_and_dual_values(lambda z: _s3_frame(z)[0], sc)
    assert e1 == frame
    assert _float_columns_and_dual_values(sc.extras["xi"], sc) == frame


@pytest.mark.parametrize("strength", [0.0, 0.3])
def test_each_projector_call_evaluates_xi_once(strength):
    sc = hopf_contact_s3() if strength == 0.0 else conformal_hopf()
    xi, calls = sc.extras["xi"], []

    def counting_xi(z):
        calls.append(None)
        return xi(z)

    p1, p2 = _unit_field_projectors(sc.chart, counting_xi)
    rng = np.random.default_rng(22)
    x = sc.sample_points(rng, 1)[0]
    cols = sc.sample_columns(rng, 3)
    for p in (p1, p2):
        for evaluate in (
            lambda: p(x),
            lambda: p(cols),
            lambda: directional(p, cols, [0.0, 1.0, 0.0]),
            lambda: ops.second_partials(p, x),
        ):
            calls.clear()
            evaluate()
            # a second-order pass evaluates the field once, at its nested point
            assert len(calls) == 1


def _calls_per_evaluation(monkeypatch, name, make, helper):
    """How often one evaluation of a random field on scenario ``name`` calls
    ``scenarios.<helper>``: at a float point, a column batch, and in a first-
    and a second-order pass."""
    sc = build_scenario(name)
    fld = make(sc, np.random.default_rng(23))
    calls, inner = [], getattr(scenarios, helper)

    def counting(z):
        calls.append(None)
        return inner(z)

    monkeypatch.setattr(scenarios, helper, counting)
    rng = np.random.default_rng(24)
    x = sc.sample_points(rng, 1)[0]
    cols = sc.sample_columns(rng, 3)
    counts = []
    for evaluate in (
        lambda: fld(x),
        lambda: fld(cols),
        lambda: ops.partials(fld, cols),
        lambda: ops.second_partials(fld, x),
    ):
        calls.clear()
        evaluate()
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("name", ["hopf-s3", "einstein-s3xt2"])
@pytest.mark.parametrize("make", [random_scalar_field, random_vector_field])
def test_random_sphere_fields_embed_each_point_once(monkeypatch, name, make):
    assert _calls_per_evaluation(monkeypatch, name, make, "_sphere_coords") == [1] * 4


@pytest.mark.parametrize(
    "name, calls",
    [("flat-torus", 1), ("warped-torus", 1), ("hopf-s3", 0), ("einstein-s3xt2", 1)],
)
@pytest.mark.parametrize("make", [random_scalar_field, random_vector_field])
def test_random_fields_build_one_trig_basis_per_point(monkeypatch, name, make, calls):
    # every trig coefficient of a field, five on the einstein-s3xt2 vector
    # field, reads the one basis of its point's angles
    assert _calls_per_evaluation(monkeypatch, name, make, "_trig_basis") == [calls] * 4


def _expanded_sphere_terms(seed, scale):
    """The terms of the quadratic that ``_sphere_scalar`` draws from
    ``seed``, written out: lin_0, lin_{i+1} q_i and Q_ij q_i q_j, as a field
    of the chart point (the reference for the Horner form)."""
    rng = np.random.default_rng(seed)
    lin = rng.normal(size=(5,)) * scale
    quad = rng.normal(size=(4, 4)) * (0.5 * scale)

    def terms(z):
        q = scenarios._sphere_coords(z)
        return (
            [lin[0]]
            + [lin[i + 1] * q[i] for i in range(4)]
            + [quad[i][j] * q[i] * q[j] for i in range(4) for j in range(4)]
        )

    return terms


@pytest.mark.parametrize("scale", [1.0, 0.6])
def test_horner_sphere_scalar_matches_the_expanded_quadratic(scale):
    f = scenarios._sphere_scalar(np.random.default_rng(26), scale)
    cols = hopf_contact_s3().sample_columns(np.random.default_rng(27), 64)
    val, d = ops.partials(lambda z: f(scenarios._sphere_coords(z)), cols)
    ref_val, ref_d = ops.partials(_expanded_sphere_terms(26, scale), cols)
    # the value, then each first partial, against the sum of its terms
    for got, terms in [(val, ref_val)] + list(zip(d, ref_d)):
        terms = np.broadcast_arrays(*terms)
        size = sum(np.abs(t) for t in terms)
        assert np.all(size > 0.0)
        assert np.all(np.abs(got - sum(terms)) <= 1e-13 * size)


def test_sphere_scalar_multiplies_four_pairs_of_duals(monkeypatch):
    f = scenarios._sphere_scalar(np.random.default_rng(26))
    pairs, per_call, mul = [], [], ops.Dual.__mul__

    def counting_mul(a, b):
        if isinstance(a, ops.Dual) and isinstance(b, ops.Dual):
            pairs.append(None)
        return mul(a, b)

    def field(z):
        q = scenarios._sphere_coords(z)
        pairs.clear()  # count the scalar's products, not the embedding's
        out = f(q)
        per_call.append(len(pairs))
        return out

    monkeypatch.setattr(ops.Dual, "__mul__", counting_mul)
    monkeypatch.setattr(ops.Dual, "__rmul__", counting_mul)
    rng = np.random.default_rng(28)
    sc = hopf_contact_s3()
    directional(field, sc.sample_points(rng, 1)[0], [0.3, -1.0, 0.5])
    ops.partials(field, sc.sample_columns(rng, 5))
    # one product q_i (lin_{i+1} + ...) per coordinate, not one per (i, j)
    assert per_call == [4, 4]


def test_quarter_turn_endo_multiplies_no_structural_zero(monkeypatch):
    sc = hopf_contact_s3()
    phi, xi, chart = sc.extras["phi"], sc.extras["xi"], sc.chart

    def scaled_everywhere(z):
        """phi with sqrt(det g) multiplied into every entry, zeros too."""
        jet = chart.jet1(z)
        cross = [la.mat_vec(la.transpose(e), xi(z)) for e in scenarios._EPS3]
        return la.mat_scale(jet.sqrt_det, la.mat_mul(jet.g_inv, cross))

    # equal values; a skipped zero may differ in sign (0.0 for -0.0)
    for got, want in zip(
        _float_columns_and_dual_values(phi, sc),
        _float_columns_and_dual_values(scaled_everywhere, sc),
    ):
        assert np.array_equal(np.frombuffer(got), np.frombuffer(want))
    zeros, mul = [], ops.Dual.__mul__

    def counting_mul(a, b):
        if type(b) is float and b == 0.0:
            zeros.append(None)
        return mul(a, b)

    monkeypatch.setattr(ops.Dual, "__mul__", counting_mul)
    monkeypatch.setattr(ops.Dual, "__rmul__", counting_mul)
    directional(scaled_everywhere, sc.sample_points(np.random.default_rng(25), 1)[0], [1.0, 0.0, 0.0])
    assert zeros  # the count sees the products skipped below
    zeros.clear()
    (report,) = cmd_verify(sc, ["contact"], 40, 42, 1e-6)
    assert report["pass"]
    assert zeros == []


def test_contact_fails_on_a_nan_entry_of_xi():
    sc = hopf_contact_s3()
    xi = sc.extras["xi"]

    def nan_xi(z):
        v = xi(z)
        return [v[0], v[1], v[2] * math.nan]

    extras = {"xi": nan_xi, "phi": _cross_product_endo(sc.chart, nan_xi)}
    (report,) = cmd_verify(dataclasses.replace(sc, extras=extras), ["contact"], 8, 5, 1e-6)
    assert math.isnan(report["max_normalized"])
    assert report["pass"] is False
