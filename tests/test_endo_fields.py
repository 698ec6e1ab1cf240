"""Adjoints, pair adaptedness, first-order compatibility forms, PSD roots."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import distpair.linalg as la
from distpair import cli
from distpair.endo_fields import adjoint_field, allowed_forms, check_pair
from distpair.identity import reduce_record
from distpair.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    build_scenario,
    conformal_hopf,
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    non_allowed_rotated,
    probe_pair,
    scaled_identity,
    warped_torus,
)
from oracles import NotPositiveSemidefinite, sqrt_psd


def test_adjoint_closed_form():
    def metric(_z):
        return [[1.0, 0.0], [0.0, 4.0]]

    def P(_z):
        return [[0.0, 1.0], [0.0, 0.0]]

    from distpair.chart_geometry import Chart

    chart = Chart(dim=2, metric=metric)
    ps = adjoint_field(chart, P)([0.2, 0.3])
    assert np.allclose(np.array(ps), [[0.0, 0.0], [0.25, 0.0]], atol=1e-15)


def test_adjoint_pairing_identity():
    sc = warped_torus()
    rng = np.random.default_rng(21)

    def P(z):
        import distpair.dual as ops

        f = ops.sin(z[0])
        return [[1.0, f], [0.0, 2.0 + ops.cos(z[1])]]

    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        g = sc.chart.jet1(x).g
        ps = adjoint_field(sc.chart, P)(x)
        u = list(rng.normal(size=2))
        v = list(rng.normal(size=2))
        lhs = la.bilinear(g, la.mat_vec(P(x), u), v)
        rhs = la.bilinear(g, u, la.mat_vec(ps, v))
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize(
    "builder",
    [
        lambda: flat_torus_projectors(),
        warped_torus,
        scaled_identity,
        einstein_s3xt2,
        hopf_contact_s3,
    ],
)
def test_check_pair_on_adapted_scenarios(builder):
    sc = builder()
    rng = np.random.default_rng(31)
    record = check_pair(sc.pair, sc.chart, sc.sample_columns(rng, 20))
    # a structurally zero product is the float 0.0; every other term is per node
    shapes = [np.shape(ident.terms[0][2]) for ident in record.values()]
    assert np.broadcast_shapes((20,), *shapes) == (20,)
    assert cli.run_pair(sc, 20, 31, 1e-6)[2] == 20  # the samples of the report
    assert reduce_record(record)[1] < 1e-10


def test_rotated_pair_is_adapted_but_not_allowed():
    sc = non_allowed_rotated()
    rng = np.random.default_rng(33)
    record = check_pair(sc.pair, sc.chart, sc.sample_columns(rng, 20))
    assert reduce_record(record)[1] < 1e-10  # adaptedness survives the rotation

    worst = 0.0
    for _ in range(20):
        x = sc.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=2))
        vy = list(rng.normal(size=2))
        _, norm = reduce_record(allowed_forms(sc.pair, sc.chart, x, vx, vy))
        worst = max(worst, norm)
    assert worst > 1e-3  # the derivative forms detect the failure


@pytest.mark.parametrize("builder", [warped_torus, einstein_s3xt2, hopf_contact_s3])
def test_allowed_residual_vanishes_on_allowed_pairs(builder):
    sc = builder()
    rng = np.random.default_rng(35)
    dim = sc.chart.dim
    for _ in range(8):
        x = sc.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=dim))
        vy = list(rng.normal(size=dim))
        max_abs, _ = reduce_record(allowed_forms(sc.pair, sc.chart, x, vx, vy))
        assert max_abs < 1e-10


def test_product_norms_report_scale():
    sc = scaled_identity()  # doubled warped-torus projectors
    x = [0.4, 0.8]
    record = check_pair(sc.pair, sc.chart, x)
    norms = {key: ident.terms[0][2] for key, ident in record.items()}
    defects = [norms.pop("p1"), norms.pop("p2")]  # the pair is advertised self-adjoint
    assert all(ident.scale == record["p1"].scale for ident in record.values())
    assert abs(record["p1"].scale - 4.0) < 1e-12  # |P1|_F = |P2|_F = 2
    assert len(norms) == 4 and max(norms.values()) < 1e-12
    assert max(defects) < 1e-12


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_check_pair_evaluates_each_member_once(name):
    sc = build_scenario(name)
    calls = {"p1": 0, "p2": 0}

    def counted(key, member):
        def fld(z):
            calls[key] += 1
            return member(z)

        return fld

    pair = dataclasses.replace(
        sc.pair, p1=counted("p1", sc.pair.p1), p2=counted("p2", sc.pair.p2)
    )
    check_pair(pair, sc.chart, sc.sample_columns(np.random.default_rng(3), 4))
    assert calls == {"p1": 1, "p2": 1}


def test_swapped_pair_exchanges_its_members():
    pair = hopf_contact_s3().pair
    swapped = pair.swapped()
    assert (swapped.p1, swapped.p2) == (pair.p2, pair.p1)
    twice = swapped.swapped()
    assert twice.p1 is pair.p1 and twice.p2 is pair.p2
    assert twice == pair


@pytest.mark.parametrize(
    "builder",
    [*SCENARIOS.values(), non_allowed_rotated, conformal_hopf],
    ids=lambda b: b.__name__,
)
def test_probe_pair_is_symmetric_in_the_members(builder):
    """The evidence of a pair and of its swap agree, which is why
    ``swapped`` keeps the flags."""
    sc = builder()
    swapped = dataclasses.replace(sc, pair=sc.pair.swapped())
    assert probe_pair(swapped) == probe_pair(sc)


def test_sqrt_psd_diagonal_and_random():
    assert np.allclose(
        np.array(sqrt_psd([[4.0, 0.0], [0.0, 9.0]])), [[2.0, 0.0], [0.0, 3.0]]
    )
    rng = np.random.default_rng(40)
    g = [[2.0, 0.3], [0.3, 1.0]]
    a = rng.normal(size=(2, 2))
    # build a g-self-adjoint PSD operator: S = A A^* (adjoint w.r.t. g)
    ginv = np.linalg.inv(g)
    astar = ginv @ a.T @ np.array(g)
    s = a @ astar
    r = np.array(sqrt_psd([[float(v) for v in row] for row in s], g=g))
    assert np.allclose(r @ r, s, atol=1e-10)
    # the root is itself g-self-adjoint
    rstar = ginv @ r.T @ np.array(g)
    assert np.allclose(r, rstar, atol=1e-10)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        sqrt_psd([[1.0, 0.0], [0.0, -0.5]])
