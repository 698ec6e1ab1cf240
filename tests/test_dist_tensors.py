"""Structural tensors, the curvature identity, divergences, invariants."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import distpair.dual as ops
import distpair.linalg as la
import distpair.chart_geometry as cg
import distpair.cli as cli
import distpair.dist_tensors as dt
from distpair.chart_geometry import (
    cov_at,
    cov_deriv_vector,
    div_vector,
    lie_bracket,
    nabla_field,
    point_columns,
)
from distpair.dist_tensors import (
    as_field,
    codazzi_residual,
    contact_identity_residual,
    contact_structure_residuals,
    dist_invariants_batch,
    div_p,
    field_b2,
    field_check_b2,
    field_hat_b2,
    formula_record,
    collapse_residual,
    curvature_term,
    mean_curvature_field,
    div_equivalence_residuals,
    pp_star_field,
    trace_identity_residuals,
    tsr_tensors,
    walczak_residual_batch,
)
from distpair.cli import run_walczak
from distpair.dual import partials, second_partials
from distpair.endo_fields import (
    EndoPair,
    adjoint_field,
    adjoint_matrix,
    allowed_forms,
    apply_endo,
)
from distpair.identity import RHS, reduce_record, residual, side_sum
from distpair.quadrature import _chunk_nodes, formula_chunk
from distpair.scenarios import (
    SCENARIO_NAMES,
    ScenarioManifold,
    _trig_basis,
    _trig_scalar,
    build_scenario,
    conformal_hopf,
    einstein_s3xt2,
    flat_torus_projectors,
    hopf_contact_s3,
    non_allowed_rotated,
    random_scalar_field,
    random_vector_field,
    scaled_identity,
    warped_torus,
)
from oracles import b_tensors, riemann, riemann_up


def gnorm(g, v):
    return np.sqrt(np.maximum(la.bilinear(g, v, v), 0.0))


def normalized(ident):
    """An identity's residual over its normalizer, per node."""
    return residual(ident) / ident.normalizer(ident)


def form(ident):
    """A two-term vector identity's lhs - rhs, the form itself."""
    ((_, lhs_side, lhs), (_, rhs_side, rhs)) = ident.terms
    assert (lhs_side, rhs_side) == ("lhs", "rhs")
    return la.vec_sub(lhs, rhs)

ALL_SCENARIOS = (
    "flat-torus",
    "scaled-identity",
    "warped-torus",
    "einstein-s3xt2",
    "hopf-s3",
)

# the engine's outputs: the seven terms of the integral formula
FORMULA_TERMS = ("smix", "norm_h1", "norm_h2", "norm_t1", "norm_t2", "norm_H1", "norm_H2")


# -- structural tensors -------------------------------------------------------


def test_b_tensors_warped_torus_closed_form():
    sc = warped_torus()
    rng = np.random.default_rng(50)
    for _ in range(4):
        u, v = rng.uniform(0, 2 * math.pi, size=2)
        X = list(rng.normal(size=2))
        Y = list(rng.normal(size=2))
        bt = b_tensors(sc.pair, sc.chart, [float(u), float(v)], X, Y)
        wprime = math.cos(u)
        # orthoprojector pair: the three index-2 tensors coincide and equal
        # (0, w' X^u Y^v); the index-1 family vanishes identically
        want2 = [0.0, wprime * X[0] * Y[1]]
        for key in ("b2", "hat_b2", "check_b2"):
            assert np.allclose(bt[key], want2, atol=1e-12), key
        for key in ("b1", "hat_b1", "check_b1"):
            assert np.allclose(bt[key], [0.0, 0.0], atol=1e-12), key


def test_b2_at_origin_matches_hand_value():
    sc = warped_torus()
    bt = b_tensors(sc.pair, sc.chart, [0.0, 0.7], [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(bt["b2"], [0.0, 1.0], atol=1e-14)


def paper_b_tensors(pair, chart, x, X, Y):
    """The six structural tensors at x on constant X, Y, each written out
    from its definition; index-1 tensors take (Y, X), index-2 ones (X, Y)."""
    p1, p2 = pair.p1, pair.p2
    p1s, p2s = adjoint_field(chart, p1), adjoint_field(chart, p2)

    def outer(endo, v):
        return la.mat_vec(endo(x), v)

    def slot(direction, along, field, moved):
        return cov_at(chart, x, la.mat_vec(direction(x), along), apply_endo(field, as_field(moved)))

    return {
        # B1(Y, X) = P1^* nabla_{P1 X}(P2 Y),  B2(X, Y) = P2^* nabla_{P2 Y}(P1 X)
        "b1": outer(p1s, slot(p1, X, p2, Y)),
        "b2": outer(p2s, slot(p2, Y, p1, X)),
        # hat B1(Y, X) = P1 nabla_{P1^* X}(P2^* Y),  hat B2(X, Y) = P2 nabla_{P2^* Y}(P1^* X)
        "hat_b1": outer(p1, slot(p1s, X, p2s, Y)),
        "hat_b2": outer(p2, slot(p2s, Y, p1s, X)),
        # check B1(Y, X) = P1 nabla_{P1 X}(P2^* Y),  check B2(X, Y) = P2 nabla_{P2 Y}(P1^* X)
        "check_b1": outer(p1, slot(p1, X, p2s, Y)),
        "check_b2": outer(p2, slot(p2, Y, p1s, X)),
    }


@pytest.mark.parametrize("which", ["hopf-s3", "rotated"])
def test_b_tensors_match_their_definitions(which):
    """Every structural tensor, slot order included, on pairs where the
    index-1 family is non-zero: on hopf-s3 it is the only non-zero family,
    on the rotated pair every tensor but hat B1 is non-zero."""
    sc = hopf_contact_s3() if which == "hopf-s3" else non_allowed_rotated()
    rng = np.random.default_rng(59)
    dim = sc.chart.dim
    big = {}
    for _ in range(4):
        x = sc.sample_points(rng, 1)[0]
        X, Y = [list(rng.normal(size=dim)) for _ in range(2)]
        got = b_tensors(sc.pair, sc.chart, x, X, Y)
        want = paper_b_tensors(sc.pair, sc.chart, x, X, Y)
        assert list(got) == ["b1", "b2", "hat_b1", "hat_b2", "check_b1", "check_b2"]
        for key, vec in want.items():
            assert np.allclose(got[key], vec, rtol=1e-12, atol=1e-12), key
            big[key] = max(big.get(key, 0.0), float(np.max(np.abs(vec))))
    if which == "hopf-s3":
        for key in ("b1", "hat_b1", "check_b1"):
            assert big[key] > 0.1, key
        for key in ("b2", "hat_b2", "check_b2"):
            assert big[key] < 1e-12, key
    else:
        assert big.pop("hat_b1") < 1e-12
        assert all(v > 0.1 for v in big.values()), big


def five_terms(pair, chart, x, *args):
    """tsr_tensors' four terms and the curvature term rp, in one dict."""
    return {**tsr_tensors(pair, chart, x, *args), "rp": curvature_term(pair, chart, x, *args)}


def test_structural_tensors_are_tensorial_for_allowed_pair():
    sc = warped_torus()
    rng = np.random.default_rng(51)

    def f(z):
        return 1.0 + 0.5 * ops.sin(z[0]) * ops.cos(z[1])

    x = sc.sample_points(rng, 1)[0]
    args = [list(rng.normal(size=2)) for _ in range(4)]
    base = five_terms(sc.pair, sc.chart, x, *args)
    fx = f(x)
    for slot in range(4):
        mod = list(args)
        const = mod[slot]
        mod[slot] = lambda z, c=const: la.vec_scale(f(z), c)
        scaled = five_terms(sc.pair, sc.chart, x, *mod)
        for key in base:
            assert abs(scaled[key] - fx * base[key]) < 1e-12, (slot, key)


def test_tensoriality_fails_without_allowedness():
    sc = non_allowed_rotated()
    rng = np.random.default_rng(52)

    def f(z):
        return 1.0 + 0.5 * ops.sin(z[0]) * ops.cos(z[1])

    worst = 0.0
    for _ in range(3):
        x = sc.sample_points(rng, 1)[0]
        args = [list(rng.normal(size=2)) for _ in range(4)]
        base = five_terms(sc.pair, sc.chart, x, *args)
        fx = f(x)
        for slot in range(4):
            mod = list(args)
            const = mod[slot]
            mod[slot] = lambda z, c=const: la.vec_scale(f(z), c)
            scaled = five_terms(sc.pair, sc.chart, x, *mod)
            worst = max(
                worst, max(abs(scaled[k] - fx * base[k]) for k in base)
            )
    assert worst > 1e-3


# -- unconditional compatibility identities -----------------------------------


def test_unconditional_identities_hold_for_any_adapted_pair():
    """Four pairings between the first-order forms and the structural tensors
    that hold for every adapted pair, allowed or not."""
    sc = non_allowed_rotated()
    chart, pair = sc.chart, sc.pair
    rng = np.random.default_rng(55)
    for _ in range(8):
        x = sc.sample_points(rng, 1)[0]
        X, Y, Z = [list(rng.normal(size=2)) for _ in range(3)]
        g = chart.jet1(x).g
        forms = {key: form(ident) for key, ident in allowed_forms(pair, chart, x, Y, Z).items()}
        xf, yf = as_field(X), as_field(Y)

        hat2 = field_hat_b2(chart, pair, xf, apply_endo(pair.p2, yf))(x)
        chk2 = field_check_b2(chart, pair, apply_endo(pair.p1, xf), yf)(x)
        p2b2 = la.mat_vec(pair.p2(x), field_b2(chart, pair, xf, yf)(x))
        assert (
            abs(
                la.bilinear(g, forms["b2_star"], X)
                - la.bilinear(g, la.vec_sub(hat2, chk2), Z)
            )
            < 1e-12
        )
        assert (
            abs(
                la.bilinear(g, forms["b2_plain"], X)
                - la.bilinear(g, la.vec_sub(p2b2, chk2), Z)
            )
            < 1e-12
        )

        # the index-1 tensors are the index-2 ones of the swapped pair
        swapped = pair.swapped()
        hat1 = field_hat_b2(chart, swapped, xf, apply_endo(pair.p1, yf))(x)
        chk1 = field_check_b2(chart, swapped, apply_endo(pair.p2, xf), yf)(x)
        p1b1 = la.mat_vec(pair.p1(x), field_b2(chart, swapped, xf, yf)(x))
        assert (
            abs(
                la.bilinear(g, forms["b1_star"], X)
                - la.bilinear(g, la.vec_sub(hat1, chk1), Z)
            )
            < 1e-12
        )
        assert (
            abs(
                la.bilinear(g, forms["b1_plain"], X)
                - la.bilinear(g, la.vec_sub(p1b1, chk1), Z)
            )
            < 1e-12
        )


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_structural_tensor_collapse_on_allowed_pairs(name):
    sc = build_scenario(name)
    rng = np.random.default_rng(57)
    dim = sc.chart.dim
    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=dim))
        vy = list(rng.normal(size=dim))
        record = collapse_residual(sc.pair, sc.chart, x, vx, vy)
        g = sc.chart.jet1(x).g
        for key, ident in record.items():
            assert gnorm(g, form(ident)) < 1e-10, key
            assert residual(ident) == gnorm(g, form(ident)), key


def test_structural_tensor_collapse_fails_on_rotated_pair():
    sc = non_allowed_rotated()
    rng = np.random.default_rng(58)
    worst = 0.0
    for _ in range(10):
        x = sc.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=2))
        vy = list(rng.normal(size=2))
        record = collapse_residual(sc.pair, sc.chart, x, vx, vy)
        g = sc.chart.jet1(x).g
        worst = max(worst, max(gnorm(g, form(ident)) for ident in record.values()))
    assert worst > 1e-3


# -- curvature identity -------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_codazzi_identity(name):
    sc = build_scenario(name)
    rng = np.random.default_rng(60)
    dim = sc.chart.dim
    for _ in range(12):
        x = sc.sample_points(rng, 1)[0]
        vecs = [list(rng.normal(size=dim)) for _ in range(4)]
        res = codazzi_residual(sc.pair, sc.chart, x, *vecs)
        assert normalized(res["codazzi"]) < 1e-10


@pytest.mark.parametrize("name", ["flat-torus", "warped-torus", "hopf-s3"])
def test_curvature_term_equals_riemann_for_projector_pairs(name):
    sc = build_scenario(name)
    rng = np.random.default_rng(61)
    dim = sc.chart.dim
    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        y, x1, x2, z = [list(rng.normal(size=dim)) for _ in range(4)]
        rp = curvature_term(sc.pair, sc.chart, x, y, x1, x2, z)
        R = riemann(sc.chart, x)
        a = la.mat_vec(sc.pair.p2(x), y)
        b = la.mat_vec(sc.pair.p1(x), x1)
        c = la.mat_vec(sc.pair.p1(x), x2)
        d = la.mat_vec(sc.pair.p2(x), z)
        want = sum(
            R[i][j][k][l] * a[i] * b[j] * c[k] * d[l]
            for i in range(dim)
            for j in range(dim)
            for k in range(dim)
            for l in range(dim)
        )
        assert abs(rp - want) < 1e-10


def rp_reduced(pair, chart, x, y, x1, x2, z_slot):
    """Curvature-type term in the reduced form valid for self-adjoint pairs:
    a second route to curvature_term, with P = P1 + P2 in place of the
    adjoints."""
    yf, x1f, x2f, zf = (as_field(v) for v in (y, x1, x2, z_slot))
    p_total = pair.total()
    p1x1 = apply_endo(pair.p1, x1f)
    p2y = apply_endo(pair.p2, yf)
    p1x2 = apply_endo(pair.p1, x2f)
    g = chart.jet1(x).g

    fld1 = apply_endo(p_total, nabla_field(chart, p1x1, p1x2))
    fld2 = apply_endo(p_total, nabla_field(chart, p2y, p1x2))
    w = la.mat_vec(p_total(x), lie_bracket(p2y, p1x1)(x))
    vec = la.vec_sub(
        la.vec_sub(cov_at(chart, x, p2y(x), fld1), cov_at(chart, x, p1x1(x), fld2)),
        cov_at(chart, x, w, p1x2),
    )
    return la.bilinear(g, la.mat_vec(pair.p2(x), vec), zf(x))


@pytest.mark.parametrize(
    "name", ["warped-torus", "scaled-identity", "hopf-s3", "einstein-s3xt2"]
)
def test_reduced_curvature_term_for_self_adjoint_pairs(name):
    sc = build_scenario(name)
    rng = np.random.default_rng(62)
    dim = sc.chart.dim
    for _ in range(4):
        x = sc.sample_points(rng, 1)[0]
        vecs = [list(rng.normal(size=dim)) for _ in range(4)]
        full = curvature_term(sc.pair, sc.chart, x, *vecs)
        red = rp_reduced(sc.pair, sc.chart, x, *vecs)
        assert abs(full - red) < 1e-9 * (1.0 + abs(full))


def test_riccati_equation_on_warped_torus():
    """One-sided case (index-1 tensors vanish): second derivative of the
    index-2 tensor along the first distribution closes against curvature."""
    sc = warped_torus()
    chart, pair = sc.chart, sc.pair
    rng = np.random.default_rng(63)
    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        X = [float(rng.normal()), 0.0]  # section of the first distribution
        Y = list(rng.normal(size=2))
        xf, yf = as_field(X), as_field(Y)
        b2_field = field_b2(chart, pair, xf, yf)

        nabla_x_x = cov_at(chart, x, X, xf)
        nabla_x_y = cov_at(chart, x, X, yf)
        deriv = la.vec_sub(
            la.vec_sub(
                cov_at(chart, x, X, b2_field),
                field_b2(chart, pair, as_field(nabla_x_x), yf)(x),
            ),
            field_b2(chart, pair, xf, as_field(nabla_x_y))(x),
        )
        b2_val = b2_field(x)
        second = field_b2(chart, pair, xf, as_field(b2_val))(x)
        Rup = riemann_up(chart, x)
        a = la.mat_vec(pair.p2(x), Y)
        b = la.mat_vec(pair.p1(x), X)
        curv = [
            sum(
                Rup[m][i][j][k] * a[i] * b[j] * b[k]
                for i in range(2)
                for j in range(2)
                for k in range(2)
            )
            for m in range(2)
        ]
        total = la.vec_add(la.vec_add(deriv, second), curv)
        assert gnorm(chart.jet1(x).g, total) < 1e-10


def test_identity_terms_scale_with_degree_five():
    base = warped_torus()
    scaled = scaled_identity()
    rng = np.random.default_rng(64)
    x = base.sample_points(rng, 1)[0]
    vecs = [list(rng.normal(size=2)) for _ in range(4)]
    pb = five_terms(base.pair, base.chart, x, *vecs)
    ps = five_terms(scaled.pair, scaled.chart, x, *vecs)
    for key in pb:
        if abs(pb[key]) > 1e-12:
            assert abs(ps[key] / pb[key] - 32.0) < 1e-9  # 2**5
        else:
            assert abs(ps[key]) < 1e-10


def test_structural_tensor_scales_with_degree_three():
    base = warped_torus()
    scaled = scaled_identity()
    rng = np.random.default_rng(65)
    x = base.sample_points(rng, 1)[0]
    X, Y = [list(rng.normal(size=2)) for _ in range(2)]
    bb = b_tensors(base.pair, base.chart, x, X, Y)["b2"]
    bs = b_tensors(scaled.pair, scaled.chart, x, X, Y)["b2"]
    assert np.allclose(np.array(bs), 8.0 * np.array(bb), atol=1e-12)


# -- modified divergence ------------------------------------------------------


def metric_div_p(p_endo, chart, vec_field, x):
    """div_P X in metric form, independent of the connection:
    Q^i_j d_i X^j + 1/2 Q^{ij} d_k g_ij X^k with Q = P P^*."""
    n = chart.dim
    jet = chart.jet1(x)
    p = p_endo(x)
    q = la.mat_mul(p, adjoint_matrix(jet.g, jet.g_inv, p))
    q_up = la.mat_mul(q, jet.g_inv)
    xv, jac = partials(vec_field, x)
    return sum(q[i][j] * jac[i][j] for i in range(n) for j in range(n)) + 0.5 * sum(
        q_up[i][j] * jet.dg[k][i][j] * xv[k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def hs_inner_with_grad(p_endo, chart, vec_field, x):
    """<P P^*, nabla X> = tr((nabla X)^* P P^*) in the trace inner product,
    which equals div_P X for every P."""
    jet = chart.jet1(x)
    q = pp_star_field(chart, p_endo)(x)
    grad_endo = la.transpose(cov_deriv_vector(chart, vec_field, x))
    grad_star = adjoint_matrix(jet.g, jet.g_inv, grad_endo)
    return la.trace(la.mat_mul(grad_star, q))


def test_div_p_two_routes_agree_even_for_nonadjoint_p():
    sc = non_allowed_rotated()
    rng = np.random.default_rng(70)

    def X(z):
        return [ops.sin(z[0] - z[1]), ops.cos(z[0]) * ops.sin(z[1])]

    for _ in range(6):
        x = sc.sample_points(rng, 1)[0]
        for p in (sc.pair.p1, sc.pair.p2, sc.pair.total()):
            tr = div_p(p, sc.chart, X, x)
            dens = metric_div_p(p, sc.chart, X, x)
            assert abs(tr - dens) < 1e-10
            assert abs(tr - hs_inner_with_grad(p, sc.chart, X, x)) < 1e-10


def test_div_p_of_full_projector_sum_is_plain_divergence():
    sc = warped_torus()
    from distpair.chart_geometry import div_vector

    def X(z):
        return [ops.cos(z[1]), ops.sin(z[0] + z[1])]

    x = [1.2, 0.8]
    assert abs(div_p(sc.pair.total(), sc.chart, X, x) - div_vector(sc.chart, X, x)) < 1e-12


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_div_equivalences_characterization(name):
    from distpair.scenarios import random_scalar_field, random_vector_field

    sc = build_scenario(name)
    rng = np.random.default_rng(71)
    X = random_vector_field(sc, rng)
    f = random_scalar_field(sc, rng)
    for _ in range(5):
        x = sc.sample_points(rng, 1)[0]
        res = div_equivalence_residuals(sc.pair.total(), sc.chart, X, x, f)
        assert residual(res.pop("div_pp_star")) < 1e-10
        assert reduce_record(res)[1] < 1e-10


def test_div_equivalence_conditional_parts_fail_without_divergence_free_q():
    """P = f * id is adapted to nothing special: div(P P^*) != 0, and the
    conditional identities miss by exactly the predicted defect."""
    ft = flat_torus_projectors()

    def f(z):
        return 2.0 + ops.sin(z[0]) * ops.cos(z[1])

    def p_endo(z):
        s = f(z)
        return [[s, 0.0], [0.0, s]]

    def X(z):
        return [ops.cos(z[1]), ops.sin(z[0])]

    def h(z):
        return ops.cos(z[0] + z[1])

    rng = np.random.default_rng(72)
    for _ in range(5):
        x = ft.sample_points(rng, 1)[0]
        res = div_equivalence_residuals(p_endo, ft.chart, X, x, h)
        assert residual(res["hs_inner"]) < 1e-12  # unconditional route always holds
        # defect of the conditional route: |(div (f^2 id))(X)| = |X(f^2)|
        u, v = x
        fv = 2.0 + math.sin(u) * math.cos(v)
        df2 = [
            2 * fv * math.cos(u) * math.cos(v),
            -2 * fv * math.sin(u) * math.sin(v),
        ]
        xv = [math.cos(v), math.sin(u)]
        want = abs(df2[0] * xv[0] + df2[1] * xv[1])
        assert abs(residual(res["div_qx"]) - want) < 1e-10
        assert residual(res["div_pp_star"]) > 1e-3


def test_div_equivalence_builds_each_covariant_jacobian_once(monkeypatch):
    """div_P X and <P P^*, nabla X> share one covariant Jacobian of X; the
    product-rule part takes the other one, of f X."""
    from distpair.cli import run_div_equivalence

    fields = []
    cov_deriv_vector = dt.cov_deriv_vector

    def counting(chart, vec_field, x):
        fields.append(vec_field)
        return cov_deriv_vector(chart, vec_field, x)

    monkeypatch.setattr(dt, "cov_deriv_vector", counting)
    run_div_equivalence(hopf_contact_s3(), 5, 42, 1e-6)
    assert len(fields) == 2
    assert fields[0] is not fields[1]


# -- frame-summed invariants ---------------------------------------------------


def multi_operand_invariants(chart, pair, cols):
    """The frame-summed invariants by their multi-operand contractions, one
    einsum per defining formula: n^6 loops per node for the derivative of
    nabla_{B_t} A_s, and four factors for each norm.  A second route to
    dist_invariants_batch, which contracts pairwise through shared
    intermediates; the inputs come from the same derivative passes."""
    n_nodes = cols[0].shape[0]
    a_field, b_field = (dt._projected_frame(chart, p) for p in (pair.p1, pair.p2))

    def diff(field):
        val, d = partials(field, cols)
        return la.nested_to_array(val, n_nodes), la.nested_to_array(d, n_nodes)

    gam0, dgam = diff(cg.christoffel_field(chart))
    a0, da = diff(a_field)
    b0, db = diff(b_field)
    d2a = la.nested_to_array(second_partials(a_field, cols)[2], n_nodes)
    p0, dp = diff(pair.total())
    g0 = la.nested_to_array(chart.jet1(cols).g, n_nodes)
    p1 = la.nested_to_array(pair.p1(cols), n_nodes)
    p2 = la.nested_to_array(pair.p2(cols), n_nodes)
    cov_a = da + np.einsum("kimn,mtn->iktn", gam0, a0)
    cov_b = db + np.einsum("kimn,mtn->iktn", gam0, b0)

    m1 = np.einsum("isn,iktn->kstn", a0, cov_a)
    m2 = np.einsum("isn,iktn->kstn", b0, cov_b)
    m3 = np.einsum("itn,iksn->ktsn", b0, cov_a)
    pre = {
        "h1": 0.5 * (m1 + np.swapaxes(m1, 1, 2)),
        "t1": 0.5 * (m1 - np.swapaxes(m1, 1, 2)),
        "h2": 0.5 * (m2 + np.swapaxes(m2, 1, 2)),
        "t2": 0.5 * (m2 - np.swapaxes(m2, 1, 2)),
    }
    proj = {"h1": p2, "t1": p2, "h2": p1, "t2": p1}
    out = {key: np.einsum("kmn,mstn->kstn", proj[key], pre[key]) for key in pre}
    for key in pre:
        out[f"norm_{key}"] = np.einsum("kln,kmn,mstn,lstn->n", g0, proj[key], pre[key], pre[key])
    for key, m, p in (("H1", m1, p2), ("H2", m2, p1)):
        hv_pre = np.einsum("kssn->kn", m)
        out[key] = np.einsum("kmn,mn->kn", p, hv_pre)
        out[f"norm_{key}"] = np.einsum("kln,kmn,mn,ln->n", g0, p, hv_pre, hv_pre)

    dm1_diag = (
        np.einsum("djsn,jmsn->dmsn", da, cov_a)
        + np.einsum("jsn,djmsn->dmsn", a0, d2a)
        + np.einsum("jsn,dmjqn,qsn->dmsn", a0, dgam, a0)
        + np.einsum("jsn,mjqn,dqsn->dmsn", a0, gam0, da)
    )
    g1 = np.einsum("kmn,mssn->ksn", p0, m1)
    dg1 = np.einsum("dkmn,mssn->dksn", dp, m1) + np.einsum("kmn,dmsn->dksn", p0, dm1_diag)
    cg1 = dg1 + np.einsum("kimn,msn->iksn", gam0, g1)
    term1 = np.einsum("itn,iksn,kln,ltn->n", b0, cg1, g0, b0)
    dm3 = (
        np.einsum("djtn,jmsn->dmtsn", db, cov_a)
        + np.einsum("jtn,djmsn->dmtsn", b0, d2a)
        + np.einsum("jtn,dmjqn,qsn->dmtsn", b0, dgam, a0)
        + np.einsum("jtn,mjqn,dqsn->dmtsn", b0, gam0, da)
    )
    g2 = np.einsum("kmn,mtsn->ktsn", p0, m3)
    dg2 = np.einsum("dkmn,mtsn->dktsn", dp, m3) + np.einsum("kmn,dmtsn->dktsn", p0, dm3)
    cg2 = dg2 + np.einsum("kimn,mtsn->iktsn", gam0, g2)
    term2 = np.einsum("isn,iktsn,kln,ltn->n", a0, cg2, g0, b0)
    lie = np.einsum("itn,imsn->mtsn", b0, da) - np.einsum("isn,imtn->mtsn", a0, db)
    v_lie = np.einsum("kmn,mtsn->ktsn", p0, lie)
    nabla_lie = np.einsum("itsn,iksn->ktsn", v_lie, cov_a)
    term3 = np.einsum("ktsn,kln,ltn->n", nabla_lie, g0, b0)
    out["smix"] = term1 - term2 - term3
    return out


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("split-t3",))
def test_invariants_match_the_multi_operand_contractions(name):
    sc = split_t3() if name == "split-t3" else build_scenario(name)
    cols = sc.sample_columns(np.random.default_rng(93), 30)
    got = dist_invariants_batch(sc.chart, sc.pair, cols)
    want = multi_operand_invariants(sc.chart, sc.pair, cols)
    assert got.keys() == set(FORMULA_TERMS)
    for key in FORMULA_TERMS:
        ref = want[key]
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got[key] - ref))) <= 1e-12 * (1.0 + scale), key


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("split-t3",))
def test_invariants_do_not_depend_on_the_batch_size(name):
    """Each node's invariants are the same bits in a 3-node batch and alone:
    no contraction may take a route that only a one-node batch takes."""
    sc = split_t3() if name == "split-t3" else build_scenario(name)
    pts = sc.sample_points(np.random.default_rng(91), 3)
    batch = dist_invariants_batch(sc.chart, sc.pair, point_columns(pts))
    assert len(batch) == 7
    for p, x in enumerate(pts):
        single = dist_invariants_batch(sc.chart, sc.pair, point_columns([x]))
        assert single.keys() == batch.keys()
        for key, val in single.items():
            assert val[..., 0].tobytes() == batch[key][..., p].tobytes(), (key, p)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_invariants_engine_frees_each_phase(name):
    """One engine call on the formula's first quadrature chunk holds its
    inputs, its outputs and one phase's arrays at a time.  numpy reports its
    buffers to tracemalloc, so the traced peak above the call's start is the
    same on every run: 1.5-8.6 MB on the built-in scenarios, with each
    projected frame on its kept slots (2.7-9.4 MB on all n slots).  An
    engine that holds every phase's arrays to its end peaks at about 20 MB
    on hopf-s3, which keeps every slot, above the bound."""
    sc = build_scenario(name)
    dim = sc.chart.dim
    chunk = formula_chunk(dim)
    grid = sc.grid((math.ceil(chunk ** (1.0 / dim)),) * dim)
    cols, _ = next(_chunk_nodes(grid, chunk))
    assert cols[0].shape == (chunk,)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dist_invariants_batch(sc.chart, sc.pair, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 1e6 <= 16.0


def coordinate_t3():
    """split-t3's metric with the coordinate projectors onto span(d_1, d_2)
    and span(d_0).  The pair is not self-adjoint, so no identity holds, but A
    keeps two of its three frame slots and its forms are not 0 there."""
    sc = split_t3()

    def diag(*entries):
        return lambda _z: [[e if i == j else 0.0 for j, e in enumerate(entries)] for i in range(3)]

    return dataclasses.replace(sc, pair=EndoPair(p1=diag(0.0, 1.0, 1.0), p2=diag(1.0, 0.0, 0.0)))


@pytest.mark.parametrize("name", SCENARIO_NAMES + ("split-t3", "coordinate-t3"))
def test_dropping_structurally_zero_slots_moves_no_bit(monkeypatch, name):
    """The engine on the kept frame slots gives every key bit for bit as
    the engine on all n slots: the dropped columns are exact zeros."""
    builders = {"split-t3": split_t3, "coordinate-t3": coordinate_t3}
    sc = builders[name]() if name in builders else build_scenario(name)
    cols = sc.sample_columns(np.random.default_rng(96), 40)
    pruned = dist_invariants_batch(sc.chart, sc.pair, cols)
    monkeypatch.setattr(dt, "_frame_slots", lambda val: list(range(len(val[0]))))
    full = dist_invariants_batch(sc.chart, sc.pair, cols)
    assert pruned.keys() == full.keys()
    for key, val in full.items():
        assert pruned[key].shape == val.shape, key
        assert pruned[key].tobytes() == val.tobytes(), key


@pytest.mark.parametrize(
    "name,kept",
    [("einstein-s3xt2", (3, 2)), ("warped-torus", (1, 1)), ("hopf-s3", (3, 3))],
)
def test_engine_keeps_the_structurally_non_zero_slots(monkeypatch, name, kept):
    """A = P1 L keeps rank-many of its n slots and B = P2 L likewise; every
    term is still one value per node."""
    sc = build_scenario(name)
    seen = []
    frame_slots = dt._frame_slots

    def spy(val):
        seen.append(frame_slots(val))
        return seen[-1]

    monkeypatch.setattr(dt, "_frame_slots", spy)
    out = dist_invariants_batch(sc.chart, sc.pair, sc.sample_columns(np.random.default_rng(97), 4))
    assert tuple(len(s) for s in seen) == kept
    for key, val in out.items():
        assert val.shape == (4,), key


def test_a_rank_zero_member_gives_zero_terms():
    """A member that is a structural zero everywhere keeps no slot: its
    terms come from size-0 contractions as finite zeros."""
    sc = warped_torus()
    pair = dataclasses.replace(sc.pair, p1=lambda _z: [[0.0, 0.0], [0.0, 0.0]])
    out = dist_invariants_batch(sc.chart, pair, sc.sample_columns(np.random.default_rng(98), 5))
    assert len(out) == 7
    for key in ("norm_h1", "norm_t1", "norm_H1", "smix"):
        assert np.all(out[key] == 0.0), key
        assert out[key].shape == (5,), key


def _nan_at(field, node):
    """field with entry (0, 0) multiplied by 1.0, or by NaN where the point
    is node."""

    def broken(z):
        at = np.all([ops._real(c) == x for c, x in zip(z, node)], axis=0)
        p = [list(row) for row in field(z)]
        p[0][0] = p[0][0] * np.where(at, np.nan, 1.0)
        return p

    return broken


@pytest.mark.parametrize("name", ["warped-torus", "einstein-s3xt2"])
def test_a_nan_in_a_kept_slot_fails_closed(monkeypatch, capsys, name):
    """A NaN that reaches a kept frame slot at one node makes that node's
    right side NaN and fails the CLI formula report."""
    sc = build_scenario(name)
    chunk = formula_chunk(sc.chart.dim)
    grid_counts = (4,) * sc.chart.dim
    cols, _ = next(_chunk_nodes(sc.grid(grid_counts), chunk))
    node = [float(c[5]) for c in cols]
    broken = dataclasses.replace(sc.pair, p1=_nan_at(sc.pair.p1, node))
    a_field, broken_a = (dt._projected_frame(sc.chart, p.p1) for p in (sc.pair, broken))
    slots = dt._frame_slots(partials(a_field, cols)[0])
    assert dt._frame_slots(partials(broken_a, cols)[0]) == slots
    assert len(slots) < sc.chart.dim

    rhs = side_sum(formula_record(sc.chart, broken, cols)["formula"], RHS)
    assert np.isnan(rhs[5])
    assert np.all(np.isfinite(np.delete(rhs, 5)))

    monkeypatch.setattr(cli, "build_scenario", lambda _name: dataclasses.replace(sc, pair=broken))
    argv = ["--scenario", name, "--which", "formula", "--grid", ",".join(map(str, grid_counts))]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["pass"] is False and math.isnan(report["max_abs"])


def test_invariants_closed_form_on_warped_torus():
    sc = warped_torus()
    inv = dist_invariants_batch(sc.chart, sc.pair, point_columns([[0.0, 1.4]]))
    # at u = 0: w' = 1, w'' = 0; the second distribution is totally geodesic
    # inside its own leaves but has mean curvature -w' relative to the first
    assert abs(inv["norm_h2"][0] - 1.0) < 1e-12
    assert abs(inv["norm_H2"][0] - 1.0) < 1e-12
    for key in ("h1", "t1", "t2", "H1"):
        assert abs(inv[f"norm_{key}"][0]) < 1e-12, key
    assert abs(inv["smix"][0] + 1.0) < 1e-12


def test_invariants_closed_form_on_hopf():
    sc = hopf_contact_s3()
    rng = np.random.default_rng(80)
    for _ in range(3):
        x = sc.sample_points(rng, 1)[0]
        inv = dist_invariants_batch(sc.chart, sc.pair, point_columns([x]))
        # the circle fibration is totally geodesic with antisymmetric mixing
        assert abs(inv["norm_t1"][0] - 2.0) < 1e-10
        assert abs(inv["smix"][0] - 2.0) < 1e-10
        for key in ("h1", "h2", "t2", "H1", "H2"):
            assert abs(inv[f"norm_{key}"][0]) < 1e-10, key


def test_mean_curvature_closed_form_on_warped_torus():
    sc = warped_torus()
    u = 0.6
    cols = [np.array([u]), np.array([2.0])]
    H = mean_curvature_field(sc.chart, sc.pair)(cols)
    assert abs(H[0][0] + math.cos(u)) < 1e-12  # H = (-w'(u), 0)
    assert abs(H[1][0]) < 1e-12


def test_smix_two_independent_routes():
    """Batched engine value vs the frame-summed tower evaluation of the
    reduced curvature-type term."""
    from distpair.chart_geometry import frame_column_field
    from distpair.dist_tensors import dist_invariants_batch

    for builder in (warped_torus, hopf_contact_s3):
        sc = builder()
        rng = np.random.default_rng(81)
        x = sc.sample_points(rng, 1)[0]
        dim = sc.chart.dim
        cols = [np.array([c]) for c in x]
        smix_engine = float(dist_invariants_batch(sc.chart, sc.pair, cols)["smix"][0])
        frames = [frame_column_field(sc.chart, np.array(s)) for s in range(dim)]
        smix_towers = 0.0
        for s in range(dim):
            for t in range(dim):
                smix_towers += rp_reduced(
                    sc.pair, sc.chart, x, frames[t], frames[s], frames[s], frames[t]
                )
        assert abs(smix_engine - smix_towers) < 1e-9


def test_invariants_independent_of_frame_rotation(monkeypatch):
    sc = hopf_contact_s3()
    rng = np.random.default_rng(82)
    cols = point_columns(sc.sample_points(rng, 1))
    base = dist_invariants_batch(sc.chart, sc.pair, cols)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot = [[float(v) for v in row] for row in q]
    gram_schmidt_frame = la.gram_schmidt_frame

    def rotated_frame(g):
        return la.mat_mul(gram_schmidt_frame(g), rot)  # L R, still orthonormal

    monkeypatch.setattr(la, "gram_schmidt_frame", rotated_frame)
    rotated = dist_invariants_batch(sc.chart, sc.pair, cols)
    assert abs(base["smix"][0] - rotated["smix"][0]) < 1e-10
    for key in ("h1", "h2", "t1", "t2", "H1", "H2"):
        key = f"norm_{key}"
        assert abs(base[key][0] - rotated[key][0]) < 1e-10


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_divergence_formula_pointwise(name):
    sc = build_scenario(name)
    rng = np.random.default_rng(83)
    pts = sc.sample_points(rng, 20)
    cols = [np.array([p[i] for p in pts]) for i in range(sc.chart.dim)]
    _, norm = reduce_record(walczak_residual_batch(sc.chart, sc.pair, cols))
    assert float(norm) < 1e-6


def test_divergence_formula_closed_form_on_warped_torus():
    # both sides equal -(w'' + w'^2) pointwise
    sc = warped_torus()
    for u in (0.0, 0.9, 3.1):
        cols = point_columns([[u, 0.3]])
        norm = normalized(walczak_residual_batch(sc.chart, sc.pair, cols)["walczak"])
        assert norm[0] < 1e-8
        inv = dist_invariants_batch(sc.chart, sc.pair, cols)
        rhs = (
            inv["smix"][0]
            + inv["norm_h1"][0]
            + inv["norm_h2"][0]
            - inv["norm_t1"][0]
            - inv["norm_t2"][0]
            - inv["norm_H1"][0]
            - inv["norm_H2"][0]
        )
        want = -(-math.sin(u) + math.cos(u) ** 2)
        assert abs(rhs - want) < 1e-10


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_pass_values_equal_plain_values_bit_for_bit(name):
    """The value partials returns is the plain f(x), so the batch engines
    take it from the pass instead of evaluating each field twice."""
    sc = build_scenario(name)
    rng = np.random.default_rng(86)
    cols = sc.sample_columns(rng, 1000)
    a_field, b_field = (dt._projected_frame(sc.chart, p) for p in (sc.pair.p1, sc.pair.p2))
    fields = {
        "metric": sc.chart.metric,
        "frame_p1": a_field,
        "frame_p2": b_field,
        "p1_plus_p2": sc.pair.total(),
        "pp_star": pp_star_field(sc.chart, sc.pair.total()),
        "christoffel": cg.christoffel_field(sc.chart),
        "vector": random_vector_field(sc, rng),
    }
    for key, field in fields.items():
        value, _ = partials(field, cols)
        got = la.nested_to_array(value, 1000)
        assert got.tobytes() == la.nested_to_array(field(cols), 1000).tobytes(), key


def test_each_batch_engine_call_builds_one_real_metric_jet(monkeypatch):
    """The batch object itself is passed down and carries its metric jet, so
    the jet is built (and validated) once per call; the dual points of the
    derivative passes are not counted."""
    sc = hopf_contact_s3()
    rng = np.random.default_rng(84)
    vec_field = random_vector_field(sc, rng)
    real_jets = []
    metric_jet = cg._metric_jet

    def counting(chart, x):
        if not any(isinstance(c, ops.Dual) for c in x):
            real_jets.append(x)
        return metric_jet(chart, x)

    monkeypatch.setattr(cg, "_metric_jet", counting)
    formula_record(sc.chart, sc.pair, sc.sample_columns(rng, 100))
    assert len(real_jets) == 1
    real_jets.clear()
    div_p(sc.pair.total(), sc.chart, vec_field, sc.sample_columns(rng, 100))
    assert len(real_jets) == 1


def richardson_div_p_mean_curvature(chart, pair, cols, step=1e-4):
    """div_P(H1 + H2) with the derivative of H taken by central differences
    and Richardson extrapolation (h and h/2); the metric terms stay AD-exact.
    A second route to the left side of the Walczak-type balance."""
    n = chart.dim
    n_nodes = cols[0].shape[0]
    h_field = mean_curvature_field(chart, pair)

    def h_at(shift, d):
        return la.nested_to_array(
            h_field([c + shift if i == d else c for i, c in enumerate(cols)]), n_nodes
        )

    def central(h, d):
        return (h_at(h, d) - h_at(-h, d)) / (2.0 * h)

    # dh[d, k] = d_d H^k
    dh = np.array([(4.0 * central(0.5 * step, d) - central(step, d)) / 3.0 for d in range(n)])
    jet = chart.jet1(cols)
    q = la.nested_to_array(pp_star_field(chart, pair.total())(cols), n_nodes)
    q_up = np.einsum("iln,ljn->ijn", q, la.nested_to_array(jet.g_inv, n_nodes))
    h0 = la.nested_to_array(h_field(cols), n_nodes)
    return np.einsum("ijn,ijn->n", q, dh) + 0.5 * np.einsum(
        "ijn,kijn,kn->n", q_up, la.nested_to_array(jet.dg, n_nodes), h0
    )


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("split-t3",))
def test_walczak_left_side_matches_finite_differences(name):
    """mean_curvature_field agrees with the multi-operand contractions'
    H1 + H2, and walczak's AD left side with the Richardson stencil.  On
    split-t3 neither mean curvature is 0."""
    sc = split_t3() if name == "split-t3" else build_scenario(name)
    cols = sc.sample_columns(np.random.default_rng(85), 20)
    h_field = mean_curvature_field(sc.chart, sc.pair)
    inv = multi_operand_invariants(sc.chart, sc.pair, cols)
    h = la.nested_to_array(h_field(cols), 20)
    assert np.allclose(h, inv["H1"] + inv["H2"], rtol=0.0, atol=1e-12)
    ad = div_p(sc.pair.total(), sc.chart, h_field, cols)
    fd = richardson_div_p_mean_curvature(sc.chart, sc.pair, cols)
    assert float(np.max(np.abs(ad - fd) / (1.0 + np.abs(ad)))) < 1e-9


@pytest.mark.parametrize("name", ["hopf-s3", "warped-torus", "scaled-identity"])
def test_walczak_closes_to_round_off(name):
    # the CLI's walczak report at --points 6 --seed 5; a finite-difference
    # left side gave 1.0e-11, 2.2e-12 and 3.6e-12 here
    _, max_norm, _ = run_walczak(build_scenario(name), 6, 5, 1e-6)
    assert max_norm <= 1e-13


# -- frame-trace identities -----------------------------------------------------


def split_t3(seed=3):
    """T^3 with g = 3 I plus symmetrised trigonometric entries, P1 the
    g-orthogonal projector onto span(d_0) and P2 = I - P1: the constant-rank
    orthogonal case of P. Walczak, Colloq. Math. 58 (1990).  Both mean
    curvatures have components across the other distribution, so the cross
    terms of the frame traces are not 0 here as they are on the shipped
    scenarios."""
    rng = np.random.default_rng(seed)
    bumps = {(i, j): _trig_scalar(rng, 3, 0.25) for i in range(3) for j in range(i, 3)}

    def metric(z):
        basis = _trig_basis(z)
        return [
            [(3.0 if i == j else 0.0) + bumps[min(i, j), max(i, j)](basis) for j in range(3)]
            for i in range(3)
        ]

    chart = cg.Chart("split-t3", 3, metric)

    def p1(z):
        g = chart.jet1(z).g
        return [[g[0][j] / g[0][0] if i == 0 else 0.0 for j in range(3)] for i in range(3)]

    def p2(z):
        return la.mat_sub(la.eye(3), p1(z))

    return ScenarioManifold(
        name="split-t3",
        chart=chart,
        pair=EndoPair(p1=p1, p2=p2, self_adjoint=True, allowed=True),
        kind="torus",
    )


@pytest.mark.parametrize(
    "name,npts",
    [
        ("flat-torus", 2),
        ("warped-torus", 4),
        ("scaled-identity", 3),
        ("hopf-s3", 3),
        ("einstein-s3xt2", 1),
        ("split-t3", 3),
    ],
)
def test_frame_trace_identities(name, npts):
    sc = split_t3() if name == "split-t3" else build_scenario(name)
    rng = np.random.default_rng(90)
    for x in sc.sample_points(rng, npts):
        res = trace_identity_residuals(sc.pair, sc.chart, point_columns([x]))
        assert list(res) == ["t1", "t2", "s1", "s2", "aux"]
        for key, ident in res.items():
            assert normalized(ident)[0] < 1e-9, (key, x)


def test_traces_build_the_real_metric_jet_at_the_points_only(monkeypatch):
    """The frame indices s and t have axes of their own, so every real metric
    jet covers the N points, not n^2 N stacked copies of them."""
    sc = hopf_contact_s3()
    rng = np.random.default_rng(92)
    real_sizes = []
    metric_jet = cg._metric_jet

    def counting(chart, x):
        if not any(isinstance(c, ops.Dual) for c in x):
            real_sizes.append(max(np.size(c) for c in x))
        return metric_jet(chart, x)

    monkeypatch.setattr(cg, "_metric_jet", counting)
    trace_identity_residuals(sc.pair, sc.chart, sc.sample_columns(rng, 4))
    assert real_sizes and set(real_sizes) == {4}


@pytest.mark.parametrize("name", ["warped-torus", "hopf-s3"])
def test_batched_towers_match_the_point_loop(name):
    """One column batch over the points (and, for the traces, the frame
    pairs) gives bit for bit the residuals of a loop over the points, and a
    single point still gives floats.  The traces and walczak take column
    batches only, so there a point goes in as a one-node batch and node 0 is
    read."""
    sc = build_scenario(name)
    rng = np.random.default_rng(91)
    vec_field, scalar_field = random_vector_field(sc, rng), random_scalar_field(sc, rng)
    pts = sc.sample_points(rng, 3)
    dim = sc.chart.dim
    vecs = rng.normal(size=(3, 4, dim))
    cols = [np.array(c) for c in zip(*pts)]
    slots = [[vecs[:, j, i] for i in range(dim)] for j in range(4)]

    def flat(record):
        """Each identity's residual and normalized residual and each of its
        scalar terms, by name."""
        out = {}
        for key, ident in record.items():
            out[f"{key}.residual"] = residual(ident)
            out[f"{key}.normalized"] = normalized(ident)
            if ident.g is None:
                out.update((f"{key}.{name}", val) for name, _, val in ident.terms)
        return out

    def one_node(batch_check):
        def fn(x, v):
            if isinstance(x[0], np.ndarray):
                return batch_check(x)
            single = batch_check(point_columns([x])).items()
            return {key: np.broadcast_to(val, (1,))[0] for key, val in single}

        return fn

    checks = {
        "allowed": lambda x, v: flat(allowed_forms(sc.pair, sc.chart, x, v[0], v[1])),
        "codazzi": lambda x, v: flat(codazzi_residual(sc.pair, sc.chart, x, *v)),
        "divergence": lambda x, v: flat(
            div_equivalence_residuals(sc.pair.total(), sc.chart, vec_field, x, scalar_field)
        ),
        "traces": one_node(lambda c: flat(trace_identity_residuals(sc.pair, sc.chart, c))),
        "walczak": one_node(lambda c: flat(walczak_residual_batch(sc.chart, sc.pair, c))),
    }
    if "phi" in sc.extras:
        checks["contact"] = lambda x, v: flat(
            contact_structure_residuals(sc.extras["phi"], sc.extras["xi"], sc.chart, x)
        )
    for check, fn in checks.items():
        batch = fn(cols, slots)
        for p, x in enumerate(pts):
            single = fn(x, [list(map(float, vecs[p, j])) for j in range(4)])
            assert single.keys() == batch.keys(), check
            for key, val in single.items():
                assert isinstance(val, float), (check, key)
                assert val == np.broadcast_to(batch[key], (3,))[p], (check, key, p)


# -- contact structure ----------------------------------------------------------


def test_contact_structure_equations():
    for builder in (hopf_contact_s3, conformal_hopf):
        sc = builder()
        rng = np.random.default_rng(95)
        phi, xi = sc.extras["phi"], sc.extras["xi"]
        for _ in range(6):
            x = sc.sample_points(rng, 1)[0]
            res = contact_structure_residuals(phi, xi, sc.chart, x)
            assert reduce_record(res)[0] < 1e-12, res


def test_contact_divergence_identity_sign():
    """The identity holds with the *sum* of the acceleration and divergence
    pairings; the variant with a relative minus sign is refuted on a
    conformally rescaled sphere where both pairings are nonzero."""
    rng = np.random.default_rng(96)

    base = hopf_contact_s3()
    for _ in range(5):
        x = base.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=3))
        res = contact_identity_residual(
            base.extras["phi"], base.extras["xi"], base.chart, vx, x
        )
        assert normalized(res["plus"]) < 1e-12

    conf = conformal_hopf()
    worst_minus = 0.0
    for _ in range(8):
        x = conf.sample_points(rng, 1)[0]
        vx = list(rng.normal(size=3))
        res = contact_identity_residual(
            conf.extras["phi"], conf.extras["xi"], conf.chart, vx, x
        )
        assert normalized(res["plus"]) < 1e-12
        worst_minus = max(worst_minus, normalized(res["minus"]))
    assert worst_minus > 1e-3


def test_contact_sign_split_on_the_conformal_rescale():
    """Where ``plus`` closes, ``minus`` is 2 |dv|, with dv = div xi <xi, X>
    taken independently of the record, and its normalized residual is minus
    over ((1 + |acc|) + |dv|) + |div_s|, the record's contact magnitude."""
    conf = conformal_hopf()
    rng = np.random.default_rng(3)
    cols = conf.sample_columns(rng, 6)
    (vx,) = conf.sample_slot_vectors(rng, 6, 1)
    phi, xi = conf.extras["phi"], conf.extras["xi"]
    record = contact_identity_residual(phi, xi, conf.chart, vx, cols)
    assert np.max(normalized(record["plus"])) < 1e-12

    dv = div_vector(conf.chart, xi, cols) * la.bilinear(conf.chart.jet1(cols).g, xi(cols), vx)
    assert np.min(np.abs(dv)) > 1e-3  # the rescale separates the signs at every point
    minus = residual(record["minus"])
    assert np.max(np.abs(minus - 2.0 * np.abs(dv))) < 1e-14

    terms = {name: value for name, _, value in record["minus"].terms}
    assert [side for _, side, _ in record["minus"].terms] == ["rhs", "rhs", "lhs"]
    magnitude = 1.0 + np.abs(terms["acc"]) + np.abs(terms["dv"]) + np.abs(terms["div_s"])
    assert np.array_equal(normalized(record["minus"]), minus / magnitude)
