"""Acceptance gate: one verdict line per shipped numerical guarantee.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines.  Every
tolerance below is pinned; loosening one is a regression, not a fix.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
import time

import numpy as np

from distpair import (
    allowed_forms,
    build_scenario,
    check_pair,
    codazzi_residual,
    contact_identity_residual,
    contact_structure_residuals,
    curvature_term,
    div_endo,
    integral_formula_check,
    div_equivalence_residuals,
    point_columns,
    stokes_check,
    trace_identity_residuals,
)
from distpair import linalg as la
from distpair.dist_tensors import pp_star_field, walczak_residual_batch
from distpair.identity import reduce_record
from distpair.quadrature import refine_counts
from distpair.scenarios import (
    SCENARIO_NAMES,
    conformal_hopf,
    non_allowed_rotated,
    random_scalar_field,
    random_vector_field,
)
from oracles import einstein_factor, einstein_tensor, riemann

_CACHE: dict = {}


def random_vectors(rng, dim, count):
    return [list(map(float, rng.normal(size=dim))) for _ in range(count)]


def scenario(name):
    if name not in _CACHE:
        _CACHE[name] = build_scenario(name)
    return _CACHE[name]


def verdict(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {tag}  ({detail})")
    assert ok, f"criterion {num}: {label} -- {detail}"


def _covector_norm(chart, x, omega):
    g_inv = chart.jet1(x).g_inv
    return math.sqrt(abs(la.bilinear(g_inv, omega, omega)))


def test_c01_product_curvature_matches_closed_form():
    sc = scenario("einstein-s3xt2")
    rng = np.random.default_rng(101)
    pts = sc.sample_points(rng, 100)
    t0 = time.monotonic()
    worst = amp = 0.0
    for x in pts:
        mixed = np.array(einstein_tensor(sc.chart, x))
        want = np.diag([einstein_factor(x[3])] * 3 + [-3.0, -3.0])
        scale = 1.0 + float(np.max(np.abs(want)))
        worst = max(worst, float(np.max(np.abs(mixed - want))) / scale)
        p1 = np.array(sc.pair.p1(x))
        p2 = np.array(sc.pair.p2(x))
        worst = max(worst, float(np.max(np.abs(p1 @ p1 + p2 @ p2 + mixed))) / scale)
        amp = max(amp, float(np.max(np.abs(np.diag(p2)[3:] - math.sqrt(3.0)))))
    elapsed = time.monotonic() - t0
    spot = abs(einstein_factor(math.pi / 2.0) + 1.25)
    ok = worst <= 1e-8 and spot <= 1e-12 and amp <= 1e-15 and elapsed <= 10.0
    verdict(
        1,
        "product-manifold curvature matches its closed form",
        ok,
        f"max residual {worst:.3e} over 100 points in {elapsed:.2f}s",
    )


def test_c02_pair_operator_images_divergence_free():
    sc = scenario("einstein-s3xt2")
    rng = np.random.default_rng(102)
    pts = sc.sample_points(rng, 100)
    fields = [
        pp_star_field(sc.chart, sc.pair.p1),
        pp_star_field(sc.chart, sc.pair.p2),
        pp_star_field(sc.chart, sc.pair.total()),
    ]
    worst = 0.0
    for x in pts:
        for fld in fields:
            worst = max(worst, _covector_norm(sc.chart, x, div_endo(sc.chart, fld, x)))
    structural = reduce_record(check_pair(sc.pair, sc.chart, point_columns(pts[:40])))[1]
    ok = worst <= 1e-8 and structural <= 1e-8
    verdict(
        2,
        "pair operator images are divergence free",
        ok,
        f"div(PP*) {worst:.3e}, structural defects {structural:.3e}, 100 points",
    )


def test_c03_compatibility_forms_separate_allowed_pairs():
    worst_allowed = 0.0
    for name in ("einstein-s3xt2", "warped-torus"):
        sc = scenario(name)
        rng = np.random.default_rng(103)
        for x in sc.sample_points(rng, 50):
            vx, vy = random_vectors(rng, sc.chart.dim, 2)
            _, norm = reduce_record(allowed_forms(sc.pair, sc.chart, x, vx, vy))
            worst_allowed = max(worst_allowed, norm)
    rot = non_allowed_rotated()
    rng = np.random.default_rng(203)
    worst_rot = 0.0
    for x in rot.sample_points(rng, 50):
        vx, vy = random_vectors(rng, rot.chart.dim, 2)
        _, norm = reduce_record(allowed_forms(rot.pair, rot.chart, x, vx, vy))
        worst_rot = max(worst_rot, norm)
    ok = worst_allowed <= 1e-8 and worst_rot >= 1e-3
    verdict(
        3,
        "compatibility forms separate allowed from non-allowed pairs",
        ok,
        f"allowed {worst_allowed:.3e}, counterexample {worst_rot:.3e}",
    )


def test_c04_codazzi_identity_closes_on_allowed_pairs():
    worst = 0.0
    for name in SCENARIO_NAMES:
        sc = scenario(name)
        rng = np.random.default_rng(104)
        # one column batch: the same draws as 200 points, then 4 vectors each
        cols = sc.sample_columns(rng, 200)
        y, x1, x2, z = sc.sample_slot_vectors(rng, 200, 4)
        res = codazzi_residual(sc.pair, sc.chart, cols, y, x1, x2, z)
        worst = max(worst, float(reduce_record(res)[1]))

    # second route for the curvature term: contract the full curvature
    # tensor with the projected arguments and compare
    sc = scenario("warped-torus")
    rng = np.random.default_rng(204)
    worst_rp = 0.0
    for x in sc.sample_points(rng, 20):
        y, x1, x2, z = random_vectors(rng, 2, 4)
        rp = curvature_term(sc.pair, sc.chart, x, y, x1, x2, z)
        R = riemann(sc.chart, x)
        a = la.mat_vec(sc.pair.p2(x), y)
        b = la.mat_vec(sc.pair.p1(x), x1)
        c = la.mat_vec(sc.pair.p1(x), x2)
        d = la.mat_vec(sc.pair.p2(x), z)
        want = sum(
            R[i][j][k][l] * a[i] * b[j] * c[k] * d[l]
            for i in range(2)
            for j in range(2)
            for k in range(2)
            for l in range(2)
        )
        worst_rp = max(worst_rp, abs(rp - want) / (1.0 + abs(want)))
    ok = worst <= 1e-7 and worst_rp <= 1e-8
    verdict(
        4,
        "five-term Codazzi-type identity closes on allowed pairs",
        ok,
        f"residual {worst:.3e} over 200 samples x {len(SCENARIO_NAMES)} "
        f"scenarios, curvature-term cross-check {worst_rp:.3e}",
    )


def test_c05_projected_divergence_equivalences_hold():
    worst = 0.0
    for name in SCENARIO_NAMES:
        sc = scenario(name)
        rng = np.random.default_rng(105)
        vec = random_vector_field(sc, rng)
        scal = random_scalar_field(sc, rng)
        for x in sc.sample_points(rng, 30):
            res = div_equivalence_residuals(sc.pair.total(), sc.chart, vec, x, scal)
            # div_pp_star, the precondition, is reported unnormalized
            worst = max(worst, reduce_record(res)[1])
    ok = worst <= 1e-8
    verdict(
        5,
        "projected-divergence equivalences and Leibniz rule hold",
        ok,
        f"max residual {worst:.3e} over 30 points x {len(SCENARIO_NAMES)} scenarios",
    )


def test_c06_frame_trace_identities_hold():
    budget = {
        "flat-torus": 4,
        "scaled-identity": 4,
        "warped-torus": 4,
        "hopf-s3": 3,
        "einstein-s3xt2": 2,
    }
    worst = 0.0
    for name in SCENARIO_NAMES:
        sc = scenario(name)
        rng = np.random.default_rng(106)
        for x in sc.sample_points(rng, budget[name]):
            res = trace_identity_residuals(sc.pair, sc.chart, point_columns([x]))
            worst = max(worst, reduce_record(res)[1])  # t1, t2, s1, s2 and aux
    ok = worst <= 1e-7
    verdict(
        6,
        "frame-trace identities hold on self-adjoint pairs",
        ok,
        f"max residual {worst:.3e} across all scenarios",
    )


def test_c07_mean_curvature_balance_holds_pointwise():
    worst = 0.0
    for name in SCENARIO_NAMES:
        sc = scenario(name)
        rng = np.random.default_rng(107)
        pts = sc.sample_points(rng, 100)
        cols = [np.array([p[i] for p in pts]) for i in range(sc.chart.dim)]
        _, norm = reduce_record(walczak_residual_batch(sc.chart, sc.pair, cols))
        worst = max(worst, float(norm))
    ok = worst <= 1e-6
    verdict(
        7,
        "mean-curvature balance identity holds pointwise",
        ok,
        f"max residual {worst:.3e} at 100 points x {len(SCENARIO_NAMES)} scenarios",
    )


def test_c08_divergence_integrals_vanish_on_closed_scenarios():
    flat = scenario("flat-torus")
    rng = np.random.default_rng(108)
    (res_flat,) = stokes_check(
        flat.pair.total(), flat.chart, random_vector_field(flat, rng), flat.grid(16)
    )

    warped = scenario("warped-torus")
    rng = np.random.default_rng(118)
    w_field = random_vector_field(warped, rng)
    w_fine_grid = warped.grid(24)
    res_w, res_w_half = stokes_check(
        warped.pair.total(),
        warped.chart,
        w_field,
        w_fine_grid,
        warped.grid(refine_counts(w_fine_grid.counts)),
    )

    ein = scenario("einstein-s3xt2")
    rng = np.random.default_rng(128)
    e_field = random_vector_field(ein, rng)
    e_fine_grid = ein.grid((10, 10, 10, 6, 6))
    res_e, res_e_half = stokes_check(
        ein.pair.total(),
        ein.chart,
        e_field,
        e_fine_grid,
        ein.grid(refine_counts(e_fine_grid.counts)),
    )

    converges = (
        res_w["normalized"] <= res_w_half["normalized"]
        and res_e["normalized"] <= res_e_half["normalized"]
    )
    ok = (
        abs(res_flat["integral"]) <= 1e-12
        and res_w["normalized"] <= 1e-6
        and res_e["normalized"] <= 1e-6
        and converges
    )
    verdict(
        8,
        "divergence integrals vanish on closed scenarios",
        ok,
        f"flat {abs(res_flat['integral']):.3e}, warped {res_w['normalized']:.3e} "
        f"(half-grid {res_w_half['normalized']:.3e}), product {res_e['normalized']:.3e} "
        f"(half-grid {res_e_half['normalized']:.3e})",
    )


def test_c09_global_balance_integral():
    warped = scenario("warped-torus")
    (res_w,) = integral_formula_check(warped.pair, warped.chart, warped.grid(128))
    flat = scenario("flat-torus")
    (res_f,) = integral_formula_check(flat.pair, flat.chart, flat.grid(16))
    ein = scenario("einstein-s3xt2")
    (res_e,) = integral_formula_check(ein.pair, ein.chart, ein.grid(6))
    ok = (
        not res_w["degenerate"]
        and res_w["mass"] > 0.1
        and abs(res_w["ratio"]) <= 1e-6
        and res_f["degenerate"]
        and res_f["max_pointwise_normalized"] <= 1e-9
        and res_e["degenerate"]
        and res_e["max_pointwise_normalized"] <= 1e-9
    )
    verdict(
        9,
        "global balance integral vanishes; integrand degenerates where expected",
        ok,
        f"warped ratio {abs(res_w['ratio']):.3e} (mass {res_w['mass']:.2f}), "
        f"flat pointwise {res_f['max_pointwise_normalized']:.3e}, "
        f"product pointwise {res_e['max_pointwise_normalized']:.3e}",
    )


def test_c10_contact_structure_and_sign_variant():
    base = scenario("hopf-s3")
    conf = conformal_hopf()
    rng = np.random.default_rng(110)

    worst_structure = 0.0
    for sc in (base, conf):
        for x in sc.sample_points(rng, 40):
            res = contact_structure_residuals(
                sc.extras["phi"], sc.extras["xi"], sc.chart, x
            )
            worst_structure = max(worst_structure, reduce_record(res)[0])

    # the complement projector is exactly the squared structure operator,
    # and on the round metric its divergence vanishes
    worst_div = 0.0
    for x in base.sample_points(rng, 40):
        omega = div_endo(base.chart, base.pair.p2, x)
        worst_div = max(worst_div, _covector_norm(base.chart, x, omega))

    worst_plus = 0.0
    worst_minus_conf = 0.0
    for sc in (base, conf):
        for x in sc.sample_points(rng, 25):
            vx = random_vectors(rng, sc.chart.dim, 1)[0]
            res = contact_identity_residual(
                sc.extras["phi"], sc.extras["xi"], sc.chart, vx, x
            )
            worst_plus = max(worst_plus, reduce_record({"plus": res["plus"]})[1])
            if sc is conf:
                minus = reduce_record({"minus": res["minus"]})[1]
                worst_minus_conf = max(worst_minus_conf, minus)

    ok = (
        worst_structure <= 1e-9
        and worst_div <= 1e-9
        and worst_plus <= 1e-9
        and worst_minus_conf >= 1e-3
    )
    verdict(
        10,
        "contact structure equations hold; sign variant 'plus' is the "
        "single consistent closed form",
        ok,
        f"structure {worst_structure:.3e}, div {worst_div:.3e}, "
        f"plus {worst_plus:.3e}, rejected minus {worst_minus_conf:.3e}",
    )


def test_c11_cli_reports_are_deterministic(child_env):
    cmd = [
        sys.executable,
        "-m",
        "distpair.cli",
        "--scenario",
        "warped-torus",
        "--check",
        "pair",
        "--check",
        "codazzi",
        "--check",
        "walczak",
        "--points",
        "20",
        "--seed",
        "11",
    ]
    outs = []
    for threads in ("1", "4"):
        env = child_env(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(re.sub(r'"runtime_ms": [0-9.]+', '"runtime_ms": 0', proc.stdout))
    ok = outs[0] == outs[1] and outs[0].count("\n") == 3
    verdict(
        11,
        "CLI reports are byte-identical across reruns and thread counts",
        ok,
        f"{len(outs[0].splitlines())} report lines compared",
    )
