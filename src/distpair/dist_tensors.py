"""Structural tensors of an endomorphism pair and the identities they satisfy.

Everything here comes in two implementation styles on purpose:

* generic AD towers (closures over `cov_at`) that follow the defining
  formulas slot by slot; they give the four-argument curvature identity, the
  compatibility identities, the frame-trace left-hand sides and ``div_P``.
  A tower takes a point in any form (floats, column arrays, duals), which is
  what lets towers nest;
* a batched component engine (numpy einsum over a node axis) for the seven
  frame-summed terms that :func:`formula_record` reads: the mixed scalar
  curvature and the squared norms of the second fundamental forms,
  integrability tensors and mean curvatures (:func:`dist_invariants_batch`).
  The forms and mean curvature vectors themselves never leave it; a
  one-einsum-per-formula version in the tests computes them, and
  cross-checks the engine's terms and the tower :func:`mean_curvature_field`.

Each identity function returns a record of its signed terms, which
:func:`identity.reduce_record` turns into a check's residuals.

``div_P`` has the one route :func:`div_p`, which the divergence checks, the
Stokes quadrature and the Walczak-type residual all call.  The residual
differentiates the mean curvature field :func:`mean_curvature_field` once
more through it, so every derivative in this module is AD-exact; the
finite-difference version of its left side is kept in the tests as a
cross-check.

Callers evaluate many points at once as a column batch: ``dim`` arrays over
the nodes (:func:`chart_geometry.point_columns`).  The batch engine, the
frame traces and :func:`endo_fields.check_pair` take only that form.  Every
function takes the :class:`chart_geometry.Chart` and passes the batch object
itself down.  The batch is a :class:`dual.Point`, which carries the one
metric jet of all its terms, validated when it is built; its derivative pass
runs only if some term reads dg or Gamma there.  For a single point use
``point_columns([x])`` and read node 0.

The two styles double as cross-checks of each other in the test suite.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .chart_geometry import (
    christoffel_field,
    cov_at,
    cov_deriv_vector,
    div_endo,
    div_vector,
    frame_at,
    frame_column_field,
    lie_bracket,
    nabla_field,
)
from .dual import Point, directional, partials, second_partials
from .endo_fields import adjoint_field, adjoint_matrix, apply_endo, as_field, frob
from .identity import (
    LHS, RHS, Identity, engine_scale, fold_from_one, one_term, precondition, rule, shared_routes
)


# -- the six structural tensor fields ---------------------------------------
#
# Slot conventions (fixed throughout): index-1 tensors take (Y, X), index-2
# tensors take (X, Y).  The first argument is the one whose projected image
# is differentiated; the second feeds the direction.  Only the index-2 family
# is written out: an index-1 tensor, term or form of a pair is the index-2
# one of ``pair.swapped()`` with its two slots exchanged, e.g.
# B1(Y, X) = field_b2(chart, pair.swapped(), Y, X).


def _slot_field(chart, outer, direction, inner, moved_fld, dir_fld):
    """Field z -> outer nabla_{direction dir_fld} (inner moved_fld) at z, with
    outer, direction and inner endomorphism fields."""
    moved = apply_endo(inner, moved_fld)

    def fld(z):
        d = la.mat_vec(direction(z), dir_fld(z))
        return la.mat_vec(outer(z), cov_at(chart, z, d, moved))

    return fld


def field_b2(chart, pair, x_fld, y_fld):
    """B2(X, Y) = P2^* nabla_{P2 Y} (P1 X)."""
    return _slot_field(chart, adjoint_field(chart, pair.p2), pair.p2, pair.p1, x_fld, y_fld)


def field_hat_b2(chart, pair, x_fld, y_fld):
    """hat B2(X, Y) = P2 nabla_{P2^* Y} (P1^* X)."""
    p1s, p2s = adjoint_field(chart, pair.p1), adjoint_field(chart, pair.p2)
    return _slot_field(chart, pair.p2, p2s, p1s, x_fld, y_fld)


def field_check_b2(chart, pair, x_fld, y_fld):
    """check B2(X, Y) = P2 nabla_{P2 Y} (P1^* X)."""
    return _slot_field(chart, pair.p2, pair.p2, adjoint_field(chart, pair.p1), x_fld, y_fld)


def collapse_residual(pair, chart, x, vec_x, vec_y):
    """The four compatibility coincidences at x, a record of vector identities.

    For an allowed pair, P2 B2(X,Y) = hat B2(X, P2 Y) = check B2(P1 X, Y) and
    the index-1 mirror: ``b{i}_vs_hat`` and ``b{i}_vs_check`` hold P B (lhs)
    against the hat or check term (rhs).
    """
    xf = as_field(vec_x)
    yf = as_field(vec_y)
    g = chart.jet1(x).g

    record = {}
    for index, p, u, v in ((2, pair, xf, yf), (1, pair.swapped(), yf, xf)):
        p_b = la.mat_vec(p.p2(x), field_b2(chart, p, u, v)(x))
        hat = field_hat_b2(chart, p, u, apply_endo(p.p2, v))(x)
        chk = field_check_b2(chart, p, apply_endo(p.p1, u), v)(x)
        for tag, other in (("hat", hat), ("check", chk)):
            terms = (("p_b", LHS, p_b), (tag, RHS, other))
            record[f"b{index}_vs_{tag}"] = Identity(terms, g, rule, None)
    return record


# -- the four-argument curvature identity ------------------------------------


def _t_and_s(pair, chart, x, yf, x1f, x2f, zf):
    """The vectors that t1 pairs with Z and s2 with X2, at x.

    Both read nabla_{P1 X1}(P2 Y), evaluated once here.  The pair's swap
    with (Y, X1, X2, Z) passed as (X1, Y, Z, X2) gives those of t2 and s1.
    """
    p1x1 = apply_endo(pair.p1, x1f)
    p1x1_at = p1x1(x)
    v_x1_dir = as_field(cov_at(chart, x, p1x1_at, apply_endo(pair.p2, yf)))

    t_a = la.mat_vec(pair.p2(x), cov_at(chart, x, p1x1_at, field_b2(chart, pair, x2f, yf)))
    t_b = field_check_b2(chart, pair, nabla_field(chart, p1x1, apply_endo(pair.p1, x2f)), yf)(x)
    t_c = field_hat_b2(chart, pair, x2f, v_x1_dir)(x)
    s = field_hat_b2(chart, pair.swapped(), zf, v_x1_dir)(x)
    return la.vec_sub(la.vec_sub(t_a, t_b), t_c), s


def tsr_tensors(pair, chart, x, y, x1, x2, z_slot):
    """Four of the five scalars of the curvature identity at x.

    Arguments may be constant vectors or vector-field closures (the latter is
    used by the trace sums and the tensoriality tests).  Returns a dict with
    t1, t2, s1, s2; the fifth term rp is :func:`curvature_term`.  (t2, s1)
    are (t1, s2) of ``pair.swapped()`` with (Y, X1, X2, Z) passed as
    (X1, Y, Z, X2).
    """
    yf, x1f, x2f, zf = (as_field(v) for v in (y, x1, x2, z_slot))
    g = chart.jet1(x).g
    zv = zf(x)
    x2v = x2f(x)
    t1, s2 = _t_and_s(pair, chart, x, yf, x1f, x2f, zf)
    t2, s1 = _t_and_s(pair.swapped(), chart, x, x1f, yf, zf, x2f)
    return {
        "t1": la.bilinear(g, t1, zv),
        "t2": la.bilinear(g, t2, x2v),
        "s1": la.bilinear(g, s1, zv),
        "s2": la.bilinear(g, s2, x2v),
    }


def curvature_term(pair, chart, x, y, x1, x2, z_slot):
    """The curvature-type fifth term rp of the identity at x: five towers.

    Takes the same arguments as :func:`tsr_tensors`.
    """
    yf, x1f, x2f, zf = (as_field(v) for v in (y, x1, x2, z_slot))
    p1, p2 = pair.p1, pair.p2
    p1s = adjoint_field(chart, p1)
    p2s = adjoint_field(chart, p2)

    p1x1 = apply_endo(p1, x1f)
    p2y = apply_endo(p2, yf)
    p1x2 = apply_endo(p1, x2f)
    p1sx2 = apply_endo(p1s, x2f)
    p1x1_at = p1x1(x)
    p2y_at = p2y(x)

    t_a = la.mat_vec(
        p2s(x), cov_at(chart, x, p2y_at, apply_endo(p2, nabla_field(chart, p1x1, p1sx2)))
    )
    t_b = la.mat_vec(
        p2(x), cov_at(chart, x, p2y_at, apply_endo(p1s, nabla_field(chart, p1x1, p1x2)))
    )
    t_c = la.mat_vec(
        p2s(x), cov_at(chart, x, p1x1_at, apply_endo(p1, nabla_field(chart, p2y, p1sx2)))
    )
    t_d = la.mat_vec(
        p2(x), cov_at(chart, x, p1x1_at, apply_endo(p2s, nabla_field(chart, p2y, p1x2)))
    )
    w = la.mat_vec(
        la.mat_add(p1s(x), p2s(x)), lie_bracket(p2y, p1x1)(x)
    )
    t_e = la.mat_vec(p2(x), cov_at(chart, x, w, p1sx2))
    rp_vec = la.vec_sub(la.vec_sub(la.vec_sub(la.vec_add(t_a, t_b), t_c), t_d), t_e)
    return la.bilinear(chart.jet1(x).g, rp_vec, zf(x))


def codazzi_residual(pair, chart, x, y, x1, x2, z_slot):
    """t1 + t2 + s1 + s2 + rp = 0 at x: the record ``{"codazzi": ...}``."""
    parts = tsr_tensors(pair, chart, x, y, x1, x2, z_slot)
    parts["rp"] = curvature_term(pair, chart, x, y, x1, x2, z_slot)
    return {"codazzi": Identity(tuple((k, LHS, v) for k, v in parts.items()), None, rule, None)}


# -- modified divergence ------------------------------------------------------


def pp_star_field(chart, p_endo):
    """Field closure z -> Q(z) = P P^*, always metric-self-adjoint."""

    def fld(z):
        jet = chart.jet1(z)
        p = p_endo(z)
        return la.mat_mul(p, adjoint_matrix(jet.g, jet.g_inv, p))

    return fld


def div_endo_gnorm(chart, endo_field, x):
    """|div S|_g at x: the norm of the divergence covector of S, through the
    inverse metric."""
    g_inv = chart.jet1(x).g_inv
    omega = div_endo(chart, endo_field, x)
    n = len(omega)
    val = sum(omega[i] * g_inv[i][j] * omega[j] for i in range(n) for j in range(n))
    return np.sqrt(np.maximum(val, 0.0))


def div_p(p_endo, chart, vec_field, x):
    """div_P X in trace form, sum_{m,k} Q^m_k (nabla_m X)^k with Q = P P^*
    (no assumption on P)."""
    q = pp_star_field(chart, p_endo)(x)
    return _div_p_of(q, cov_deriv_vector(chart, vec_field, x))


def _div_p_of(q, cov):
    """sum_{m,k} Q^m_k cov[m][k] for Q and a covariant Jacobian cov."""
    n = len(q)
    return sum(q[m][k] * cov[m][k] for m in range(n) for k in range(n))


def _hs_inner_of(jet, q, cov):
    """tr((nabla X)^* Q) for Q and the covariant Jacobian cov of X."""
    grad_endo = la.transpose(cov)  # (nabla X)^k_i as a mixed matrix
    grad_star = adjoint_matrix(jet.g, jet.g_inv, grad_endo)
    return la.trace(la.mat_mul(grad_star, q))


def div_equivalence_residuals(p_endo, chart, vec_field, x, scalar_field):
    """The modified-divergence characterization at x, as a record.

    ``div_pp_star`` is the precondition, the divergence-free defect of
    Q = P P^*.  The identities, normalized by :func:`identity.shared_routes`,
    are ``div_qx``: div_P X = div(Q X), ``hs_inner``: div_P X = <Q, nabla X>
    (which holds unconditionally) and ``leibniz``: div_P(f X) = f div(Q X) +
    (Q X)(f).
    """
    jet = chart.jet1(x)
    q_field = pp_star_field(chart, p_endo)
    div_q_norm = div_endo_gnorm(chart, q_field, x)

    # one Q and one covariant Jacobian of X serve div_P X and <Q, nabla X>
    q = q_field(x)
    cov = cov_deriv_vector(chart, vec_field, x)
    dp = _div_p_of(q, cov)
    div_qx = div_vector(chart, apply_endo(q_field, vec_field), x)
    hs = _hs_inner_of(jet, q, cov)

    def fx_field(z):
        return la.vec_scale(scalar_field(z), vec_field(z))

    qx_at = la.mat_vec(q, vec_field(x))
    identities = {
        "div_qx": (("div_p", LHS, dp), ("div_qx", RHS, div_qx)),
        "hs_inner": (("div_p", LHS, dp), ("hs_inner", RHS, hs)),
        "leibniz": (
            ("div_p_fx", LHS, _div_p_of(q, cov_deriv_vector(chart, fx_field, x))),
            ("f_div_qx", RHS, scalar_field(x) * div_qx),
            ("qx_f", RHS, directional(scalar_field, x, qx_at)[1]),
        ),
    }
    record = one_term({"div_pp_star": div_q_norm}, precondition, None)
    for key, terms in identities.items():
        record[key] = Identity(terms, None, shared_routes, (dp, div_qx, hs))
    return record


# -- batched component engine --------------------------------------------------


def _diff_field(field, cols, n_nodes):
    """Stack field values and all first partials: (value, d[k] array)."""
    val, d = partials(field, cols)
    return la.nested_to_array(val, n_nodes), la.nested_to_array(d, n_nodes)


def _frame_slots(val):
    """The slots s of a projected frame, value val[k][s], whose column is not
    a structural zero in every row.  Read off the nesting, so the slots
    depend on the pair's structure alone, never on the nodes."""
    return [s for s in range(len(val[0])) if not all(la.is_zero(row[s]) for row in val)]


def _on_kept_slots(parts):
    """The nested lists of a projected frame's pass, value first, each with
    its last list axis (the frame slot) cut to the kept slots; the lists
    themselves when every slot is kept.

    A structural zero has zero derivatives of every order, so a column that
    is one in the value is one in every derivative too."""
    slots = _frame_slots(parts[0])
    if len(slots) == len(parts[0][0]):
        return parts

    def take(c):
        return [take(e) for e in c] if isinstance(c[0], list) else [c[s] for s in slots]

    return [take(c) for c in parts]


def _frame_partials(f_field, cols, n_nodes):
    """The projected frame F's value and first partials on its kept slots
    (see :func:`_frame_slots`)."""
    val, d = _on_kept_slots(partials(f_field, cols))
    return la.nested_to_array(val, n_nodes), la.nested_to_array(d, n_nodes)


def _projected_frame(chart, p_endo):
    """Field z -> P L, the orthonormal frame L = frame_at projected by P."""

    def fld(z):
        return la.mat_mul(p_endo(z), frame_at(chart, z))

    return fld


def _frame_jet(a_field, cols, n_nodes):
    """On A's kept slots (see :func:`_frame_slots`), A's value a0 and first
    partials da, and its second partials read along A:
    a_d2a[d, k, s] = sum_i A^i_s d_d d_i A^k_s.

    second_partials fills d2[d][i] and d2[i][d] with one object, so a_d2a is
    also the derivative along A_s of d_d A_s.  The n^4 array of all second
    partials is freed on return."""
    val, d, d2 = _on_kept_slots(second_partials(a_field, cols))
    a0 = la.nested_to_array(val, n_nodes)
    d2a = la.nested_to_array(d2, n_nodes)
    return a0, la.nested_to_array(d, n_nodes), np.einsum("isn,diksn->dksn", a0, d2a)


def _along_a(chart, a_field, cols, n_nodes):
    """The second-order inputs, each read along A as soon as it is computed.

    Returns A's value a0, first partials da and a_d2a on its kept slots
    (see :func:`_frame_jet`); then Gamma, gam_a[i, k, t] =
    Gamma^k_{im} A^m_t and the partials of Gamma read along A in each slot:
    q_low[d, k, s] = A^i_s d_d Gamma^k_{im} A^m_s and q_dir[i, k, s] =
    A^d_s d_d Gamma^k_{im} A^m_s.

    q = (d Gamma) A is the engine's one n^5 contraction; it and d Gamma are
    freed on return.  The pass of Gamma runs first: with A's second-order
    pass first the traced peak is the same, but the hopf-s3 formula
    invocation took about two and a half times the minor page faults."""
    gam0, dgam = _diff_field(christoffel_field(chart), cols, n_nodes)
    a0, da, a_d2a = _frame_jet(a_field, cols, n_nodes)
    q = np.einsum("dkimn,mtn->dkitn", dgam, a0)
    return (
        a0,
        da,
        a_d2a,
        gam0,
        np.einsum("kimn,mtn->iktn", gam0, a0),
        np.einsum("isn,dkisn->dksn", a0, q),
        np.einsum("dsn,dkisn->iksn", a0, q),
    )


def _second_forms(g0, frames):
    """The squared norms of h, T and the mean curvature vector H of each
    distribution.  frames holds (F, cov_f, P) per distribution: its projected
    frame on the kept slots, cov_f[i, k, t] = (nabla_{d_i} F_t)^k and the
    projector onto the other one.  Each form lives on the kept slots only
    while its norm is taken, and H is the trace of h there.

    A norm such as |h1|^2 is <P2 x, x> with x the unprojected form, which is
    |P2 x|^2 for an orthogonal projector and is linear in the pair."""
    out = {}
    for i, (f0, cov_f, proj) in enumerate(frames, 1):
        m = np.einsum("isn,iktn->kstn", f0, cov_f)  # nabla_{F_s} F_t
        for key, sign in (("h", 1.0), ("t", -1.0)):
            pre = 0.5 * (m + sign * np.swapaxes(m, 1, 2))
            form = np.einsum("kmn,mstn->kstn", proj, pre)
            # <P pre, pre> summed over the frame indices s, t
            out[f"norm_{key}{i}"] = np.einsum("kstn,kln,lstn->n", form, g0, pre)
            if key == "h":
                hv = np.einsum("kssn->kn", form)
        out[f"norm_H{i}"] = np.einsum("kn,kln,ln->n", hv, g0, np.einsum("kssn->kn", m))
    return out


def _b_derivative_term(gam0, gam_a, q_low, a0, da, a_d2a, cov_a, p0, dp, b0, b_low):
    """sum_{s,t} <nabla_{B_t}(P nabla_{A_s} A_s), B_t>.

    Gamma is symmetric in its lower slots, so A^j_s Gamma^m_{jq} is
    gam_a[q, m, s]; the same holds in :func:`_a_derivative_terms`."""
    m1 = np.einsum("isn,iksn->ksn", a0, cov_a)  # nabla_{A_s} A_s
    # d_d of A^j_s (d_j A^m_s + Gamma^m_{jq} A^q_s), term by term
    dm1 = (
        np.einsum("djsn,jmsn->dmsn", da, cov_a)
        + a_d2a
        + q_low
        + np.einsum("qmsn,dqsn->dmsn", gam_a, da)
    )
    g1 = np.einsum("kmn,msn->ksn", p0, m1)
    dg1 = np.einsum("dkmn,msn->dksn", dp, m1) + np.einsum("kmn,dmsn->dksn", p0, dm1)
    cg1 = dg1 + np.einsum("kimn,msn->iksn", gam0, g1)
    return np.einsum("itn,iksn,ktn->n", b0, cg1, b_low)


def _a_derivative_terms(gam0, gam_a, q_dir, a0, da, a_d2a, cov_a, p0, dp, b0, db, g0, b_low):
    """sum_{s,t} <nabla_{A_s}(P nabla_{B_t} A_s), B_t> and
    sum_{s,t} <nabla_{P [B_t, A_s]} A_s, B_t>.

    Every derivative is read along A_s before anything is expanded, so no
    array carries a free derivative index."""
    adb = np.einsum("dsn,djtn->jtsn", a0, db)  # D_{A_s} B_t
    m3 = np.einsum("jtn,jmsn->mtsn", b0, cov_a)  # nabla_{B_t} A_s
    # D_{A_s} of (nabla_{d_j} A_s)^m = d_j A^m_s + Gamma^m_{jq} A^q_s
    a_da = np.einsum("dsn,dmsn->msn", a0, da)  # D_{A_s} A_s
    a_cov = a_d2a + q_dir + np.einsum("kimn,msn->iksn", gam0, a_da)
    a_m3 = np.einsum("jtsn,jmsn->mtsn", adb, cov_a) + np.einsum("jtn,jmsn->mtsn", b0, a_cov)
    g2 = np.einsum("kmn,mtsn->ktsn", p0, m3)
    # nabla_{A_s} g2 = D_{A_s} P . m3 + P D_{A_s} m3 + Gamma(A_s, g2)
    cg2 = (
        np.einsum("kmsn,mtsn->ktsn", np.einsum("isn,ikmn->kmsn", a0, dp), m3)
        + np.einsum("kmn,mtsn->ktsn", p0, a_m3)
        + np.einsum("mksn,mtsn->ktsn", gam_a, g2)
    )
    term2 = np.einsum("ktsn,kln,ltn->n", cg2, g0, b0)

    lie = np.einsum("itn,imsn->mtsn", b0, da) - adb
    v_lie = np.einsum("kmn,mtsn->ktsn", p0, lie)
    term3 = np.einsum("itsn,iksn,ktn->n", v_lie, cov_a, b_low)
    return term2, term3


def dist_invariants_batch(chart, pair, cols):
    """The seven frame-summed terms of the integral formula at a batch of
    nodes, one (N,) array each, keyed ``smix``, ``norm_h1``, ``norm_h2``,
    ``norm_t1``, ``norm_t2``, ``norm_H1`` and ``norm_H2``: what
    :func:`formula_record` reads, and nothing else.

    Valid for self-adjoint pairs (the curvature-type trace uses the reduced
    form).

    The projected frames A = P1 L and B = P2 L keep only their slots that are
    not structural zeros (:func:`_frame_slots`), so every frame-indexed
    einsum runs over those, and no form leaves the engine.  The slots are cut
    from the nested lists before any array is built, and not at all when
    every slot is kept: einsum's summation order follows its operands'
    strides, and taking all slots of the built arrays by fancy indexing
    moved hopf-s3 formula values by up to 1.8e-15.  On every scenario in the
    tests the outputs are bit for bit the ones on all n slots.

    Each derivative index is contracted with the frame vector it is read
    along before anything is expanded, so no loop nest runs above n^4 per
    node apart from the one contraction (d Gamma) A, and no product of three
    factors above n^4.  Each phase (the second partials of A, the partials of
    Gamma, the forms, the derivative terms of the mixed curvature) runs in a
    helper whose arrays are freed when it returns.  The reductions to one
    value per node multiply three factors, since numpy sums a one-node batch
    of a two-factor product in another order; so each node's outputs are the
    same bits at any batch size.
    """
    n_nodes = cols[0].shape[0]
    a_field, b_field = _projected_frame(chart, pair.p1), _projected_frame(chart, pair.p2)

    # the projected frame A = P1 L, B = P2 L on their kept slots; A's value
    # and first partials come from its second-order pass
    a0, da, a_d2a, gam0, gam_a, q_low, q_dir = _along_a(chart, a_field, cols, n_nodes)
    b0, db = _frame_partials(b_field, cols, n_nodes)
    p0, dp = _diff_field(pair.total(), cols, n_nodes)
    g0 = la.nested_to_array(chart.jet1(cols).g, n_nodes)

    # cov_a[i, k, t] = (nabla_{d_i} A_t)^k
    cov_a = da + gam_a

    # mixed curvature trace, reduced form: sum over frame pairs (s, t) of
    #   <nabla_{B_t}(P nabla_{A_s} A_s), B_t> - <nabla_{A_s}(P nabla_{B_t} A_s), B_t>
    #   - <nabla_{P [B_t, A_s]} A_s, B_t>
    b_low = np.einsum("kln,ltn->ktn", g0, b0)  # <., B_t>
    term1 = _b_derivative_term(gam0, gam_a, q_low, a0, da, a_d2a, cov_a, p0, dp, b0, b_low)
    term2, term3 = _a_derivative_terms(
        gam0, gam_a, q_dir, a0, da, a_d2a, cov_a, p0, dp, b0, db, g0, b_low
    )

    # the forms go last, so p1, p2 and cov_b are not held through the terms
    p1 = la.nested_to_array(pair.p1(cols), n_nodes)
    p2 = la.nested_to_array(pair.p2(cols), n_nodes)
    cov_b = db + np.einsum("kimn,mtn->iktn", gam0, b0)
    out = _second_forms(g0, ((a0, cov_a, p2), (b0, cov_b, p1)))
    out["smix"] = term1 - term2 - term3
    return out


def formula_record(chart, pair, cols):
    """The right side of the divergence formula at a batch, the record
    ``{"formula": ...}`` of its seven signed terms and no left side:
    smix + |h1|^2 + |h2|^2 - |t1|^2 - |t2|^2 - |H1|^2 - |H2|^2.  Its scale
    is |smix| plus the six norms, summed left to right."""
    raw = dist_invariants_batch(chart, pair, cols)
    terms, scale = [("smix", RHS, raw["smix"])], np.abs(raw["smix"])
    for sign, key in (("", "h1"), ("", "h2"), ("-", "t1"), ("-", "t2"), ("-", "H1"), ("-", "H2")):
        norm = raw[f"norm_{key}"]
        terms.append((f"{sign}norm_{key}", RHS, -norm if sign else norm))
        scale = scale + norm
    return {"formula": Identity(tuple(terms), None, engine_scale, scale)}


def mean_curvature_field(chart, pair):
    """Field z -> H1 + H2 = P2 sum_s nabla_{A_s} A_s + P1 sum_s nabla_{B_s} B_s,
    with A = P1 L and B = P2 L the projected orthonormal frame.

    Built on nested lists, so z may be a dual point: the field can be
    differentiated, which is how walczak takes div_P(H1 + H2).
    """
    n = chart.dim
    a_field, b_field = _projected_frame(chart, pair.p1), _projected_frame(chart, pair.p2)

    def trace_cov(f0, df, gamma):
        # sum_s (nabla_{F_s} F_s)^k = sum_{i,s} F^i_s (d_i F^k_s + Gamma^k_{im} F^m_s)
        ff = la.mat_mul(f0, la.transpose(f0))  # ff[i][m] = sum_s F^i_s F^m_s
        return [
            sum(f0[i][s] * df[i][k][s] for i in range(n) for s in range(n))
            + sum(gamma[k][i][m] * ff[i][m] for i in range(n) for m in range(n))
            for k in range(n)
        ]

    def fld(z):
        gamma = chart.jet1(z).gamma
        # one pass for both, so the pair's fields share the jet of its point
        (a0, b0), d = partials(lambda w: [a_field(w), b_field(w)], z)
        h1 = la.mat_vec(pair.p2(z), trace_cov(a0, [di[0] for di in d], gamma))
        h2 = la.mat_vec(pair.p1(z), trace_cov(b0, [di[1] for di in d], gamma))
        return la.vec_add(h1, h2)

    return fld


def walczak_residual_batch(chart, pair, cols):
    """The divergence formula at a batch of nodes: the record ``{"walczak": ...}``,
    :func:`formula_record` with div_P(H1 + H2), P = P1 + P2, on the left.

    Both sides are AD-exact: the left side is :func:`div_p` of
    :func:`mean_curvature_field` on the batch, one vector pass whose field
    nests the passes of the projected frame.
    """
    lhs = div_p(pair.total(), chart, mean_curvature_field(chart, pair), cols)
    (formula,) = formula_record(chart, pair, cols).values()
    terms = (("div_p_mean_curvature", LHS, lhs), *formula.terms)
    return {"walczak": formula._replace(terms=terms)}


# -- frame-trace identities ----------------------------------------------------


def trace_identity_residuals(pair, chart, cols):
    """Frame-trace identities for the four curvature-identity ingredients.

    The left sides sum the four-argument tensors over an orthonormal frame
    field; the right sides are the independently-derived divergence-style
    expressions.  Returns a record: ``t1``, ``t2``, ``s1`` and ``s2``, each
    the frame sum ``trace`` (lhs) against its ``formula`` (rhs), and ``aux``,
    the auxiliary index-2 cancellation sum.  Preconditions: pair allowed and
    self-adjoint.

    cols is a column batch of N points; every term is an (N,) array.  The
    frame indices s and t get axes of their own in front of the points: the
    point is evaluated with shape (1, 1, N) and the frame vectors e_s, e_t
    with shapes (n, 1, N) and (1, n, N), so every term below is one tower
    evaluation over the (n, n, N) pairs and points, while quantities of the
    point alone (metric, frame) are computed at the N points only.
    """
    n = chart.dim
    n_nodes = cols[0].shape[0]
    shape = (n, n, n_nodes)
    z = Point(c.reshape(1, 1, n_nodes) for c in cols)

    g = chart.jet1(z).g
    p1, p2 = pair.p1, pair.p2
    p1_z, p2_z = p1(z), p2(z)
    e_s = frame_column_field(chart, np.arange(n).reshape(n, 1, 1))
    e_t = frame_column_field(chart, np.arange(n).reshape(1, n, 1))
    p1_s, p1_t = apply_endo(p1, e_s), apply_endo(p1, e_t)
    p2_s, p2_t = apply_endo(p2, e_s), apply_endo(p2, e_t)

    def ip(a, b):
        return la.bilinear(g, a, b)

    def pair_sum(value):
        """Per-point sum over the frame pairs, in pair order."""
        return sum(np.broadcast_to(value, shape).reshape(n * n, n_nodes))

    lhs = tsr_tensors(pair, chart, z, e_t, e_s, e_s, e_t)

    # covariant derivatives of projected frame fields, na[s, t] = nabla_{P1 e_s} P1 e_t;
    # diagonal(c)[p, s] = c[s, s, p] goes back onto the s or the t axis
    na = [np.broadcast_to(c, shape) for c in cov_at(chart, z, p1_s(z), p1_t)]
    nb = [np.broadcast_to(c, shape) for c in cov_at(chart, z, p2_s(z), p2_t)]
    na_ss = [np.diagonal(c).T[:, None] for c in na]
    nb_tt = [np.diagonal(c).T[None] for c in nb]
    na_ts = [np.swapaxes(c, 0, 1) for c in na]
    nb_ts = [np.swapaxes(c, 0, 1) for c in nb]

    # index-1 trace: <nabla_{P1 e_s} P1 e_s, P1 nabla_{P2 e_t} P2 e_t>
    #                - D_{P1 e_s} <P1 nabla_{P2 e_t} P2 e_t, P1 e_s>
    def scal_1(w):
        v = cov_at(chart, w, p2_t(w), p2_t)
        return la.bilinear(chart.jet1(w).g, la.mat_vec(p1(w), v), p1_s(w))

    t1 = ip(na_ss, la.mat_vec(p1_z, nb_tt)) - directional(scal_1, z, p1_s(z))[1]

    # index-2 trace: D_{P2 e_t} <nabla_{P1 e_s} P2 e_t, P1 e_s>
    #                + <nabla_{P2 e_t} P2 e_t, P2 nabla_{P1 e_s} P1 e_s>
    def scal_2(w):
        v = cov_at(chart, w, p1_s(w), p2_t)
        return la.bilinear(chart.jet1(w).g, v, p1_s(w))

    t2 = directional(scal_2, z, p2_t(z))[1] + ip(nb_tt, la.mat_vec(p2_z, na_ss))

    s2 = ip(la.mat_vec(p2_z, na), na_ts)
    s1 = ip(la.mat_vec(p1_z, nb), nb_ts)

    # auxiliary cancellation: <P1 nabla_{P2 e_s} P2 e_t, nabla_{P2 e_t} P2 e_s>
    #                         + <nabla_{P2 nabla_{P2 e_t} P1 e_s} P2 e_t, P1 e_s>
    w = la.mat_vec(p2_z, cov_at(chart, z, p2_t(z), p1_s))
    aux = pair_sum(s1 + ip(cov_at(chart, z, w, p2_t), p1_s(z)))
    rhs = {"t1": pair_sum(t1), "t2": pair_sum(t2), "s1": pair_sum(s1), "s2": pair_sum(s2)}
    terms = {k: (("trace", LHS, pair_sum(lhs[k])), ("formula", RHS, r)) for k, r in rhs.items()}
    terms["aux"] = (("aux", LHS, aux),)
    return {key: Identity(t, None, fold_from_one, None) for key, t in terms.items()}


# -- contact-structure checks ------------------------------------------------


def contact_structure_residuals(phi, xi, chart, x):
    """The almost-contact structure equations at x, a record of preconditions."""
    n = chart.dim
    jet = chart.jet1(x)
    phi_m = phi(x)
    xi_v = xi(x)
    eta = [sum(jet.g[i][j] * xi_v[j] for j in range(n)) for i in range(n)]
    xi_eta = [[xi_v[i] * eta[j] for j in range(n)] for i in range(n)]
    proj = la.mat_sub(la.eye(n), xi_eta)  # I - xi (x) eta
    phi_star = adjoint_matrix(jet.g, jet.g_inv, phi_m)
    eta_phi = [sum(eta[i] * phi_m[i][j] for i in range(n)) for j in range(n)]
    defects = {
        "phi_squared": frob(la.mat_add(la.mat_mul(phi_m, phi_m), proj)),
        "phi_xi": frob([la.mat_vec(phi_m, xi_v)]),
        "eta_phi": frob([eta_phi]),
        "phi_phi_star": frob(la.mat_sub(la.mat_mul(phi_m, phi_star), proj)),
        "phi_star_phi": frob(la.mat_sub(la.mat_mul(phi_star, phi_m), proj)),
        "eta_xi": abs(la.bilinear(jet.g, xi_v, xi_v) - 1.0),
    }
    return one_term(defects, precondition, None)


def contact_identity_residual(phi, xi, chart, vec_x, x):
    """Divergence identity for phi phi^* against both candidate signs.

    The identity implemented as correct:
        (div phi phi^*)(X) = -( <nabla_xi xi, X> + (div xi) <xi, X> ).
    Returns a record of this (``plus``) and of the variant with the relative
    minus sign (``minus``).  Each lists the right side's terms acc and dv
    first, negated, so its residual is |div_s + (acc +- dv)|, normalized by
    :func:`identity.fold_from_one`.
    """
    xf = as_field(vec_x)
    jet = chart.jet1(x)
    xv = xf(x)
    s_field = pp_star_field(chart, phi)
    div_s = div_endo(chart, s_field, x)
    lhs = sum(div_s[j] * xv[j] for j in range(len(xv)))
    xi_v = xi(x)
    acc = la.bilinear(jet.g, cov_at(chart, x, xi_v, xi), xv)
    dv = div_vector(chart, xi, x) * la.bilinear(jet.g, xi_v, xv)
    record = {}
    for key, dv_term in (("plus", -dv), ("minus", dv)):
        terms = (("acc", RHS, -acc), ("dv", RHS, dv_term), ("div_s", LHS, lhs))
        record[key] = Identity(terms, None, fold_from_one, None)
    return record
