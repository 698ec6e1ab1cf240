"""Built-in verification scenarios: charts, pairs, samplers, quadrature specs.

Each scenario bundles a chart, an endomorphism pair with advertised flags and
a ``kind``.  The kind and the chart's dimension fix the sampling bounds for
pointwise checks and the per-axis quadrature layout; :data:`SCENARIOS` lists
the built-in scenarios by name.  Building a scenario evaluates nothing.  Its
advertised flags are measured on demand by :func:`probe_pair` (small seeded
point set) and re-verified at full strength by the checks — nothing
downstream trusts a flag that has not been measured.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dual as ops
from . import linalg as la
from .chart_geometry import Chart, point_columns
from .dist_tensors import div_endo_gnorm, pp_star_field
from .endo_fields import EndoPair, allowed_forms, check_pair
from .identity import reduce_record
from .quadrature import Axis, QuadratureGrid

TWO_PI = 2.0 * math.pi


@dataclass
class ScenarioManifold:
    """A chart and a pair on it.  On a "sphere-product" the first three
    coordinates are stereographic S^3: they are sampled in (-2, 2) and
    integrated in the angles (chi, theta, phi) of :func:`_angular_substitution`.
    Every other coordinate, and every coordinate of a "torus", is an angle,
    sampled and integrated (periodic rule) over (0, 2 pi)."""

    name: str
    chart: Chart
    pair: EndoPair
    kind: str  # "torus" | "sphere-product"
    extras: dict = dc_field(default_factory=dict)
    integrand_degenerate: bool = False

    def _sphere_dims(self):
        """Number of leading stereographic S^3 coordinates: 3 or 0."""
        return {"torus": 0, "sphere-product": 3}[self.kind]

    @property
    def quad_axes(self):
        k = self._sphere_dims()
        return _angular_axes()[:k] + (Axis("periodic", 0.0, TWO_PI),) * (self.chart.dim - k)

    @property
    def sample_bounds(self):
        k = self._sphere_dims()
        return ((-2.0, 2.0),) * k + ((0.0, TWO_PI),) * (self.chart.dim - k)

    def grid(self, counts):
        axes = self.quad_axes
        counts = (counts,) if isinstance(counts, int) else tuple(counts)
        if len(counts) == 1:
            counts *= len(axes)
        if len(counts) != len(axes):
            raise ValueError(f"scenario {self.name} needs {len(axes)} grid counts")
        substitution = _angular_substitution if self._sphere_dims() else None
        return QuadratureGrid(axes, counts, substitution)

    def sample_points(self, rng, count):
        """``count`` points drawn in one call, the stream of ``count`` rounds
        of one draw per coordinate."""
        lows, highs = zip(*self.sample_bounds)
        return rng.uniform(lows, highs, size=(count, self.chart.dim)).tolist()

    def sample_columns(self, rng, count):
        """``count`` sample points as one column batch."""
        return point_columns(self.sample_points(rng, count))

    def sample_slot_vectors(self, rng, count, k):
        """k random slot vectors per point, each as dim arrays over the points.

        One draw of shape (count, k, dim) gives the same stream as ``count``
        rounds of k draws of size dim.
        """
        dim = self.chart.dim
        v = rng.normal(size=(count, k, dim))
        return [[v[:, j, i] for i in range(dim)] for j in range(k)]


def probe_pair(scenario):
    """Light measurement of the advertised flags at five seeded points;
    returns the evidence dict.

    Nothing is stored on the scenario or its pair.  The probe points are
    evaluated as one column batch; every evidence value is the largest entry
    over them, NaN if any entry is NaN.
    """
    n_points = 5
    rng = np.random.default_rng(7)
    chart = scenario.chart
    pair = scenario.pair
    cols = scenario.sample_columns(rng, n_points)
    ev = {}
    record = check_pair(pair, chart, cols)
    defects = {k: record.pop(k) for k in ("p1", "p2") if k in record}
    ev["adapted"] = reduce_record(record)[0]
    if defects:
        ev["self_adjoint"] = reduce_record(defects)[0]
    if pair.allowed:
        vx, vy = scenario.sample_slot_vectors(rng, n_points, 2)
        ev["allowed"] = reduce_record(allowed_forms(pair, chart, cols, vx, vy))[0]
    if pair.div_pp_star_zero:
        q_field = pp_star_field(chart, pair.total())
        ev["div_pp_star"] = la.max_entry(div_endo_gnorm(chart, q_field, cols))
    if pair.div_p_squared_zero:
        p_total = pair.total()

        def p_sq(z):
            p = p_total(z)
            return la.mat_mul(p, p)

        ev["div_p_squared"] = la.max_entry(div_endo_gnorm(chart, p_sq, cols))
    return ev


# -- torus scenarios ---------------------------------------------------------


def _coordinate_torus(name, metric, **fields):
    """T^2 with ``metric`` and the projectors onto the two coordinate axes;
    ``fields`` sets the remaining :class:`ScenarioManifold` fields."""
    proj1 = [[1.0, 0.0], [0.0, 0.0]]
    proj2 = [[0.0, 0.0], [0.0, 1.0]]
    pair = EndoPair(
        p1=lambda _z: proj1,
        p2=lambda _z: proj2,
        self_adjoint=True,
        allowed=True,
        div_pp_star_zero=True,
        div_p_squared_zero=True,
    )
    return ScenarioManifold(
        name=name,
        chart=Chart(dim=2, metric=metric),
        pair=pair,
        kind="torus",
        **fields,
    )


def flat_torus_projectors():
    """Flat T^2 and the coordinate projectors."""
    identity = la.eye(2)
    return _coordinate_torus("flat-torus", lambda _z: identity, integrand_degenerate=True)


def warped_torus():
    """T^2 with metric du^2 + e^{2 sin u} dv^2 and the coordinate projectors."""

    def metric(z):
        return [[1.0, 0.0], [0.0, ops.exp(2.0 * ops.sin(z[0]))]]

    return _coordinate_torus("warped-torus", metric)


def scaled_identity():
    """The warped torus with both members of its pair doubled."""
    base = warped_torus()
    old1, old2 = base.pair.p1, base.pair.p2
    pair = dataclasses.replace(
        base.pair,
        p1=lambda z: la.mat_scale(2.0, old1(z)),
        p2=lambda z: la.mat_scale(2.0, old2(z)),
    )
    return dataclasses.replace(base, name="scaled-identity", pair=pair)


def non_allowed_rotated():
    """Adapted but non-self-adjoint, non-allowed pair on the warped torus.

    The images of the coordinate projectors are rotated by
    theta(u) = sin(u) / 2 inside the orthonormal frame; the rotation is a
    metric isometry, so the four adaptedness products still vanish exactly,
    but the derivative forms do not.  Used as the fail-path example for the
    allowedness check.
    """
    base = warped_torus()

    def rot(z):
        w = ops.sin(z[0])
        th = 0.5 * w
        c, s = ops.cos(th), ops.sin(th)
        ew = ops.exp(w)
        # F Rot(th) F^{-1} with F = diag(1, e^{-w}) mapping frame to coords
        return [[c, -s * ew], [s / ew, c]]

    def p1(z):
        r = rot(z)
        return [[r[0][0], 0.0], [r[1][0], 0.0]]

    def p2(z):
        r = rot(z)
        return [[0.0, r[0][1]], [0.0, r[1][1]]]

    pair = EndoPair(p1=p1, p2=p2, self_adjoint=False, allowed=False)
    return dataclasses.replace(base, name="warped-torus-rotated", pair=pair)


# -- sphere-product scenarios -------------------------------------------------


def _round_sphere_factor(z3):
    x, y, w = z3[0], z3[1], z3[2]
    return 2.0 / (1.0 + x * x + y * y + w * w)


def _s3_half(z3):
    """(|z|^2 - 1) / 2, the diagonal term of every :func:`_s3_frame` vector."""
    x, y, w = z3[0], z3[1], z3[2]
    return (x * x + y * y + w * w - 1.0) * 0.5


def _s3_e1(z3, half):
    """The first vector of :func:`_s3_frame` alone (the unit Hopf field);
    ``half`` is :func:`_s3_half` of the same point."""
    x, y, w = z3[0], z3[1], z3[2]
    return [half - x * x, w - x * y, -y - x * w]


def _s3_frame(z3):
    """Orthonormal left-invariant frame of the round 3-sphere, in the
    stereographic chart (unit vectors for the conformally flat metric)."""
    x, y, w = z3[0], z3[1], z3[2]
    half = _s3_half(z3)
    e2 = [-w - x * y, half - y * y, x - w * y]
    e3 = [y - x * w, -x - y * w, half - w * w]
    return _s3_e1(z3, half), e2, e3


def _sphere_q0(z3):
    """(q0, 1 / (1 + |z|^2)): the first embedding coordinate of the chart
    point and the factor of the other three."""
    x, y, w = z3[0], z3[1], z3[2]
    r2 = x * x + y * y + w * w
    den = 1.0 / (1.0 + r2)
    return (r2 - 1.0) * den, den


def _sphere_coords(z3):
    """Embedding coordinates (q0, q1, q2, q3) of the chart point — smooth,
    bounded building blocks for globally smooth test fields."""
    q0, den = _sphere_q0(z3)
    return [q0, 2.0 * z3[0] * den, 2.0 * z3[1] * den, 2.0 * z3[2] * den]


def einstein_a1(u):
    """The S^3-block coefficient of P: a smooth square root of -E(u), with
    E(u) = -sin^2 u ((cos^2 u - 5) cos^2 u + 10) / (1 + sin^2 u)^3 the
    repeated S^3-block eigenvalue of the mixed Einstein tensor of the
    einstein_s3xt2 metric.  The tests keep E's closed form as an oracle.

    It is sin(u) c(u) with c(u) = sqrt((cos^2 u - 5) cos^2 u + 10) /
    (1 + sin^2 u)^(3/2); the radicand is at least 6, so the coefficient is
    C^infinity, and its u-derivative at u = 0 is c(0) = sqrt(6).  It is the
    non-negative root where sin u >= 0 and the negative one elsewhere.
    """
    s = ops.sin(u)
    c2 = ops.cos(u) ** 2
    return s * ops.sqrt((c2 - 5.0) * c2 + 10.0) / (1.0 + s * s) ** 1.5


def _angular_axes():
    return (
        Axis("legendre", 0.0, math.pi),
        Axis("legendre", 0.0, math.pi),
        Axis("periodic", 0.0, TWO_PI),
    )


def _angular_substitution(params):
    """(chart columns, jacobian) at the angles (chi, theta, phi) of the
    stereographic S^3 coordinates, radius tan(chi / 2); the parameters after
    the first three are chart coordinates already."""
    chi, theta, phi = params[0], params[1], params[2]
    r = np.tan(0.5 * chi)
    sin_t = np.sin(theta)
    cols = [r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * np.cos(theta), *params[3:]]
    return cols, r * r * sin_t * 0.5 / np.cos(0.5 * chi) ** 2


def einstein_s3xt2():
    """Product of the round 3-sphere (radius-2 conformal factor) with a flat
    2-torus rescaled by 1 + sin^2 u; the pair is a smooth square root of
    minus the mixed Einstein tensor, split along the two factors.  It is the
    PSD root where sin u >= 0; elsewhere P1 is minus that root's S^3 block.
    The rank of P1 drops from 3 to 0 where sin u = 0."""
    dim = 5
    sqrt3 = math.sqrt(3.0)

    def metric(z):
        lam = _round_sphere_factor(z)
        lam2 = lam * lam
        tu = 1.0 + ops.sin(z[3]) ** 2
        row = lambda i, v: [v if j == i else 0.0 for j in range(dim)]
        return [row(0, lam2), row(1, lam2), row(2, lam2), row(3, tu), row(4, tu)]

    chart = Chart(dim=dim, metric=metric)

    def p1(z):
        a = einstein_a1(z[3])
        return [
            [a if (i == j and i < 3) else 0.0 for j in range(dim)] for i in range(dim)
        ]

    p2_mat = [
        [sqrt3 if (i == j and i >= 3) else 0.0 for j in range(dim)] for i in range(dim)
    ]

    pair = EndoPair(
        p1=p1,
        p2=lambda _z: p2_mat,
        self_adjoint=True,
        allowed=True,
        div_pp_star_zero=True,
        div_p_squared_zero=True,
    )
    return ScenarioManifold(
        name="einstein-s3xt2",
        chart=chart,
        pair=pair,
        kind="sphere-product",
        integrand_degenerate=True,
    )


_EPS3 = [
    [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
    [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
]


def _cross_product_endo(chart, xi):
    """phi^k_j = sqrt(det g) g^{kl} eps_{lmj} xi^m — rotation by a quarter
    turn around xi in its orthogonal complement (3-d charts only).

    sqrt(det g) multiplies only the entries of g^{-1} cross that are not
    structural zeros.  Each row of cross holds two entries of xi, so a NaN
    in xi or in sqrt(det g) still reaches phi."""

    def fld(z):
        jet = chart.jet1(z)
        xiv = xi(z)
        cross = [la.mat_vec(la.transpose(eps_l), xiv) for eps_l in _EPS3]  # eps_{lmj} xi^m
        s = jet.sqrt_det
        return [
            [x if la.is_zero(x) else s * x for x in row]
            for row in la.mat_mul(jet.g_inv, cross)
        ]

    return fld


def _unit_field_projectors(chart, xi):
    """Complementary orthoprojectors: onto span(xi) and its complement.

    ``p2`` evaluates xi once and lowers it with g for the covector eta."""

    def p2(z):
        xiv = xi(z)
        ev = la.mat_vec(chart.jet1(z).g, xiv)
        return [[xiv[i] * ev[j] for j in range(3)] for i in range(3)]

    def p1(z):
        return la.mat_sub(la.eye(3), p2(z))

    return p1, p2


def _hopf_scenario(name, conformal_strength=0.0):
    def psi(z):
        return conformal_strength * _sphere_q0(z)[0]

    def metric(z):
        lam = _round_sphere_factor(z)
        f = lam * lam
        if conformal_strength != 0.0:
            f = f * ops.exp(2.0 * psi(z))
        return [
            [f, 0.0, 0.0],
            [0.0, f, 0.0],
            [0.0, 0.0, f],
        ]

    chart = Chart(dim=3, metric=metric)

    def xi(z):
        e1 = _s3_e1(z, _s3_half(z))
        if conformal_strength == 0.0:
            return e1
        return la.vec_scale(ops.exp(-psi(z)), e1)

    phi = _cross_product_endo(chart, xi)
    p1, p2 = _unit_field_projectors(chart, xi)
    pair = EndoPair(
        p1=p1,
        p2=p2,
        self_adjoint=True,
        allowed=True,
        div_pp_star_zero=True,
        div_p_squared_zero=True,
    )
    return ScenarioManifold(
        name=name,
        chart=chart,
        pair=pair,
        kind="sphere-product",
        integrand_degenerate=True,
        extras={"xi": xi, "phi": phi},
    )


def hopf_contact_s3():
    """Round 3-sphere with its unit Killing circle field and the quarter-turn
    endomorphism around it; the pair splits the circle from its complement."""
    return _hopf_scenario("hopf-s3")


def conformal_hopf():
    """Conformal rescale of the round sphere (by e^{0.3 q0}, q0 the first
    embedding coordinate) keeping the circle field unit.

    Here the circle field is no longer geodesic or divergence-free, which is
    what separates the two candidate signs of the contact divergence identity.
    """
    return _hopf_scenario("hopf-s3-conformal", conformal_strength=0.3)


# -- registry & samplers ------------------------------------------------------

SCENARIOS = {
    "flat-torus": flat_torus_projectors,
    "scaled-identity": scaled_identity,
    "warped-torus": warped_torus,
    "einstein-s3xt2": einstein_s3xt2,
    "hopf-s3": hopf_contact_s3,
}
SCENARIO_NAMES = tuple(SCENARIOS)


def build_scenario(name):
    """The built-in scenario ``name``; KeyError for an unknown name."""
    return SCENARIOS[name]()


def _trig_basis(z):
    """The trigonometric building blocks of every :func:`_trig_scalar` over
    the coordinates ``z``: (sin z_i, cos z_i, sin 2z_i, cos 2z_i) for each
    coordinate, and cos(z_i - z_j) for each pair i < j.  A field computes
    them once per point and passes them to all of its trig coefficients."""
    per_coord = []
    for zi in z:
        per_coord.append((ops.sin(zi), ops.cos(zi), ops.sin(zi + zi), ops.cos(zi + zi)))
    cross = [ops.cos(z[i] - z[j]) for i, j in itertools.combinations(range(len(z)), 2)]
    return per_coord, cross


def _trig_scalar(rng, dim, scale=1.0):
    """Random trigonometric polynomial in ``dim`` angles, evaluated on the
    angles' :func:`_trig_basis`."""
    c0 = float(rng.normal()) * scale
    amp = rng.normal(size=(dim, 4)) * (scale / math.sqrt(dim))
    n_pairs = dim * (dim - 1) // 2
    cross = rng.normal(size=(n_pairs,)) * (scale / max(1.0, math.sqrt(n_pairs)))

    def f(basis):
        per_coord, cross_cos = basis
        val = c0
        for a, (s1, c1, s2, c2) in zip(amp, per_coord):
            val = val + a[0] * s1 + a[1] * c1 + a[2] * s2 + a[3] * c2
        for w, c in zip(cross, cross_cos):
            val = val + w * c
        return val

    return f


def _sphere_scalar(rng, scale=1.0):
    """Random quadratic in the embedding coordinates ``q`` (from
    :func:`_sphere_coords`); callers compute q once per point for all of
    their coefficients.  It is evaluated in Horner form over the upper
    triangle of the symmetrised quadratic,
    lin_0 + sum_i q_i (lin_{i+1} + sum_{j >= i} S_ij q_j) with S_ii = Q_ii
    and S_ij = Q_ij + Q_ji: four products of two coordinates' values and
    ten coefficient products instead of sixteen of each."""
    lin = rng.normal(size=(5,)) * scale
    quad = rng.normal(size=(4, 4)) * (0.5 * scale)
    upper = [
        [quad[i][i]] + [quad[i][j] + quad[j][i] for j in range(i + 1, 4)] for i in range(4)
    ]

    def f(q):
        val = lin[0]
        for i in range(4):
            inner = lin[i + 1]
            for s, qj in zip(upper[i], q[i:]):
                inner = inner + s * qj
            val = val + q[i] * inner
        return val

    return f


def random_scalar_field(scenario, rng):
    dim = scenario.chart.dim
    if scenario.kind == "torus":
        trig = _trig_scalar(rng, dim)
        return lambda z: trig(_trig_basis(z))
    sphere = _sphere_scalar(rng)
    if dim == 3:
        return lambda z: sphere(_sphere_coords(z))
    tail = _trig_scalar(rng, dim - 3, scale=0.5)

    def f(z):
        t = tail(_trig_basis(z[3:]))
        return sphere(_sphere_coords(z[:3])) * (1.0 + 0.3 * t) + t

    return f


def random_vector_field(scenario, rng):
    dim = scenario.chart.dim
    if scenario.kind == "torus":
        comps = [_trig_scalar(rng, dim) for _ in range(dim)]

        def fld(z):
            basis = _trig_basis(z)
            return [c(basis) for c in comps]

        return fld

    if dim == 3:
        coeffs = [_sphere_scalar(rng) for _ in range(3)]

        def fld3(z):
            frame = _s3_frame(z)
            q = _sphere_coords(z)
            cs = [c(q) for c in coeffs]
            return [
                cs[0] * frame[0][i] + cs[1] * frame[1][i] + cs[2] * frame[2][i]
                for i in range(3)
            ]

        return fld3

    sphere_coeffs = [_sphere_scalar(rng, scale=0.7) for _ in range(3)]
    angle_coeffs = [_trig_scalar(rng, dim - 3, scale=0.5) for _ in range(3)]
    tail_s = [_sphere_scalar(rng, scale=0.6) for _ in range(dim - 3)]
    tail_t = [_trig_scalar(rng, dim - 3, scale=0.7) for _ in range(dim - 3)]

    def fld(z):
        s3 = z[:3]
        frame = _s3_frame(s3)
        q = _sphere_coords(s3)
        basis = _trig_basis(z[3:])
        cs = [
            sphere_coeffs[m](q) * (1.0 + 0.5 * angle_coeffs[m](basis))
            for m in range(3)
        ]
        out = [
            cs[0] * frame[0][i] + cs[1] * frame[1][i] + cs[2] * frame[2][i]
            for i in range(3)
        ]
        out.extend(tail_s[a](q) * tail_t[a](basis) for a in range(dim - 3))
        return out

    return fld
