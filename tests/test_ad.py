"""Forward-mode differentiation core: values, derivatives, nesting, and the
derivative engine (directional / partials / second_partials)."""

from __future__ import annotations

import math

import numpy as np
import pytest

import distpair.dual as ops
import distpair.linalg as la
from distpair.chart_geometry import point_columns
from distpair.dual import (
    Dual,
    directional,
    fresh_tag,
    partials,
    second_partials,
    seed_point,
)


def test_first_derivative_closed_form():
    def f(t):
        return ops.sin(t) * ops.exp(ops.cos(t))

    for t0 in (0.0, 0.7, -1.3, 2.9):
        tag = fresh_tag()
        d = f(Dual(tag, t0, 1.0))
        want = math.cos(t0) * math.exp(math.cos(t0)) - math.sin(t0) ** 2 * math.exp(
            math.cos(t0)
        )
        assert abs(d.eps - want) < 1e-12
        assert abs(d.val - math.sin(t0) * math.exp(math.cos(t0))) < 1e-15


def test_division_and_pow():
    tag = fresh_tag()
    x = Dual(tag, 2.0, 1.0)
    y = (x**3 + 1.0) / x
    # d/dx (x^2 + 1/x) = 2x - 1/x^2
    assert abs(y.val - 4.5) < 1e-15
    assert abs(y.eps - (4.0 - 0.25)) < 1e-14

    z = 1.0 / (x + 3.0)
    assert abs(z.eps + 1.0 / 25.0) < 1e-15


def test_division_values_are_plain_quotients_bit_for_bit():
    # the quotient rule divides the values themselves; a product with a
    # reciprocal differs from plain a / b in the last bit at many nodes
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 1000))
    inner = fresh_tag()
    outer = fresh_tag()
    x = Dual(inner, a, 1.0)
    y = Dual(outer, Dual(inner, b, 0.5), 2.0)
    assert np.array_equal((x / y).val.val, a / b)
    assert np.array_equal((y / x).val.val, b / a)
    assert np.array_equal((x / Dual(inner, b, -1.0)).val, a / b)
    assert np.array_equal((1.5 / x).val, 1.5 / a)
    # d/dx (x / y) = (x' y - x y') / y^2 at both levels
    assert np.allclose((x / y).val.eps, (b - a * 0.5) / b**2, rtol=1e-14, atol=0.0)
    assert np.allclose((x / y).eps.val, -a * 2.0 / b**2, rtol=1e-14, atol=0.0)


def test_sqrt_derivative_and_no_abs():
    tag = fresh_tag()
    x = Dual(tag, 4.0, 1.0)
    assert abs(ops.sqrt(x).eps - 0.25) < 1e-15
    # |x| has no derivative at 0, so the engine offers no abs to pick one
    with pytest.raises(TypeError):
        abs(x)


def test_nested_tags_give_second_derivative():
    # d2/dt2 sin(t) = -sin(t), via two independent dual layers
    def f(t):
        return ops.sin(t)

    t0 = 0.9
    outer = fresh_tag()
    inner = fresh_tag()
    x = Dual(outer, Dual(inner, t0, 1.0), 1.0)
    d = f(x)
    second = d.eps.eps if isinstance(d.eps, Dual) else 0.0
    assert abs(second + math.sin(t0)) < 1e-12


def test_tag_ordering_is_respected_both_ways():
    # mixing two dual layers in either operand order must nest consistently
    a_tag = fresh_tag()
    b_tag = fresh_tag()
    a = Dual(a_tag, 1.0, 1.0)
    b = Dual(b_tag, 2.0, 1.0)
    p = a * b
    q = b * a
    for r in (p, q):
        assert r.tag == b_tag
        assert isinstance(r.val, Dual) and r.val.tag == a_tag
    # d/da (a*b) = b = 2, d/db (a*b) = a = 1
    assert p.val.eps == 2.0 and q.val.eps == 2.0
    assert p.eps.val == 1.0 and q.eps.val == 1.0


def test_inner_pass_sees_an_outer_dual_on_the_left():
    # a sum and a difference with the outer pass's captured point on the left
    # of the inner pass's own: d/dw (z + w)(z - w) = -2 w, whatever z is
    def inner_derivative(z):
        return partials(lambda w: (z[0] + w[0]) * (z[0] - w[0]), [1.0])[1][0]

    value, d = partials(inner_derivative, [1.5])
    assert (value, d[0]) == (-2.0, 0.0)


def test_directional_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)

    def f(z):
        return ops.sin(z[0]) * z[1] + ops.exp(0.3 * z[1]) * ops.cos(z[0] - z[1])

    for _ in range(5):
        x = list(rng.uniform(-2, 2, size=2))
        v = list(rng.normal(size=2))
        d = directional(f, x, v)[1]
        h = 1e-6
        xp = [x[i] + h * v[i] for i in range(2)]
        xm = [x[i] - h * v[i] for i in range(2)]
        fd = (f(xp) - f(xm)) / (2 * h)
        assert abs(d - fd) < 1e-8


def test_partials_vector():
    def F(z):
        return [z[0] * z[1], ops.sin(z[0]) + z[1] ** 2]

    x = [0.5, -1.2]
    val, jac = partials(F, x)
    assert val == F(x)
    # jac[i][k] = d F^k / d z_i
    assert abs(jac[0][0] - x[1]) < 1e-15
    assert abs(jac[1][0] - x[0]) < 1e-15
    assert abs(jac[0][1] - math.cos(x[0])) < 1e-15
    assert abs(jac[1][1] - 2 * x[1]) < 1e-15


def test_directional_vector_returns_value_and_derivative():
    def F(z):
        return [z[0] ** 2, z[0] * z[1]]

    val, der = directional(F, [2.0, 3.0], [1.0, -1.0])
    assert val == [4.0, 6.0]
    assert der == [4.0, 1.0]  # [2 x0 * 1, x1 * 1 + x0 * (-1)]


def test_numpy_scalars_do_not_swallow_duals():
    tag = fresh_tag()
    x = Dual(tag, 1.0, 1.0)
    y = np.float64(2.0) * x + np.float64(1.0)
    assert isinstance(y, Dual)
    assert y.val == 3.0 and y.eps == 2.0


def test_seed_point():
    tag = fresh_tag()
    z = seed_point([1.0, 2.0], [0.5, -0.5], tag)
    assert all(isinstance(c, Dual) for c in z)
    assert [c.val for c in z] == [1.0, 2.0]
    assert [c.eps for c in z] == [0.5, -0.5]


def test_pow_requires_plain_exponent():
    tag = fresh_tag()
    x = Dual(tag, 2.0, 1.0)
    with pytest.raises(TypeError):
        x ** x


def _nested_field(z):
    # a (2, 2) matrix field with one entry constant and one independent of z[1]
    return [
        [ops.sin(z[0]) * z[1] ** 2, 3.0],
        [ops.exp(z[0] * z[1]), ops.cos(z[0])],
    ]


def test_directional_maps_nested_lists_and_constants():
    x, v = [0.4, -0.9], [1.0, 2.0]
    val, der = directional(_nested_field, x, v)
    assert val == _nested_field(x)
    assert der[0][1] == 0.0  # the constant entry
    want = -math.sin(x[0]) * v[0]
    assert abs(der[1][1] - want) < 1e-15


def test_second_partials_symmetric_closed_form():
    x = [0.4, -0.9]
    u, w = x
    _, _, d2 = second_partials(_nested_field, x)
    for k in range(2):
        for l in range(2):
            assert d2[k][l] == d2[l][k]
    e = math.exp(u * w)
    want = {
        (0, 0): [[-math.sin(u) * w * w, 0.0], [w * w * e, -math.cos(u)]],
        (0, 1): [[2.0 * math.cos(u) * w, 0.0], [(1.0 + u * w) * e, 0.0]],
        (1, 1): [[2.0 * math.sin(u), 0.0], [u * u * e, 0.0]],
    }
    for (k, l), block in want.items():
        assert np.allclose(np.array(d2[k][l]), np.array(block), rtol=0, atol=1e-14)


def test_batched_partials_equal_pointwise_bit_for_bit():
    rng = np.random.default_rng(3)
    points = [list(p) for p in rng.uniform(-2.0, 2.0, size=(7, 2))]
    cols = point_columns(points)
    val_batch, d_batch = (la.nested_to_array(c, len(points)) for c in partials(_nested_field, cols))
    d2_batch = la.nested_to_array(second_partials(_nested_field, cols)[2], len(points))
    for p, x in enumerate(points):
        val, d = partials(_nested_field, x)
        assert np.array_equal(val_batch[..., p], np.array(val))
        assert np.array_equal(d_batch[..., p], np.array(d))
        assert np.array_equal(d2_batch[..., p], np.array(second_partials(_nested_field, x)[2]))


# -- the vector pass against a per-axis reference -------------------------------


def _axis_partials(f, x):
    """Reference for partials: the plain f(x), and one directional pass per
    coordinate axis."""
    n = len(x)
    return f(x), [
        directional(f, x, [1.0 if i == k else 0.0 for i in range(n)])[1] for k in range(n)
    ]


def _axis_second_partials(f, x):
    """Reference for second_partials: the plain f(x), the per-axis first
    partials, and one nested directional pass per k <= l, with the pass
    along l outside."""
    n = len(x)
    d2 = [[None] * n for _ in range(n)]
    for l in range(n):
        for k in range(l + 1):
            d2[k][l] = d2[l][k] = _axis_partials(lambda z: _axis_partials(f, z)[1][k], x)[1][l]
    return (*_axis_partials(f, x), d2)


def _field3(z):
    # every elementary operation of the module, a constant entry and one
    # entry independent of z[2]
    return [
        [ops.sin(z[0]) * z[1] ** 2 + z[2] / (1.0 + z[0] * z[0]), 3.0],
        [
            ops.exp(z[0] * z[1]) * ops.sqrt(2.0 + ops.cos(z[2])),
            1.0 / (2.0 + z[1] * z[1]) - z[2] ** 3,
        ],
        [1.5 - z[0] * z[1], -z[1]],
    ]


_POINT = [0.4, -0.9, 1.3]
_COLUMNS = point_columns([[0.4, -0.9, 1.3], [1.1, 0.2, -0.7], [-1.5, 0.8, 0.1]])
_DIRECTION = [0.3, -1.1, 0.6]


def _bits(obj, n_nodes):
    """The nesting and every entry's bits, entries stored over the nodes as
    nested_to_array does; works for a (value, derivative) pair too, whose
    parts have different shapes."""
    if isinstance(obj, (list, tuple)):
        return b"[%d" % len(obj) + b"".join(_bits(e, n_nodes) for e in obj)
    out = np.empty(n_nodes)
    out[...] = obj
    return out.tobytes()


def _assert_same_bits(got, want, n_nodes):
    assert _bits(got, n_nodes) == _bits(want, n_nodes)


@pytest.mark.parametrize(
    "engine,reference", [(partials, _axis_partials), (second_partials, _axis_second_partials)]
)
@pytest.mark.parametrize("x,n_nodes", [(_POINT, 1), (_COLUMNS, 3)], ids=["floats", "columns"])
def test_engine_equals_per_axis_reference_bit_for_bit(engine, reference, x, n_nodes):
    _assert_same_bits(engine(_field3, x), reference(_field3, x), n_nodes)
    # at a nested-dual point: the point of an enclosing directional pass
    got = directional(lambda z: engine(_field3, z), x, _DIRECTION)
    want = directional(lambda z: reference(_field3, z), x, _DIRECTION)
    for g, w in zip(got, want):
        _assert_same_bits(g, w, n_nodes)
    # inside an enclosing vector pass, and around a nested one
    _assert_same_bits(
        partials(lambda z: engine(_field3, z), x),
        _axis_partials(lambda z: reference(_field3, z), x),
        n_nodes,
    )
    _assert_same_bits(
        engine(lambda z: partials(_field3, z), x),
        reference(lambda z: _axis_partials(_field3, z), x),
        n_nodes,
    )


@pytest.mark.parametrize("x,n_nodes", [(_POINT, 1), (_COLUMNS, 3)], ids=["floats", "columns"])
def test_second_partials_value_and_gradient_are_those_of_partials(x, n_nodes):
    # one second-order pass serves a caller that needs f, df and d2f: its
    # value and first partials are a lone first-order pass's, bit for bit
    val, d, _ = second_partials(_field3, x)
    _assert_same_bits([val, d], list(partials(_field3, x)), n_nodes)


@pytest.mark.parametrize(
    "point", [[0.3, 0.7], [np.array([0.3, -0.2]), np.array([0.7, 1.5])]], ids=["floats", "columns"]
)
def test_inner_pass_sees_an_outer_point_captured_by_its_field(point):
    # the inner gradient is [y1, y0]; the inner pass runs at a fresh real
    # point, so only the running outer pass tells it where its axis goes
    def inner_gradient(y):
        return partials(lambda z: z[0] * y[1] + z[1] * y[0], [0.0, 0.0])[1]

    hessian = la.nested_to_array(partials(inner_gradient, point)[1], 2)
    assert np.array_equal(hessian, np.array([[[0.0], [1.0]], [[1.0], [0.0]]]) + np.zeros(2))


def test_one_pass_per_gradient_and_two_per_hessian(monkeypatch):
    passes = []

    def counting():
        passes.append(None)
        return fresh_tag()

    monkeypatch.setattr(ops, "fresh_tag", counting)
    partials(_field3, _COLUMNS)
    assert len(passes) == 1
    passes.clear()
    second_partials(_field3, _COLUMNS)
    assert len(passes) == 2
