"""Forward-mode automatic differentiation with nestable dual numbers.

A :class:`Dual` carries a value and a first-order perturbation with respect to
one differentiation pass, identified by an integer tag.  Tags are allocated by
:func:`fresh_tag` from a global monotone counter, so an outer differentiation
pass always has a strictly larger tag than anything created before it.  Binary
operations compare tags: the operand with the smaller tag is treated as a
constant of the outer pass.  This is what makes nested second-derivative
passes safe (no perturbation confusion).

Payloads (``val``/``eps``) may be floats, numpy arrays (for evaluating a whole
batch of points in one pass) or further ``Dual`` instances (nesting).

The elementary functions are the smooth ones the scenarios need: sin, cos,
exp and sqrt.  There is no ``abs``: |x| has no derivative at 0, so ``abs`` of
a dual raises TypeError rather than pick one.

Division uses the quotient rule, so the value part of every operation is the
plain operation on the values: a pass's value is bit for bit the plain
``f(x)``, and callers take it from the pass instead of evaluating f again.

The derivative engine at the end of the module is the only place that seeds
passes and extracts their parts (Griewank & Walther, *Evaluating Derivatives*,
ch. 3): :func:`directional` and :func:`partials` return ``(f(x), derivative)``,
the first for one direction per pass, the second for all n in one vector
pass; :func:`second_partials` nests two vector passes and returns
``(f(x), d, d2)``, so a caller that needs all three runs no separate
first-order pass.
A vector pass puts its direction axis (length n, seed i one-hot) in front of
every axis in use: the point's node axes and the axis of each enclosing vector
pass still running, tracked while a field runs since it may capture an outer
pass's point.  Nested passes thus broadcast as ``(n_inner, n_outer, *nodes)``,
and each direction sees the scalar operations of a one-direction pass, so the
derivatives are bit-identical to per-axis passes.  A finished pass takes its
axis out of everything it returns, values included, so the outer passes find
theirs in front again.
"""

from __future__ import annotations

import numpy as np

_tag_counter = 0


def fresh_tag() -> int:
    """Return a new differentiation tag, strictly larger than all previous."""
    global _tag_counter
    _tag_counter += 1
    return _tag_counter


class Dual:
    __slots__ = ("tag", "val", "eps")

    # Keep numpy from consuming Dual instances inside ufuncs/operators: with
    # __array_ufunc__ = None, ndarray.__add__(arr, dual) returns
    # NotImplemented and python dispatches to Dual.__radd__.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    def __init__(self, tag, val, eps):
        self.tag = tag
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual(tag={self.tag}, val={self.val!r}, eps={self.eps!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.tag > self.tag:
                return Dual(other.tag, self + other.val, other.eps)
            if other.tag == self.tag:
                return Dual(self.tag, self.val + other.val, self.eps + other.eps)
        return Dual(self.tag, self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(self.tag, -self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            if other.tag > self.tag:
                return Dual(other.tag, self - other.val, -other.eps)
            if other.tag == self.tag:
                return Dual(self.tag, self.val - other.val, self.eps - other.eps)
        return Dual(self.tag, self.val - other, self.eps)

    def __rsub__(self, other):
        # other is never a Dual here
        return Dual(self.tag, other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.tag > self.tag:
                return Dual(other.tag, self * other.val, self * other.eps)
            if other.tag == self.tag:
                return Dual(
                    self.tag,
                    self.val * other.val,
                    self.val * other.eps + self.eps * other.val,
                )
        return Dual(self.tag, self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # quotient rule: the value is a.val / b.val itself, never a product
        # with a reciprocal, so a pass's values are the plain values
        if isinstance(other, Dual):
            if other.tag > self.tag:
                q = self / other.val
                return Dual(other.tag, q, -(q * other.eps) / other.val)
            if other.tag == self.tag:
                q = self.val / other.val
                return Dual(self.tag, q, (self.eps - q * other.eps) / other.val)
        return Dual(self.tag, self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        # other is never a Dual here
        q = other / self.val
        return Dual(self.tag, q, -(q * self.eps) / self.val)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        if n == 2:
            return self * self
        v = self.val ** n
        return Dual(self.tag, v, (self.val ** (n - 1)) * n * self.eps)


# -- elementary functions (dispatch on float / ndarray / Dual) ----------


def sin(x):
    if isinstance(x, Dual):
        return Dual(x.tag, sin(x.val), cos(x.val) * x.eps)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(x.tag, cos(x.val), -sin(x.val) * x.eps)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(x.tag, e, e * x.eps)
    return np.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.val)
        return Dual(x.tag, r, x.eps / (r * 2.0))
    return np.sqrt(x)


def _real(x):
    """The innermost (real) part of x."""
    while isinstance(x, Dual):
        x = x.val
    return x


# -- the derivative engine ---------------------------------------------
#
# Every derivative in the package is taken here: seed the point for a fresh
# pass, evaluate the field, and pull the pass's parts out of its (possibly
# nested-list) output.  Fields return scalars or nested lists of them.

# Node axes of every vector pass whose field is running, outermost first.
_running = []


class Point(tuple):
    """The coordinates of a point or column batch, fixed once built.
    ``jet`` is the metric jet that the point's first ``Chart.jet1`` lookup
    stores, so every term at the point shares it; it is freed with the point.
    """

    jet = None


def seed_point(x, v, tag):
    """Perturb point ``x`` in direction ``v``: x_i + eps * v_i for pass `tag`."""
    return Point(Dual(tag, xi, vi) for xi, vi in zip(x, v))


def _part(c, tag, eps):
    """Value (eps False) or derivative (eps True) of ``c`` in pass ``tag``.

    Nested lists are mapped entry by entry.  An entry that is not a dual of
    this pass is constant in it: its value is itself, its derivative 0.0.
    """
    if isinstance(c, (list, tuple)):
        return [_part(e, tag, eps) for e in c]
    if isinstance(c, Dual) and c.tag == tag:
        return c.eps if eps else c.val
    return 0.0 if eps else c


def _pick(c, k):
    """Direction k of every array in ``c``: entry k of its leading axis."""
    if isinstance(c, (list, tuple)):
        return [_pick(e, k) for e in c]
    if isinstance(c, Dual):
        return Dual(c.tag, _pick(c.val, k), _pick(c.eps, k))
    return c[k] if isinstance(c, np.ndarray) else c


def _drop(c, depth):
    """``c`` without the leading axis of its arrays that are ``depth`` axes
    deep: the slot of a finished vector pass, length 1 in the pass's values.
    A field that runs a vector pass of its own leaves that slot in front of
    the outer passes' axes, where an outer pass would look for its own."""
    if isinstance(c, (list, tuple)):
        return [_drop(e, depth) for e in c]
    if isinstance(c, Dual):
        return Dual(c.tag, _drop(c.val, depth), _drop(c.eps, depth))
    return c[0] if np.ndim(c) == depth else c


def directional(f, x, v):
    """(f(x), D_v f(x)) for a scalar or nested-list field f, in one pass."""
    tag = fresh_tag()
    out = f(seed_point(x, v, tag))
    return _part(out, tag, False), _part(out, tag, True)


def partials(f, x):
    """(f(x), d) with d[k] = d_k f(x) for every coordinate axis k, in one
    vector pass."""
    n = len(x)
    nodes = max([np.ndim(_real(c)) for c in x] + _running)
    depth = 1 + nodes + len(_running)  # this pass's axis is the first of depth
    seeds = np.eye(n).reshape((n, n) + (1,) * (depth - 1))
    tag = fresh_tag()
    _running.append(nodes)
    try:
        out = f(seed_point(x, seeds, tag))
    finally:
        _running.pop()
    d = _part(out, tag, True)
    return _drop(_part(out, tag, False), depth), [_pick(d, k) for k in range(n)]


def second_partials(f, x):
    """(f(x), d, d2) from one vector pass nested in another, like
    :func:`partials` plus d2[k][l] = d2[l][k] = d_k d_l f(x).

    The outer pass carries f(x) and d: its perturbations of the inner pass's
    values are the ones a lone :func:`partials` computes, bit for bit.
    d2[k][l] is one object: the entry of the pass along min(k, l) nested in
    the pass along max(k, l) (older tag)."""
    (val, _), outer = partials(lambda z: partials(f, z), x)  # outer[l] = (d_l f, [d_l d_k f])
    n = len(x)
    d2 = [[outer[max(k, l)][1][min(k, l)] for l in range(n)] for k in range(n)]
    return val, [dl[0] for dl in outer], d2
