"""Identity records: every check is a signed sum of terms that vanishes.

An identity function returns a record, a dict of named :class:`Identity`
entries.  An identity's terms are ``(name, side, value)`` in summation order,
``side`` :data:`LHS` or :data:`RHS` and ``value`` signed: a float or a node
array, or for a vector identity a list of them, measured with the metric
``g`` the identity carries.  :func:`reduce_record` is the one reduction: per
node, |sum lhs - sum rhs| and that over the identity's normalizer, which is
:func:`rule` unless the identity names one of the variants below it.  Each
variant is kept because the rule would not give its check's reported bits.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, NamedTuple

import numpy as np

from . import linalg as la

LHS, RHS = "lhs", "rhs"


class Identity(NamedTuple):
    terms: tuple  # ((name, side, value), ...) in summation order
    g: object  # the metric of a vector identity, None for a scalar one
    normalizer: Callable  # rule or a named variant, called with the identity
    scale: object  # a variant's own magnitude, None where it reads the terms


def one_term(values, normalizer, scale):
    """A record of one-term identities ``name: value = 0``, one per entry."""
    return {k: Identity(((k, LHS, v),), None, normalizer, scale) for k, v in values.items()}


def size(ident, v):
    """|v|, or |v|_g for a vector identity."""
    if ident.g is None:
        return abs(v)
    return np.sqrt(np.maximum(la.bilinear(ident.g, v, v), 0.0))


def side_sum(ident, side):
    """Sum of one side's terms in record order, None if the side is empty."""
    add = operator.add if ident.g is None else la.vec_add
    values = [v for _, s, v in ident.terms if s == side]
    return functools.reduce(add, values) if values else None


def residual(ident):
    """Per node |sum lhs - sum rhs|, or |sum| of its one side if the other is empty."""
    lhs, rhs = side_sum(ident, LHS), side_sum(ident, RHS)
    if lhs is None or rhs is None:
        return size(ident, rhs if lhs is None else lhs)
    return size(ident, (operator.sub if ident.g is None else la.vec_sub)(lhs, rhs))


def reduce_record(record):
    """(max_abs, max_normalized) over the record's identities and nodes, NaN if any is."""
    res = [(residual(i), i) for i in record.values()]
    return la.max_entry(*(r for r, _ in res)), la.max_entry(*(r / i.normalizer(i) for r, i in res))


# -- the rule and its named variants, each with the reason it is kept ----------


def rule(ident):
    """1 + (|t1| + |t2| + ...): codazzi, allowed and collapse."""
    return 1.0 + functools.reduce(operator.add, (size(ident, v) for _, _, v in ident.terms))


def fold_from_one(ident):
    """((1 + |t1|) + |t2|) + ...: contact and traces move an ulp on hopf-s3 under the rule."""
    return functools.reduce(operator.add, (size(ident, v) for _, _, v in ident.terms), 1.0)


def precondition(ident):
    """1: a precondition's defect (div PP^*, the contact structure) is reported as it is."""
    return 1.0


def pair_size(ident):
    """1 + |P1|_F |P2|_F (``scale``): the rule would hold a product against itself."""
    return 1.0 + ident.scale


def shared_routes(ident):
    """1 + (|div_P X| + |div(QX)| + |<Q, nabla X>|) (``scale``): one
    normalizer shared by the three divergence identities."""
    return 1.0 + functools.reduce(operator.add, (abs(v) for v in ident.scale))


def engine_scale(ident):
    """(1 + scale) + |lhs| per lhs term, the invariants engine's signed scale:
    its norm_* terms dip below 0 (to -1.1e-15 on hopf-s3), so |term| would differ."""
    lhs = (abs(v) for _, side, v in ident.terms if side == LHS)
    return functools.reduce(operator.add, lhs, 1.0 + ident.scale)
