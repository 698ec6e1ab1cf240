"""Identity records: each runner's triple is its records' reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

import distpair.linalg as la
from distpair import cli, identity
from distpair.scenarios import SCENARIOS, conformal_hopf, non_allowed_rotated

BUILDERS = {
    **SCENARIOS,
    "non-allowed-rotated": non_allowed_rotated,
    "conformal-hopf": conformal_hopf,
}
CASES = [
    (name, check)
    for name, builder in BUILDERS.items()
    for check in cli.CHECK_NAMES
    if check != "contact" or "phi" in builder().extras
]

# the normalizers each check's identities may name
NORMALIZERS = {
    "pair": {"pair_size"},
    "allowed": {"rule"},
    "collapse": {"rule"},
    "codazzi": {"rule"},
    "divergence": {"precondition", "shared_routes"},
    "walczak": {"engine_scale"},
    "traces": {"fold_from_one"},
    "contact": {"precondition", "fold_from_one"},
}


def _fold(values, start=None):
    """Left-to-right sum, from ``start`` when given."""
    values = list(values)
    total = values.pop(0) if start is None else start
    for v in values:
        total = total + v
    return total


def _reduce(ident):
    """(residual, normalized) of one identity, written out from its terms:
    |sum lhs - sum rhs| and that over the rule or the named variant."""
    if ident.g is None:
        size = np.abs
        add, sub = (lambda a, b: a + b), (lambda a, b: a - b)
    else:
        size = lambda v: np.sqrt(np.maximum(la.bilinear(ident.g, v, v), 0.0))  # noqa: E731
        add, sub = la.vec_add, la.vec_sub
    lhs = [v for _, side, v in ident.terms if side == "lhs"]
    rhs = [v for _, side, v in ident.terms if side == "rhs"]
    assert lhs and len(lhs) + len(rhs) == len(ident.terms)
    diff = lhs[0]
    for v in lhs[1:]:
        diff = add(diff, v)
    if rhs:
        total = rhs[0]
        for v in rhs[1:]:
            total = add(total, v)
        diff = sub(diff, total)
    res = size(diff)
    mags = [size(v) for _, _, v in ident.terms]
    denominator = {
        "rule": lambda: 1.0 + _fold(mags),
        "fold_from_one": lambda: _fold(mags, 1.0),
        "precondition": lambda: 1.0,
        "pair_size": lambda: 1.0 + ident.scale,
        "shared_routes": lambda: 1.0 + _fold(np.abs(v) for v in ident.scale),
        "engine_scale": lambda: 1.0 + ident.scale + np.abs(lhs[0]),
    }[ident.normalizer.__name__]()
    return res, res / denominator


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name,check", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_runner_reports_its_records_reduction(monkeypatch, name, check):
    """Each runner returns (max_abs, max_normalized, samples), and its first
    two are, bit for bit, the largest residual and normalized residual of
    its record's terms.  Contact also reduces its control, the rescale's
    ``minus``, which fails the report when it closes to within 100 tol."""
    records = []

    def capture(record):
        records.append(record)
        return identity.reduce_record(record)

    monkeypatch.setattr(cli, "reduce_record", capture)
    tol = 1e-6
    triple = cli.CHECK_RUNNERS[check](BUILDERS[name](), 4, 11, tol)
    assert len(triple) == 3 and triple[2] == 4
    record, *control = records
    assert len(control) == (1 if check == "contact" else 0)
    assert {i.normalizer.__name__ for i in record.values()} <= NORMALIZERS[check]

    reduced = [_reduce(ident) for ident in record.values()]
    max_abs = la.max_entry(*(r for r, _ in reduced))
    max_norm = la.max_entry(*(n for _, n in reduced))
    if control:
        (minus,) = control[0].values()
        if la.max_entry(_reduce(minus)[1]) <= 100.0 * tol:
            max_norm = max(max_norm, 1.0)
    assert _same(triple[0], max_abs) and _same(triple[1], max_norm)
    if name == "non-allowed-rotated" and check in ("allowed", "collapse", "codazzi"):
        assert triple[1] > 1e-3  # the non-zero case: this pair is not allowed
