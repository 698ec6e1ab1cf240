"""Identity records: each runner's triple is its records' reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest

import distpair.linalg as la
from distpair import cli, identity
from distpair.dist_tensors import formula_record
from distpair.quadrature import _chunk_nodes, formula_chunk, integral_formula_check
from distpair.scenarios import (
    SCENARIOS,
    conformal_hopf,
    hopf_contact_s3,
    non_allowed_rotated,
    warped_torus,
)
from oracles import split_t3

BUILDERS = {
    **SCENARIOS,
    "non-allowed-rotated": non_allowed_rotated,
    "conformal-hopf": conformal_hopf,
    "split-t3": split_t3,
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
    |sum lhs - sum rhs|, or |sum rhs| with no left side, and that over the
    rule or the named variant."""
    if ident.g is None:
        size = np.abs
        add, sub = (lambda a, b: a + b), (lambda a, b: a - b)
    else:
        size = lambda v: np.sqrt(np.maximum(la.bilinear(ident.g, v, v), 0.0))  # noqa: E731
        add, sub = la.vec_add, la.vec_sub
    lhs = [v for _, side, v in ident.terms if side == "lhs"]
    rhs = [v for _, side, v in ident.terms if side == "rhs"]
    assert (lhs or rhs) and len(lhs) + len(rhs) == len(ident.terms)
    sums = []
    for terms in (lhs, rhs):
        if terms:
            total = terms[0]
            for v in terms[1:]:
                total = add(total, v)
            sums.append(total)
    res = size(sub(*sums) if len(sums) == 2 else sums[0])
    mags = [size(v) for _, _, v in ident.terms]
    denominator = {
        "rule": lambda: 1.0 + _fold(mags),
        "fold_from_one": lambda: _fold(mags, 1.0),
        "precondition": lambda: 1.0,
        "pair_size": lambda: 1.0 + ident.scale,
        "shared_routes": lambda: 1.0 + _fold(np.abs(v) for v in ident.scale),
        "engine_scale": lambda: _fold((np.abs(v) for v in lhs), 1.0 + ident.scale),
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


@pytest.mark.parametrize("check", [c for c in cli.CHECK_NAMES if c != "contact"])
def test_every_runner_closes_on_split_t3(check):
    """On split-t3 the terms that are 0 on every shipped scenario (Codazzi's
    t2, the formula's |h1|^2, |t2|^2 and |H1|^2) are not, so a wrong sign of
    any of them shows here.  At 6 points, seed 5, each check read at most
    1.2e-15 normalized."""
    _, max_norm, samples = cli.CHECK_RUNNERS[check](split_t3(), 6, 5, 1e-6)
    assert samples == 6
    assert max_norm <= 1e-13


@pytest.mark.parametrize(
    "builder,counts",
    [(warped_torus, (32, 32)), (hopf_contact_s3, (8, 8, 8))],
    ids=["warped-torus", "hopf-s3"],
)
def test_formula_pointwise_maxima_are_its_records_reduction(builder, counts):
    """On a one-chunk grid the formula quadrature's pointwise maxima are,
    bit for bit, the written-out reduction of the chunk's formula record,
    an identity with no left side."""
    sc = builder()
    grid = sc.grid(counts)
    ((cols, _),) = _chunk_nodes(grid, formula_chunk(sc.chart.dim))
    (ident,) = formula_record(sc.chart, sc.pair, cols).values()
    assert {side for _, side, _ in ident.terms} == {"rhs"}
    res, norm = _reduce(ident)
    (report,) = integral_formula_check(sc.pair, sc.chart, grid)
    assert report["max_pointwise"] == la.max_entry(res)
    assert report["max_pointwise_normalized"] == la.max_entry(norm)
