"""Frozen CLI output: every report must match ``data/golden_cli.ndjson``.

The determinism tests in test_cli.py only compare two reruns of the same
code, so a changed residual would not show there.  This file pins the
reports themselves (with ``runtime_ms`` masked) across refactors.

To rebuild the file after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py

and explain the change in the commit that updates it.

A change meant to keep every output bit is checked on a wider set than the
golden file, :data:`SWEEP` (46 invocations).  Run

    PYTHONPATH=src python tests/test_golden_cli.py --sweep > out.ndjson

on both checkouts and compare the two files with ``cmp``.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

from distpair.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.ndjson"

INVOCATIONS = (
    ["--scenario", "flat-torus", "--points", "6", "--seed", "5"],
    ["--scenario", "scaled-identity", "--points", "6", "--seed", "5"],
    ["--scenario", "warped-torus", "--points", "6", "--seed", "5"],
    ["--scenario", "hopf-s3", "--points", "6", "--seed", "5"],
    ["--scenario", "einstein-s3xt2", "--points", "4", "--seed", "5"],
    ["--scenario", "warped-torus", "--which", "formula", "--seed", "5"],
    ["--scenario", "warped-torus", "--which", "stokes", "--grid", "16", "--seed", "5"],
    ["--scenario", "hopf-s3", "--which", "stokes", "--grid", "8", "--seed", "5"],
    ["--scenario", "hopf-s3", "--which", "formula", "--grid", "8", "--seed", "5"],
    ["--scenario", "einstein-s3xt2", "--which", "stokes", "--grid", "4", "--seed", "5"],
    ["--scenario", "einstein-s3xt2", "--which", "formula", "--grid", "4,4,4,3,3", "--seed", "5"],
)


def _sweep():
    """Every scenario's pointwise checks at seeds 42, 101 and 5 (13 points),
    at seed 5 (6 points) and at seed 3 (40 points), all at tolerance 1e-12,
    with einstein-s3xt2 at 8 points in place of 13 and 40; hopf-s3's contact
    check at 40 points; and formula and stokes on every scenario at seeds 5
    and 42."""
    grids = {  # scenario: (formula grid, stokes grid)
        "flat-torus": ("8", "8"),
        "scaled-identity": ("16", "12"),
        "warped-torus": ("32", "16"),
        "einstein-s3xt2": ("4,4,4,3,3", "4"),
        "hopf-s3": ("8", "8"),
    }
    runs = []
    for name in grids:
        for points, seed in (("13", "42"), ("13", "101"), ("13", "5"), ("6", "5"), ("40", "3")):
            if name == "einstein-s3xt2" and points != "6":
                points = "8"
            runs.append(["--scenario", name, "--points", points, "--seed", seed, "--tol", "1e-12"])
    runs.append(["--scenario", "hopf-s3", "--check", "contact", "--points", "40"])
    for name, (formula, stokes) in grids.items():
        for seed in ("5", "42"):
            runs.append(["--scenario", name, "--which", "formula", "--grid", formula, "--seed", seed])
            runs.append(["--scenario", name, "--which", "stokes", "--grid", stokes, "--seed", seed])
    return tuple(runs)


SWEEP = _sweep()


def golden_text(invocations=INVOCATIONS):
    """Concatenated NDJSON of the invocations, ``runtime_ms`` set to 0."""
    chunks = []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        chunks.append(re.sub(r'"runtime_ms": [0-9.eE+-]+', '"runtime_ms": 0', buf.getvalue()))
    return "".join(chunks)


def test_cli_reports_match_golden_file():
    expected = GOLDEN.read_text()
    actual = golden_text()
    for want, got in zip(expected.splitlines(), actual.splitlines()):
        assert got == want
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] == ["--sweep"]:
        sys.stdout.write(golden_text(SWEEP))
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(golden_text())
