"""Frozen CLI output: every report must match ``data/golden_cli.ndjson``.

The determinism tests in test_cli.py only compare two reruns of the same
code, so a changed residual would not show there.  This file pins the
reports themselves (with ``runtime_ms`` masked) across refactors.

To rebuild the file after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py

and explain the change in the commit that updates it.
"""

from __future__ import annotations

import contextlib
import io
import re
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


def golden_text():
    """Concatenated NDJSON of all invocations, ``runtime_ms`` set to 0."""
    chunks = []
    for argv in INVOCATIONS:
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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
