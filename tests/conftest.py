"""Shared fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def child_env():
    """Make the environment of a child ``python -m distpair.cli``: the
    repository's ``src`` in front of ``PYTHONPATH``, so the child imports this
    checkout whether or not the package is installed or on the path."""

    def make(**extra):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        return dict(os.environ, PYTHONPATH=path, **extra)

    return make
