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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one unreaped, running
    or exited (the quadrature workers are forked children)."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped: waitpid gave {left}")
