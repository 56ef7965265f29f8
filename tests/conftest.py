"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import probstirling

_SRC = str(Path(probstirling.__file__).resolve().parents[1])


@pytest.fixture
def fresh_python():
    """Run a snippet in a fresh interpreter, so every memo table starts
    empty and nothing is imported yet, and return its stdout."""

    def run(code: str) -> str:
        path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
