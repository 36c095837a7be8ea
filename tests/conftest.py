"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hslaplace


@pytest.fixture
def stdout_at_one_and_two_blas_threads():
    """Runs Python code at OPENBLAS_NUM_THREADS=1 and =2, each in a fresh process
    (the count is read once, at numpy's import), and returns both stdouts."""
    src = str(Path(hslaplace.__file__).resolve().parents[1])

    def run(code):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        return outputs

    return run
