"""The experiment scripts run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import hslaplace

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(hslaplace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


def test_crosscheck_oracles():
    proc = run_script("crosscheck_oracles.py", "--n", "1,2,3", "--lambda", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == [
        "n", "lambda", "closed-form", "quadrature", "contour", "monte-carlo", "asymptotic",
        "max-dev",
    ]
    assert [row.split()[0] for row in rows] == ["1", "2", "3"]
    assert all(float(row.split()[-1]) < 1e-6 for row in rows)


def test_crosscheck_oracles_keeps_a_row_with_a_refusing_route():
    proc = run_script("crosscheck_oracles.py", "--n", "3", "--lambda", "1e8", "--tol", "1e-2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "refused (quadrature): tol must lie in [1e-12, 1e-3]\n"
    cells = proc.stdout.splitlines()[1].split()
    assert cells[0] == "3" and len(cells) == 5  # n, lambda, contour, asymptotic, max-dev


def test_ensemble_report():
    proc = run_script("ensemble_report.py", "--n-grid", "5,10")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = "    n   lambda_eff     (ln D_n)/n         regime     ln Psi"
    assert lines.count(header) == 4
    rows = [ln.split() for ln in lines if ln[:5].strip() in ("5", "10")]
    assert len(rows) == 8
    assert all(row[3] in ("diverges", "vanishes", "critical-band") for row in rows)
