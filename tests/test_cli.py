"""CLI surface: exit codes, CSV schemas, byte stability, SVG output."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import hslaplace
from hslaplace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critical_prints_values(capsys):
    code, out, err = run_cli(capsys, "critical")
    assert code == 0 and err == ""
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert 1.37 <= float(fields["gamma_cr"]) <= 1.39
    assert abs(float(fields["lambda_cr"]) - 0.9179235347379753) < 1e-10
    assert float(fields["residual"]) < 1e-12


def test_module_entry_point_matches_main(capsys):
    # `python -m hslaplace.cli` must run the CLI, not just import the module
    src = str(Path(hslaplace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "hslaplace.cli", "critical"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, err = run_cli(capsys, "critical")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert out


def test_eval_row(capsys):
    code, out, _ = run_cli(capsys, "eval", "--lambda", "1.0")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "lambda,gamma,ln_L,L,sigma"
    vals = dict(zip(header.split(","), map(float, row.split(","))))
    assert abs(vals["gamma"] - 1.4616321449683623) < 1e-10
    assert abs(vals["L"] - 0.8856031944108887) < 1e-10


def test_table_columns_and_monotonicity(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys,
        "table",
        "--grid-min", "0.01", "--grid-max", "10", "--grid-count", "50",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "lambda,gamma,ln_L,sigma"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 50
    gammas = [r[1] for r in rows]
    ln_ls = [r[2] for r in rows]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert all(b < a for a, b in zip(ln_ls, ln_ls[1:]))


def test_table_byte_stability(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "table",
            "--grid-min", "0.1", "--grid-max", "2", "--grid-count", "20",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_contour_n1(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--n", "1", "--lambda", "2", "--method", "contour"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,lambda,method,ln_F,err_est"
    cells = row.split(",")
    assert cells[2] == "contour"
    assert abs(float(cells[3]) + 2.0) < 1e-9


def test_oracle_monte_carlo_seeded_stability(tmp_path, capsys):
    outputs = []
    for name in ("m1.csv", "m2.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "oracle", "--n", "2", "--lambda", "1", "--method", "monte-carlo",
            "--samples", "20000", "--seed", "7", "--out", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_compare_exact_routes_agree(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "2", "--lambda", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = header.split(",")
    cells = row.split(",")
    rec = dict(zip(cols, cells))
    assert float(rec["max_pairwise_dev"]) < 1e-6
    for name in ("closed-form", "quadrature", "contour", "asymptotic"):
        assert rec[name] != ""
    closed = float(rec["closed-form"])
    assert abs(closed - math.log(2.0 * 0.11389387274953344)) < 1e-9


def test_regime_report(capsys):
    code, out, _ = run_cli(capsys, "regime", "--lambda", "0.5", "--epsilon", "0.05")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "lambda_eff,margin,regime"
    assert row.endswith("diverges")
    code, out, _ = run_cli(capsys, "regime", "--lambda", "2.0", "--epsilon", "0.05")
    assert out.strip().splitlines()[1].endswith("vanishes")


def test_ensemble_table(tmp_path, capsys):
    path = tmp_path / "ens.csv"
    code, _, _ = run_cli(
        capsys,
        "ensemble", "--f", "1,1,1", "--theta", "1.0",
        "--radius-critical", "--epsilon", "0.02",
        "--n-grid", "2,4", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,lambda_eff,ln_dn_per_n,regime,ln_psi_theta"
    assert len(lines) == 3
    assert all(ln.split(",")[3] == "critical-band" for ln in lines[1:])


def test_plot_emits_wellformed_svg(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys,
        "table", "--grid-min", "0.01", "--grid-max", "10",
        "--grid-count", "80", "--out", str(table),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "plot", "--table", str(table), "--out", str(tmp_path))
    assert code == 0
    for name in ("lambda_of_gamma.svg", "L_of_lambda.svg"):
        svg = tmp_path / name
        assert svg.exists()
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2"])  # missing --lambda
    assert exc.value.code == 2


def test_computation_error_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--n", "5", "--lambda", "1", "--method", "closed-form"
    )
    assert code == 1
    assert err.strip().startswith("error (oracle):")


def test_bad_grid_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "table", "--grid-min", "5", "--grid-max", "1", "--grid-count", "10"
    )
    assert code == 1
    assert "grid" in err
