"""CLI surface: exit codes, CSV schemas, byte stability, SVG output."""

import argparse
import hashlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import hslaplace
from hslaplace.cli import build_parser, main
from hslaplace.svgplot import line_plot_svg


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


def test_out_creates_missing_parent_directory(tmp_path, capsys):
    path = tmp_path / "nodir" / "deeper" / "t.csv"
    code, out, err = run_cli(capsys, "table", "--grid-count", "5", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_text().startswith("lambda,gamma,ln_L,sigma\n")


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


# the asymptotic cell at n = 40 was -7.6063989624689121e+00 before the route
# gained its 1/n and 1/n^2 terms.  The quadrature cell was -7.6057313734996121e+00
# and the deviation 4.6185277824406512e-14 while the lattice moments went
# through BLAS dot products instead of numpy sums.  The contour cells were
# -7.6057313734996583e+00 (deviation 4.9737991503207013e-14) and
# -3.0000001713211024e+08 while the integrand went through ln_gamma_complex.
# The asymptotic cell at n = 40 was -7.6057313295448479e+00 while ln_gamma
# shifted its argument past 10 for Stirling's series.  The contour and
# asymptotic cells at n = 40 were -7.6057313734996166e+00 and
# -7.6057313295448141e+00 (deviation 7.9936057773011271e-15) while Newton
# started from Minka's guess
@pytest.mark.parametrize("argv, refused, row", [
    ("compare --n 40 --lambda 1 --samples 5000 --seed 3",
     "refused (monte-carlo): fn_montecarlo requires integer samples >= 10000, got samples = 5000\n",
     "40,1.0000000000000000e+00,,-7.6057313734996086e+00,-7.6057313734996157e+00,,"
     "-7.6057313295448052e+00,7.1054273576010019e-15\n"),
    ("compare --n 3 --lambda 1e8 --tol 1e-2",
     "refused (quadrature): tol must lie in [1e-12, 1e-3]\n",
     "3,1.0000000000000000e+08,,,-3.0000001713210994e+08,,-3.0000001713210988e+08,"
     "0.0000000000000000e+00\n"),
], ids=["monte-carlo-refuses", "quadrature-refuses"])
def test_compare_reports_a_refusing_route_and_keeps_the_rest(capsys, argv, refused, row):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, refused)
    assert out.splitlines()[1] + "\n" == row


def test_asymptotic_past_the_underflow_of_sigma_cubed(capsys):
    # sigma^3 underflowed to zero from lambda ~ 1e108 on: a ZeroDivisionError
    # traceback from `oracle` and an aborted `compare`
    code, out, err = run_cli(capsys, "oracle", "--method", "asymptotic", "--n", "3",
                             "--lambda", "1e200")
    assert (code, err) == (0, "")
    # the claim is the rounding term of n ln L (1e-10 before, under the 4.6e186 deviation)
    assert out.splitlines()[1] == (
        "3,9.9999999999999997e+199,asymptotic,-2.9999999999999540e+200,2.7661021115929166e+188"
    )
    # the contour refused here ("failed to truncate the contour integrand at
    # n = 3, lambda = 1e+200") while rounding in n ln Gamma(gamma + iT) swamped
    # the drop; the deviation is the error of n ln L, within the contour's claim
    code, out, err = run_cli(capsys, "compare", "--n", "3", "--lambda", "1e200")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == (
        "3,9.9999999999999997e+199,,-2.9999999999999999e+200,-2.9999999999999540e+200,,"
        "-2.9999999999999540e+200,4.5890322579368677e+186"
    )


@pytest.mark.parametrize("argv,lam", [
    ("eval --lambda 1e306", "1e+306"),
    ("table --grid-max 1e308", "2.7364399970747335e+306"),
])
def test_refuses_where_ln_l_overflows(capsys, argv, lam):
    # both printed nan with exit 0, and table leaked a numpy RuntimeWarning
    code, out, err = run_cli(capsys, *argv.split())
    command = argv.split()[0]
    assert (code, out) == (1, "")
    assert err == (
        f"error ({command}): ln L is not a finite double at lambda = {lam}: "
        "ln Gamma(gamma) overflows\n"
    )


@pytest.mark.parametrize("n", ["2", "3", "40"])
@pytest.mark.parametrize("lam", ["3e305", "5e307", "1.7e308"])
def test_compare_refusals_name_their_cause_at_the_top_of_lambda(capsys, n, lam):
    # the saddle routes refused with "ln_value must be finite, got nan", and
    # quadrature with "got -inf", naming neither n nor lambda
    _, _, err = run_cli(capsys, "compare", "--n", n, "--lambda", lam, "--samples", "10000")
    assert err and "ln_value must be finite" not in err


def test_compare_at_n40_cross_checks_two_exact_routes(capsys):
    # before the periodic lattice the contour was the only exact cell past n = 4
    _, out, _ = run_cli(capsys, "compare", "--n", "40", "--lambda", "1")
    rec = dict(zip(*(line.split(",") for line in out.splitlines())))
    claims = 0.0
    for method in ("quadrature", "contour"):
        _, row, _ = run_cli(capsys, "oracle", "--method", method, "--n", "40", "--lambda", "1")
        cells = row.splitlines()[1].split(",")
        assert cells[3] == rec[method]
        claims += float(cells[4])
    assert rec["closed-form"] == "" and 0.0 < float(rec["max_pairwise_dev"]) <= claims


@pytest.mark.parametrize("argv, err", [
    ("oracle --method asymptotic --n 1000000 --lambda 1e305",
     "error (oracle): n ln L is not a finite double at n = 1000000, lambda = 1e+305\n"),
    ("oracle --method monte-carlo --n 1000 --lambda 2e305 --samples 10000",
     "error (oracle): n ln L is not a finite double at n = 1000, lambda = 2e+305\n"),
    # the contour's refusal was "failed to truncate the contour integrand at ..."
    # while rounding in n ln Gamma(gamma + iT) swamped the drop
    ("compare --n 1000000 --lambda 1e305",
     "error (compare): every exact route refused: contour: n ln L is not a finite double "
     "at n = 1000000, lambda = 1e+305\n"),
])
def test_refusals_name_n_and_lambda_where_n_ln_l_overflows(capsys, argv, err):
    # these reached LogValue's bare "ln_value must be finite, got -inf", or
    # a truncation message naming neither n nor lambda
    assert run_cli(capsys, *argv.split()) == (1, "", err)


def test_a_negative_monte_carlo_seed_exits_one(capsys):
    # it printed numpy's bare "expected non-negative integer"
    argv = "oracle --method monte-carlo --n 3 --lambda 1 --samples 10000 --seed -1"
    assert run_cli(capsys, *argv.split()) == (
        1, "", "error (oracle): fn_montecarlo requires integer seed >= 0, got seed = -1\n"
    )


def test_oracle_runs_monte_carlo_at_the_default_sample_count(capsys):
    # the --samples default 0 shadowed evaluate's 100 000: this exited 1 with
    # "fn_montecarlo requires samples >= 10^4"
    argv = "oracle --method monte-carlo --n 6 --lambda 1".split()
    default = run_cli(capsys, *argv)
    assert default[0] == 0 and default == run_cli(capsys, *argv, "--samples", "100000")


def test_compare_fails_only_without_an_exact_route(capsys):
    code, out, err = run_cli(capsys, "compare", "--n", "0", "--lambda", "1")
    assert (code, out) == (1, "")
    assert err == "error (compare): cross_check requires integer n >= 1, got n = 0\n"


def test_compare_over_lists_is_the_single_pairs_in_n_major_order(capsys):
    tol = ("--tol", "1e-2")  # the quadrature refuses at every pair
    code, out, err = run_cli(capsys, "compare", "--n", "2,3", "--lambda", "0.5,1e8", *tol)
    assert code == 0
    singles = [run_cli(capsys, "compare", "--n", n, "--lambda", lam, *tol)
               for n in ("2", "3") for lam in ("0.5", "1e8")]
    assert all(code == 0 for code, _, _ in singles)
    header = singles[0][1].splitlines(keepends=True)[0]
    assert out == header + "".join(o.splitlines(keepends=True)[1] for _, o, _ in singles)
    assert err == "".join(e for _, _, e in singles)
    assert err.count("refused (quadrature):") == 4


def test_compare_over_lists_agrees_at_every_n(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "1,2,3", "--lambda", "1")
    assert code == 0
    _, *rows = out.splitlines()
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    assert all(float(row.split(",")[-1]) < 1e-6 for row in rows)


@pytest.mark.parametrize("n, message", [
    ("3,0", "cross_check requires integer n >= 1, got n = 0"),
    (",", "compare requires at least one n and one lambda"),  # not a bare header
], ids=["no-exact-route", "empty-list"])
def test_compare_over_lists_exits_one_with_no_rows(capsys, n, message):
    assert run_cli(capsys, "compare", "--n", n, "--lambda", "1") == (
        1, "", f"error (compare): {message}\n"
    )


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


def test_ensemble_of_the_readme_schedules(capsys):
    # lambda_cr pinned, 2 lambda_cr, lambda_cr / 2, and 0.3 n^0.5, which crosses lambda_cr
    regimes = []
    for schedule in (["--radius-critical"], ["--radius-c", "1.8358470694759488"],
                     ["--radius-c", "0.4589617673689872"],
                     ["--radius-c", "0.3", "--radius-alpha", "0.5"]):
        code, out, err = run_cli(capsys, "ensemble", "--f", "1,1,1", "--epsilon", "0.02",
                                 "--n-grid", "5,10", *schedule)
        assert (code, err) == (0, "")
        regimes += [row.split(",")[3] for row in out.splitlines()[1:]]
    assert regimes == ["critical-band"] * 2 + ["vanishes"] * 2 + ["diverges"] * 3 + ["vanishes"]


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


@pytest.mark.parametrize(
    "text", ["", "lambda,gamma,ln_L,sigma\n1.0,1.46,0.0,1.0\n2.0,1.9\n"]
)
def test_plot_bad_table_exits_one(tmp_path, capsys, text):
    # an empty file or a row shorter than the header raised IndexError
    table = tmp_path / "table.csv"
    table.write_text(text)
    code, _, err = run_cli(capsys, "plot", "--table", str(table), "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error (plot):")
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("lambda,gamma,sigma\n1.0,1.46,1.0\n2.0,1.9,1.0\n",
     "table must provide columns ['gamma', 'lambda', 'ln_L']"),
    ("lambda,gamma,ln_L,sigma\n", "need at least two points with matching lengths"),
    ("lambda,gamma,ln_L,sigma\n1.0,1.46,0.0,1.0\ninf,1.9,-1.0,1.0\n",
     "plot data must be finite"),
], ids=["no-ln_L-column", "header-only", "inf-cell"])
def test_plot_refusal_messages(tmp_path, capsys, text, message):
    table = tmp_path / "table.csv"
    table.write_text(text)
    code, out, err = run_cli(capsys, "plot", "--table", str(table), "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error (plot): {message}\n")


@pytest.mark.parametrize("xs, ys, axis", [
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 0), ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], 1),
], ids=["constant-x", "constant-y"])
def test_svg_of_constant_data_widens_its_range_by_one(xs, ys, axis):
    root = ET.fromstring(line_plot_svg(xs, ys, title="t", x_label="x", y_label="y"))
    (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
    # the constant coordinate sits at the low end of [v, v + 1]: the left or the bottom axis
    assert {p[axis] for p in points} == {(70.0, 425.0)[axis]}
    assert len({p[1 - axis] for p in points}) == 3
    labels = [el.text for el in root.iter() if el.tag.endswith("text")]
    constant = (xs, ys)[axis][0]
    assert all(f"{constant + i / 4:.3g}" in labels for i in range(5))


def test_svg_of_data_spanning_more_than_the_largest_double_is_refused():
    # max - min overflowed to inf and every coordinate and tick label read nan
    with pytest.raises(ValueError, match="plot data must span at most the largest double"):
        line_plot_svg([-1e308, 1e308], [1.0, 2.0], title="t", x_label="x", y_label="y")


def test_plot_refuses_a_lambda_spanning_more_than_the_largest_double(tmp_path, capsys):
    # it wrote two SVGs of nan and exited 0
    table = tmp_path / "table.csv"
    table.write_text("lambda,gamma,ln_L,sigma\n-1e308,1.0,0.1,1.0\n1e308,2.0,0.2,1.0\n")
    assert run_cli(capsys, "plot", "--table", str(table), "--out", str(tmp_path)) == (
        1, "", "error (plot): plot data must span at most the largest double\n"
    )


@pytest.mark.parametrize("lam", ["1e20", "1.7e308"])
def test_plot_of_a_constant_lambda_beyond_2_53(tmp_path, capsys, lam):
    # v + 1.0 rounds to v there, so widening [v, v] to [v, v + 1] left a range
    # of zero width and the SVG's coordinates ended in a ZeroDivisionError
    table = tmp_path / "table.csv"
    table.write_text(f"lambda,gamma,ln_L,sigma\n{lam},1.0,0.1,1.0\n{lam},2.0,0.2,1.0\n")
    code, _, err = run_cli(capsys, "plot", "--table", str(table), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    # lambda is the y data of the one plot and the x data of the other
    for name in ("lambda_of_gamma.svg", "L_of_lambda.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        coords = [float(v) for el in root.iter() for key, v in el.attrib.items()
                  if key in ("x", "y", "x1", "y1", "x2", "y2")]
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        coords += [float(c) for p in line.get("points").split() for c in p.split(",")]
        ticks = [float(el.text) for el in root.iter()
                 if el.tag.endswith("text") and el.get("font-size") == "11"]
        assert len(ticks) == 10 and all(map(math.isfinite, coords + ticks)), name
        assert float(lam) in ticks, name


def test_plot_refuses_an_ln_l_beyond_the_largest_double(tmp_path, capsys):
    # math.exp of an ln_L cell above 709.78 raised an OverflowError traceback
    table = tmp_path / "table.csv"
    table.write_text("lambda,gamma,ln_L,sigma\n1.0,1.46,800,1.0\n2.0,1.9,799,1.0\n")
    out_dir = tmp_path / "svg"
    code, out, err = run_cli(capsys, "plot", "--table", str(table), "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err == ("error (plot): ln_L = 800.0 is above ln(max float) ~ 709.78: "
                   "L is not a finite double\n")
    assert not out_dir.exists()


def test_ensemble_empty_grid_exits_one(capsys):
    # an empty grid printed a bare header and exited 0, never checking epsilon
    code, out, err = run_cli(
        capsys, "ensemble", "--f", "1,2", "--epsilon", "-1", "--n-grid", ""
    )
    assert code == 1 and out == ""
    assert err.startswith("error (ensemble): n_grid")


@pytest.mark.parametrize("alpha, message", [
    # 5**1000 ended in an uncaught OverflowError traceback
    ("1000", "error (ensemble): lambda_eff = rho c n^alpha is inf at n = 5"),
    # nan reached the contour as "lambda must be a finite positive real"
    ("nan", "error (ensemble): schedule exponent alpha must be a finite real, got nan"),
])
def test_ensemble_bad_schedule_exits_one(capsys, alpha, message):
    code, out, err = run_cli(
        capsys, "ensemble", "--f", "1,2", "--radius-c", "1", "--radius-alpha", alpha,
        "--epsilon", "0.02", "--n-grid", "5,10",
    )
    assert code == 1 and out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--method", "contour"], "error (oracle): evaluate requires n <= max float"),
    (["oracle", "--method", "asymptotic"],
     "error (oracle): evaluate requires n <= max float"),
    (["compare"], "error (compare): cross_check requires n <= max float"),
])
def test_an_n_beyond_the_largest_double_exits_one(capsys, argv, message):
    # each ended in an uncaught OverflowError traceback
    code, out, err = run_cli(capsys, *argv, "--n", str(10**400), "--lambda", "1")
    assert code == 1 and out == ""
    assert err.startswith(message)


def test_ensemble_with_an_n_beyond_the_largest_double_exits_one(capsys):
    # it said "lambda_eff = rho c n^alpha is inf" although n^0 = 1
    code, out, err = run_cli(
        capsys, "ensemble", "--f", "1,2", "--epsilon", "0.02", "--n-grid", f"5,{10**400}"
    )
    assert code == 1 and out == ""
    assert err.startswith("error (ensemble): ensemble_comparison requires n <= max float")


def test_ensemble_with_an_overflowing_ln_psi_theta_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "ensemble", "--f", "1e-300", "--theta", "1e306", "--epsilon", "0.05",
        "--n-grid", "2,3",
    )
    assert code == 1 and out == ""
    assert err == "error (ensemble): ln_value must be finite, got inf\n"


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_help_of_every_subcommand(capsys, command):
    # argparse formats help strings only when --help is printed, so a stray %
    # or a bad BooleanOptionalAction help fails only here
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hslaplace {command} ")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "2"])  # missing --lambda
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    ("compare --n 1,x --lambda 1", "argument --n: invalid comma-separated int value: '1,x'"),
    ("ensemble --f 1,x --epsilon 0.02",
     "argument --f: invalid comma-separated float value: '1,x'"),
])
def test_a_malformed_list_entry_is_a_usage_error(capsys, argv, message):
    # ensemble exited 1 with "could not convert string to float: 'x'"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


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


def test_log_grid_refuses_a_zero_endpoint(capsys):
    code, out, err = run_cli(capsys, "table", "--grid-min", "0", "--grid-max", "2")
    assert (code, out, err) == (1, "", "error (table): log grid requires positive endpoints\n")


# Output of the release before the oracle dispatch was collected into one
# route table; a refactor must reproduce it byte for byte.  Values changed
# since on purpose: the asymptotic err_est gained its c (|t1| + |t2|) / n^2
# term (2.6752125057520053e-02 before), and the adaptive-step contour moved
# every contour value, its err_est, and the compare deviation and ensemble
# ln_dn_per_n cells built on them, each by less than 1e-13 (1 + |v|).  The
# tilted FFT quadrature replaced the nested box quadrature: its cells, its
# err_est (tol + 1e-12 before, now the halving difference + n tol e^-10 +
# 1e-14 (1 + |ln F|)) and the deviations of the rows that hold it moved, the
# cells by at most 1.1e-15.  The asymptotic err_est gained the rounding term
# of n ln L, 1e-15 n (1 + |ln L| + 2 gamma |ln lambda|) (3.6435617745339217e-02
# before).  The Monte Carlo cells come from the conditional estimator that
# replaced the Gaussian importance proposal (-1.4785134513253853e+00 with
# err_est 8.7313043809550362e-04, and 3.1182869067119112e-01 at n = 3, before).
# The asymptotic err_est takes psi'' and psi''' exactly from their series
# instead of central differences of trigamma (3.6435617745341459e-02 before).
# The periodic tilted lattice replaced the linear convolution of the
# quadrature: at n = 2 its cell moved -1.4793410244157645e+00 ->
# -1.4793410244157648e+00 (err_est 1.1559326976912734e-13 before, now with the
# step-2h difference and the 1e-15 n rounding term) and the deviation
# 1.1102230246251565e-15 -> 8.8817841970012523e-16; at n = 3 the cell moved
# 3.0947544338276034e-01 -> 3.0947544338275979e-01 and the deviation
# 9.4368957093138306e-16 -> 1.4988010832439613e-15.  The contour err_est
# gained the rounding floor 1e-15 n (1 + |phi0| + gamma |ln lambda|)
# (2.5443751122522321e-12 before), then 1e-14 n for the absolute error of
# n ln Gamma(gamma) (2.5466180848333038e-12 before).  The Monte Carlo err_est
# gained that 1e-14 n when its rounding term became the routes' one bound on
# the error of n ln L (3.2125650769621217e-03 before).
#
# Every ln_L cell of the two tables, the asymptotic and Monte Carlo cells at
# (2, 1) and (3, 0.5), and the critical, eval and regime values moved when
# ln_gamma below 10 became the Taylor series at 2 (it shifted its argument past
# 10 for Stirling's series).  Before, in the order of the rows: ln_L
# 1.7128534606447703e+00, 1.3304017931146734e+00, 7.8998767113194579e-01,
# -4.1527982993336474e-02, -1.4482869063238117e+00 (log grid) and
# 1.7128534606447703e+00, 5.5321139479175008e-01, -1.9404872293273900e-01,
# -8.4398930375111381e-01, -1.4482869063238117e+00 (--no-grid-log).
#
# Every gamma and sigma cell but two, and a few ln_L, contour, asymptotic, Monte
# Carlo and ensemble cells, moved within Newton's stopping tolerance when Newton
# started within 1.3e-9 of the saddle root instead of from Minka's guess.
# Before, log table by row, (gamma, sigma): (4.3858744402204280e-01,
# 6.1871134186350440e+00), (5.9643335154112598e-01, 3.6720474914096788e+00),
# row 3 unchanged, (1.4054746124283961e+00, 1.0199686407393249e+00),
# (2.4796874504281794e+00, 4.9520229675251926e-01), and ln_L
# 1.7128534606447727e+00 (row 1) and -4.1527982993337056e-02 (row 4);
# --no-grid-log rows 3 and 4: (1.5132351419920669e+00, 9.2395504541868612e-01),
# (1.9987756546895583e+00, 6.4542921217604687e-01).  eval --lambda 1.0: gamma
# 1.4616321449683431e+00 (1.9e-14 off 40-digit mpmath, now 1e-16) and sigma
# 9.6767224544763830e-01.  Contour at (2, 1) -1.4793410244157650e+00 with
# err_est 2.5653968395062152e-12 (now equal to the closed form), at (3, 0.5)
# 3.0947544338276017e-01; asymptotic -1.4791528889683900e+00 with err_est
# 2.6979759392741090e-03, and 3.0975048348543521e-01; Monte Carlo err_est
# 3.2125650769821218e-03 at (2, 1) and ln_F 3.1184150470565197e-01 at
# (3, 0.5); max_pairwise_dev 2.2204460492503131e-16 and 3.8857805861880479e-16;
# ensemble at n = 10 -1.3958948332997141e+00.
TABLE_0_1_TO_2 = (
    "lambda,gamma,ln_L,sigma\n"
    "1.0000000000000001e-01,4.3858744402204275e-01,1.7128534606447725e+00,6.1871134186350458e+00\n"
    "2.1147425268811282e-01,5.9643335154112587e-01,1.3304017931146757e+00,3.6720474914096806e+00\n"
    "4.4721359549995798e-01,8.7465016771904314e-01,7.8998767113194823e-01,2.0069516741386852e+00\n"
    "9.4574160900317594e-01,1.4054746124284345e+00,-4.1527982993337084e-02,1.0199686407392872e+00\n"
    "2.0000000000000000e+00,2.4796874504281785e+00,-1.4482869063238164e+00,4.9520229675251953e-01\n"
)
GOLDEN = [
    ("oracle --method closed-form --n 2 --lambda 1",
     "n,lambda,method,ln_F,err_est\n"
     "2,1.0000000000000000e+00,closed-form,-1.4793410244157648e+00,1.0000000000000000e-10\n"),
    ("oracle --method quadrature --n 2 --lambda 1",
     "n,lambda,method,ln_F,err_est\n"
     "2,1.0000000000000000e+00,quadrature,-1.4793410244157648e+00,1.1759326976912736e-13\n"),
    # the contour cells were -1.4793410244157656e+00 (err_est
    # 2.5666180848333037e-12), -1.4793410244157656e+00 and 3.0947544338276128e-01
    # (deviations 8.8817841970012523e-16 and 1.4988010832439613e-15), and the
    # ensemble's -1.5026061269302200e+00, -1.3958948332997136e+00 and
    # -1.3250731631498056e+00, while the integrand went through ln_gamma_complex
    # and phi(0) was solve_saddle's ln L
    ("oracle --method contour --n 2 --lambda 1",
     "n,lambda,method,ln_F,err_est\n"
     "2,1.0000000000000000e+00,contour,-1.4793410244157648e+00,2.5653968395062084e-12\n"),
    # the asymptotic cells moved when the route gained its 1/n and 1/n^2 terms;
    # before: ln_F -1.4920537853295990e+00, err_est 3.6436301400353387e-02 at
    # n = 2, lambda = 1, and 2.9940754186781393e-01 at n = 3, lambda = 0.5.
    # They moved again, with the Monte Carlo cells, when ln_gamma below 10
    # became the Taylor series at 2; before: asymptotic -1.4791528889683918e+00
    # and 3.0975048348543655e-01, Monte Carlo -1.4826168743758528e+00 and
    # 3.1184150470565286e-01.  The Monte Carlo cell at n = 3 moved again when the
    # weights became -gamma S - lambda expm1(-S) in one expm1 pass; before:
    # 3.1184150470565208e-01
    ("oracle --method asymptotic --n 2 --lambda 1",
     "n,lambda,method,ln_F,err_est\n"
     "2,1.0000000000000000e+00,asymptotic,-1.4791528889683818e+00,2.6979759392740136e-03\n"),
    ("oracle --method monte-carlo --n 2 --lambda 1 --samples 20000 --seed 3",
     "n,lambda,method,ln_F,err_est\n"
     "2,1.0000000000000000e+00,monte-carlo,-1.4826168743758519e+00,3.2125650769821391e-03\n"),
    ("compare --n 2 --lambda 1",
     "n,lambda,closed-form,quadrature,contour,monte-carlo,asymptotic,max_pairwise_dev\n"
     "2,1.0000000000000000e+00,-1.4793410244157648e+00,-1.4793410244157648e+00,"
     "-1.4793410244157648e+00,,-1.4791528889683818e+00,0.0000000000000000e+00\n"),
    ("compare --n 3 --lambda 0.5 --samples 20000 --seed 3",
     "n,lambda,closed-form,quadrature,contour,monte-carlo,asymptotic,max_pairwise_dev\n"
     "3,5.0000000000000000e-01,,3.0947544338275979e-01,3.0947544338275995e-01,"
     "3.1184150470565219e-01,3.0975048348543566e-01,1.6653345369377348e-16\n"),
    ("ensemble --f 1,2,3 --epsilon 0.02 --n-grid 5,10,20",
     "n,lambda_eff,ln_dn_per_n,regime,ln_psi_theta\n"
     "5,1.8171205928321394e+00,-1.5026061269302213e+00,vanishes,-5.9725315640935162e-01\n"
     "10,1.8171205928321394e+00,-1.3958948332997139e+00,vanishes,-5.9725315640935162e-01\n"
     "20,1.8171205928321394e+00,-1.3250731631498067e+00,vanishes,-5.9725315640935162e-01\n"),
    # the remaining commands, frozen before their output was routed through
    # one writer; the linear grid of --no-grid-log had no test before.  Before
    # ln_gamma below 10 became the Taylor series at 2: gamma_cr
    # 1.3766109186462141e+00, lambda_cr 9.1792353473797439e-01 (9.2e-16 off
    # 40-digit mpmath, now 1.4e-16), residual 1.6237011735142914e-15; ln_L
    # -1.2148629053585047e-01 (8.6e-16 off, now 3.2e-17) and L
    # 8.8560319441088797e-01 at lambda = 1; margin -1.1792353473797434e-01
    ("critical",
     "gamma_cr = 1.3766109186462150e+00\n"
     "lambda_cr = 9.1792353473797517e-01\n"
     "residual = 1.6653345369377348e-16\n"),
    ("eval --lambda 1.0",
     "lambda,gamma,ln_L,L,sigma\n"
     "1.0000000000000000e+00,1.4616321449683622e+00,-1.2148629053584964e-01,"
     "8.8560319441088864e-01,9.6767224544762132e-01\n"),
    ("regime --lambda 0.8 --epsilon 0.05",
     "lambda_eff,margin,regime\n"
     "8.0000000000000004e-01,-1.1792353473797512e-01,diverges\n"),
    ("table --grid-min 0.1 --grid-max 2 --grid-count 5", TABLE_0_1_TO_2),
    ("table --grid-min 0.1 --grid-max 2 --grid-count 5 --no-grid-log",
     "lambda,gamma,ln_L,sigma\n"
     "1.0000000000000001e-01,4.3858744402204275e-01,1.7128534606447725e+00,6.1871134186350458e+00\n"
     "5.7499999999999996e-01,1.0146417878667813e+00,5.5321139479175208e-01,1.6104168445756801e+00\n"
     "1.0500000000000000e+00,1.5132351419920771e+00,-1.9404872293273664e-01,9.2395504541867801e-01\n"
     "1.5249999999999999e+00,1.9987756546895572e+00,-8.4398930375111114e-01,6.4542921217604743e-01\n"
     "2.0000000000000000e+00,2.4796874504281785e+00,-1.4482869063238164e+00,4.9520229675251953e-01\n"),
]


@pytest.mark.parametrize("command,expected", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_output(capsys, command, expected):
    assert run_cli(capsys, *command.split()) == (0, expected, "")


def test_golden_plot(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(TABLE_0_1_TO_2)
    out = tmp_path / "figs"
    assert run_cli(capsys, "plot", "--table", str(table), "--out", str(out)) == (
        0, f"wrote {out / 'lambda_of_gamma.svg'}\nwrote {out / 'L_of_lambda.svg'}\n", ""
    )
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "lambda_of_gamma.svg": "16dc8f1fd2aad1c394c78e39c79aa71896792336d03b708863ecb405d4090810",
        "L_of_lambda.svg": "5d0ac2ca2efc6e7ca7becac02c40ed334d2cad999ef473d5a35283da541bb0fa",
    }
