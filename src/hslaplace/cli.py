"""Command-line surface: CSV tables and SVG plots for every layer.

Subcommands
-----------
critical   gamma_cr, lambda_cr and the defining-equation residual
eval       saddle data (gamma, ln_L, L, sigma) at one lambda
table      CSV ``lambda,gamma,ln_L,sigma`` over a grid
oracle     CSV ``n,lambda,method,ln_F,err_est`` for one oracle
compare    all applicable oracles side by side + max pairwise deviation; a
           route that refuses leaves its cell empty and is named on stderr
regime     divergence / vanishing classification of a lambda_eff
ensemble   the radius-schedule comparison table
plot       SVG renderings of lambda(gamma) and L(lambda) from a table CSV

Floats are printed with 17 significant digits so CSV output round-trips
exactly and is byte-stable across runs (Monte Carlo included, via --seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .hypersphere import classify_regime, ensemble_comparison
from .oracles import Method, cross_check, evaluate
from .saddle import critical_point, solve_saddle, tabulate
from .svgplot import line_plot_svg


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="ascii", newline="")


def _grid(args) -> np.ndarray:
    if not (args.grid_min < args.grid_max) or args.grid_count < 2:
        raise ValueError("grid requires min < max and count >= 2")
    if args.grid_log:
        if args.grid_min <= 0.0:
            raise ValueError("log grid requires positive endpoints")
        return np.logspace(
            math.log10(args.grid_min), math.log10(args.grid_max), args.grid_count
        )
    return np.linspace(args.grid_min, args.grid_max, args.grid_count)


def _cmd_critical(args) -> None:
    cp = critical_point()
    _emit(
        f"gamma_cr = {_fmt(cp.gamma_cr)}\n"
        f"lambda_cr = {_fmt(cp.lambda_cr)}\n"
        f"residual = {_fmt(cp.residual)}\n",
        args.out,
    )


def _cmd_eval(args) -> None:
    sol = solve_saddle(args.lam)
    lines = [
        "lambda,gamma,ln_L,L,sigma",
        ",".join(_fmt(v) for v in (sol.lam, sol.gamma, sol.ln_L, math.exp(sol.ln_L), sol.sigma)),
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_table(args) -> None:
    rows = tabulate(_grid(args))
    lines = ["lambda,gamma,ln_L,sigma"]
    for sol in rows:
        lines.append(",".join(_fmt(v) for v in (sol.lam, sol.gamma, sol.ln_L, sol.sigma)))
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_oracle(args) -> None:
    res = evaluate(args.method, args.n, args.lam, args.tol, args.samples, args.seed)
    lines = [
        "n,lambda,method,ln_F,err_est",
        f"{args.n},{_fmt(args.lam)},{res.method.value},"
        f"{_fmt(res.value.ln_value)},{_fmt(res.err_ln)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_compare(args) -> None:
    results, refusals, max_dev = cross_check(
        args.n, args.lam, args.tol, args.samples, args.seed
    )
    for method, message in refusals.items():
        print(f"refused ({method.value}): {message}", file=sys.stderr)
    header = "n,lambda," + ",".join(m.value for m in Method) + ",max_pairwise_dev"
    cells = [str(args.n), _fmt(args.lam)]
    for method in Method:
        cells.append(_fmt(results[method].value.ln_value) if method in results else "")
    cells.append(_fmt(max_dev))
    _emit(header + "\n" + ",".join(cells) + "\n", args.out)


def _cmd_regime(args) -> None:
    rep = classify_regime(args.lam, args.epsilon)
    lines = [
        "lambda_eff,margin,regime",
        f"{_fmt(rep.lambda_eff)},{_fmt(rep.margin)},{rep.regime.value}",
    ]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_ensemble(args) -> None:
    f = [float(v) for v in args.f.split(",") if v]
    n_grid = [int(v) for v in args.n_grid.split(",") if v]
    schedule = "critical" if args.radius_critical else (args.radius_c, args.radius_alpha)
    rows = ensemble_comparison(f, args.theta, schedule, n_grid, args.epsilon)
    lines = ["n,lambda_eff,ln_dn_per_n,regime,ln_psi_theta"]
    for row in rows:
        lines.append(
            f"{row.n},{_fmt(row.lambda_eff)},{_fmt(row.ln_dn_per_n)},"
            f"{row.regime.value},{_fmt(row.ln_psi_theta)}"
        )
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_plot(args) -> None:
    text = Path(args.table).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError(f"table {args.table} is empty")
    header = lines[0].split(",")
    need = {"lambda", "gamma", "ln_L"}
    if not need.issubset(header):
        raise ValueError(f"table must provide columns {sorted(need)}")
    idx = {name: header.index(name) for name in header}
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) < len(header) for r in rows):
        raise ValueError(f"every table row must have the header's {len(header)} columns")
    lam = [float(r[idx["lambda"]]) for r in rows]
    gam = [float(r[idx["gamma"]]) for r in rows]
    big_l = [math.exp(float(r[idx["ln_L"]])) for r in rows]
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "lambda_of_gamma.svg").write_text(
        line_plot_svg(
            gam, lam, title="saddle abscissa map", x_label="gamma", y_label="lambda"
        ),
        encoding="ascii",
        newline="",
    )
    (out_dir / "L_of_lambda.svg").write_text(
        line_plot_svg(
            lam, big_l, title="decay-rate function L", x_label="lambda", y_label="L"
        ),
        encoding="ascii",
        newline="",
    )
    sys.stdout.write(f"wrote {out_dir / 'lambda_of_gamma.svg'}\n")
    sys.stdout.write(f"wrote {out_dir / 'L_of_lambda.svg'}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslaplace",
        description="Hypersphere Laplace transforms: saddle data, oracles, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to this file (default: stdout)")

    p = sub.add_parser("critical", help="critical point of the decay-rate function")
    add_common(p)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("eval", help="saddle data at one lambda")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="saddle table over a lambda grid")
    p.add_argument("--grid-min", type=float, default=1e-3)
    p.add_argument("--grid-max", type=float, default=10.0)
    p.add_argument("--grid-count", type=int, default=200)
    p.add_argument(
        "--grid-log",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="log-spaced grid (default) or linear with --no-grid-log",
    )
    add_common(p)
    p.set_defaults(func=_cmd_table)

    def add_oracle_opts(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance")
        p.add_argument("--samples", type=int, default=0, help="Monte Carlo sample count")
        p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    p = sub.add_parser("oracle", help="one ln F_n evaluation by a chosen route")
    add_oracle_opts(p)
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare", help="all applicable routes side by side")
    add_oracle_opts(p)
    add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("regime", help="classify an effective lambda")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("ensemble", help="radius-schedule comparison table")
    p.add_argument("--f", required=True, help="comma-separated positive weights")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--radius-c", type=float, default=1.0)
    p.add_argument("--radius-alpha", type=float, default=0.0)
    p.add_argument(
        "--radius-critical",
        action="store_true",
        help="pin the schedule to r_n = lambda_cr / rho(f)",
    )
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-grid", default="5,10,20,40", help="comma-separated dimensions")
    add_common(p)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("plot", help="SVG plots from a table CSV")
    p.add_argument("--table", required=True, help="CSV produced by the table subcommand")
    p.add_argument("--out", default=None, help="output directory (default: .)")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
