"""Command-line surface: CSV tables and SVG plots for every layer.

Subcommands
-----------
critical   gamma_cr, lambda_cr and the defining-equation residual
eval       saddle data (gamma, ln_L, L, sigma) at one lambda
table      CSV ``lambda,gamma,ln_L,sigma`` over a grid
oracle     CSV ``n,lambda,method,ln_F,err_est`` for one oracle
compare    all applicable oracles side by side + max pairwise deviation, one
           row per (n, lambda) pair of its comma lists; a route that refuses
           leaves its cell empty and is named on stderr
regime     divergence / vanishing classification of a lambda_eff
ensemble   the radius-schedule comparison table
plot       SVG renderings of lambda(gamma) and L(lambda) from a table CSV

Each command returns its text and ``main`` writes it, to stdout or to the
file named by ``--out`` (``plot`` writes its SVGs into the directory named by
``--out`` and returns the lines that name them).  Floats are printed with 17
significant digits so CSV output round-trips exactly and is byte-stable
across runs (Monte Carlo included, via --seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .hypersphere import classify_regime, ensemble_comparison
from .oracles import _MONTE_CARLO_SAMPLES, Method, cross_check, evaluate
from .saddle import critical_point, solve_saddle, tabulate
from .svgplot import line_plot_svg


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _emit(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="ascii", newline="")


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of cells."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _comma_list(convert):
    """An argparse ``type``: comma-separated ``convert`` values, empty entries
    skipped; a bad entry is a usage error "invalid comma-separated int value"."""
    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",") if v]
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


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


def _cmd_critical(args) -> str:
    cp = critical_point()
    return (
        f"gamma_cr = {_fmt(cp.gamma_cr)}\n"
        f"lambda_cr = {_fmt(cp.lambda_cr)}\n"
        f"residual = {_fmt(cp.residual)}\n"
    )


def _cmd_eval(args) -> str:
    sol = solve_saddle(args.lam)
    values = (sol.lam, sol.gamma, sol.ln_L, math.exp(sol.ln_L), sol.sigma)
    return _csv("lambda,gamma,ln_L,L,sigma", [map(_fmt, values)])


def _cmd_table(args) -> str:
    rows = tabulate(_grid(args))  # SaddleSolution's fields are in the header's order
    return _csv("lambda,gamma,ln_L,sigma", (map(_fmt, sol) for sol in rows))


def _cmd_oracle(args) -> str:
    res = evaluate(args.method, args.n, args.lam, args.tol, args.samples, args.seed)
    return _csv("n,lambda,method,ln_F,err_est", [(
        str(args.n), _fmt(args.lam), res.method.value, _fmt(res.value.ln_value), _fmt(res.err_ln)
    )])


def _cmd_compare(args) -> str:
    if not (args.n and args.lam):
        raise ValueError("compare requires at least one n and one lambda")
    rows = []
    for n, lam in [(n, lam) for n in args.n for lam in args.lam]:
        results, refusals, max_dev = cross_check(n, lam, args.tol, args.samples, args.seed)
        for method, message in refusals.items():
            print(f"refused ({method.value}): {message}", file=sys.stderr)
        cells = [_fmt(results[m].value.ln_value) if m in results else "" for m in Method]
        rows.append((str(n), _fmt(lam), *cells, _fmt(max_dev)))
    header = "n,lambda," + ",".join(m.value for m in Method) + ",max_pairwise_dev"
    return _csv(header, rows)


def _cmd_regime(args) -> str:
    rep = classify_regime(args.lam, args.epsilon)
    row = (_fmt(rep.lambda_eff), _fmt(rep.margin), rep.regime.value)
    return _csv("lambda_eff,margin,regime", [row])


def _cmd_ensemble(args) -> str:
    schedule = "critical" if args.radius_critical else (args.radius_c, args.radius_alpha)
    rows = ensemble_comparison(args.f, args.theta, schedule, args.n_grid, args.epsilon)
    return _csv("n,lambda_eff,ln_dn_per_n,regime,ln_psi_theta", [
        (str(r.n), _fmt(r.lambda_eff), _fmt(r.ln_dn_per_n), r.regime.value, _fmt(r.ln_psi_theta))
        for r in rows
    ])


def _exp_ln_l(ln_l: float) -> float:
    try:
        return math.exp(ln_l)
    except OverflowError:
        raise ValueError(
            f"ln_L = {ln_l!r} is above ln(max float) ~ 709.78: L is not a finite double"
        ) from None


def _cmd_plot(args) -> str:
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
    big_l = [_exp_ln_l(float(r[idx["ln_L"]])) for r in rows]
    out_dir = Path(args.out or ".")
    # made before the first plot, which may refuse its data
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ""
    for name, x, y, title, x_label, y_label in (
        ("lambda_of_gamma.svg", gam, lam, "saddle abscissa map", "gamma", "lambda"),
        ("L_of_lambda.svg", lam, big_l, "decay-rate function L", "lambda", "L"),
    ):
        _emit(line_plot_svg(x, y, title=title, x_label=x_label, y_label=y_label), out_dir / name)
        report += f"wrote {out_dir / name}\n"
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslaplace",
        description="Hypersphere Laplace transforms: saddle data, oracles, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options,
                out_help="write output to this file (default: stdout)"):
        """A subcommand with its (flag, add_argument keywords) options, then --out."""
        p = sub.add_parser(name, help=help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help=out_help)
        p.set_defaults(func=func)

    lam = ("--lambda", dict(dest="lam", type=float, required=True))

    def route_options(samples):  # compare's default 0 runs no Monte Carlo
        return (
            ("--tol", dict(type=float, default=1e-9, help="quadrature tolerance")),
            ("--samples", dict(type=int, default=samples, help="Monte Carlo sample count")),
            ("--seed", dict(type=int, default=0, help="Monte Carlo seed")),
        )

    command("critical", _cmd_critical, "critical point of the decay-rate function")
    command("eval", _cmd_eval, "saddle data at one lambda", lam)
    command(
        "table", _cmd_table, "saddle table over a lambda grid",
        ("--grid-min", dict(type=float, default=1e-3)),
        ("--grid-max", dict(type=float, default=10.0)),
        ("--grid-count", dict(type=int, default=200)),
        ("--grid-log", dict(action=argparse.BooleanOptionalAction, default=True,
                            help="log-spaced grid (default) or linear with --no-grid-log")),
    )
    command(
        "oracle", _cmd_oracle, "one ln F_n evaluation by a chosen route",
        ("--n", dict(type=int, required=True)), lam, *route_options(_MONTE_CARLO_SAMPLES),
        ("--method", dict(required=True, choices=[m.value for m in Method])),
    )
    ints, floats = _comma_list(int), _comma_list(float)
    command(
        "compare", _cmd_compare, "all applicable routes side by side",
        ("--n", dict(type=ints, required=True, help="comma-separated dimensions")),
        ("--lambda", dict(dest="lam", type=floats, required=True, help="comma-separated lambdas")),
        *route_options(0),
    )
    command(
        "regime", _cmd_regime, "classify an effective lambda",
        lam, ("--epsilon", dict(type=float, required=True)),
    )
    command(
        "ensemble", _cmd_ensemble, "radius-schedule comparison table",
        ("--f", dict(type=floats, required=True, help="comma-separated positive weights")),
        ("--theta", dict(type=float, default=1.0)),
        ("--radius-c", dict(type=float, default=1.0)),
        ("--radius-alpha", dict(type=float, default=0.0)),
        ("--radius-critical", dict(
            action="store_true", help="pin the schedule to r_n = lambda_cr / rho(f)"
        )),
        ("--epsilon", dict(type=float, required=True)),
        ("--n-grid", dict(type=ints, default="5,10,20,40", help="comma-separated dimensions")),
    )
    command(
        "plot", _cmd_plot, "SVG plots from a table CSV",
        ("--table", dict(required=True, help="CSV produced by the table subcommand")),
        out_help="output directory (default: .)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        # plot's --out is the directory it wrote into; its report goes to stdout
        _emit(text, None if args.command == "plot" else args.out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
