"""The four benchmark workloads: seeded op lists and the checks each op must pass.

Every input is drawn from ``random.Random(seed)``; the package receives only
the drawn values.  Parameters that set an op's cost are drawn stratified (one
draw per equal-width stratum, in shuffled order), so two seeds give op lists
of nearly the same total cost and the run-to-run spread of the timings
reflects the program, not the luck of the draw.

An op never aborts the run.  ``Outcome.failures`` lists ``(route, reason)``
pairs: an exception, a failed check or a breach of an ``err_ln`` contract
(|ln F - truth| <= err_ln) each add one, and the op is not ok.  A failure
is *hard* when the benchmark found a wrong output: a check on a value
failed (a monotone column, a residual, two exact routes more than
``GROSS_REL`` apart, CLI output that differs from in-process ``main``).
Only an op with a hard failure counts as failed, and the run is correct
when no op failed.  Exceptions are refusals and ``err_ln`` breaches are
broken claims: they make an op not ok, which ``ok_frac`` measures, but not
failed.

``Outcome.digits`` is -log10(|value - reference| / (1 + |reference|)), capped
at 16, minimised over the references the op has, or None when it has none.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hslaplace as hs
import hslaplace.cli as hs_cli

# lambda_cr to 12 digits (README); used only to place generated inputs, the
# package computes its own value.
LAMBDA_CR = 0.917923534738
MAX_DIGITS = 16.0
# Exact routes further apart than this, relative to 1 + |ln F|, give a wrong
# output.  The parent's worst pair is contour at n = 1, lambda = 1e-20 (5.5e-6).
GROSS_REL = 1e-4


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    digits: float | None = None
    hard: bool = False
    # time spent in the op's own calls, without the checks
    op_s: float = 0.0

    def fail(self, route: str, reason: str, hard: bool = False) -> None:
        self.failures.append((route, reason))
        self.hard = self.hard or hard

    def check(self, ok: bool, route: str, reason: str) -> None:
        """A check on a value; failing it means a wrong output."""
        if not ok:
            self.fail(route, "check: " + reason, hard=True)

    def accuracy(self, value: float, reference: float) -> None:
        err = abs(value - reference) / (1.0 + abs(reference))
        d = MAX_DIGITS if err == 0.0 else min(MAX_DIGITS, -math.log10(err))
        self.digits = d if self.digits is None else min(self.digits, d)

    def call(self, route: str, fn, *args):
        """fn(*args), recording an exception as a failure of ``route``."""
        try:
            return fn(*args)
        except Exception as exc:  # every exception is an op failure, never an abort
            self.fail(route, f"raises {type(exc).__name__}: {str(exc).split(':')[0]}")
            return None

    def timed(self, route: str, fn, *args):
        """``call`` that counts as the op itself in the op's latency."""
        t0 = time.perf_counter()
        try:
            return self.call(route, fn, *args)
        finally:
            self.op_s += time.perf_counter() - t0


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / count
    vals = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# saddle_grid: tabulate over ~200-point log grids (kernel inside Newton)
# ---------------------------------------------------------------------------

SADDLE_OPS = 100
SADDLE_POINTS = 200


def saddle_grid_ops(rng: random.Random) -> list:
    ops = []
    for lo_frac in _strata(rng, SADDLE_OPS, 0.0, 1.0):
        decades = rng.uniform(1.0, 6.0)
        lo = -8.0 + (14.0 - decades) * lo_frac
        grid = sorted({10.0 ** rng.uniform(lo, lo + decades) for _ in range(SADDLE_POINTS)})
        checks = sorted(rng.sample(range(len(grid)), 3))
        ops.append(("tabulate", grid, checks))
    return ops


def run_saddle_op(op) -> Outcome:
    _, grid, checks = op
    out = Outcome()
    rows = out.timed("tabulate", hs.tabulate, grid)
    if rows is None:
        return out
    if len(rows) != len(grid):
        out.check(False, "tabulate", "row count differs from grid size")
        return out
    out.check(all(a.gamma < b.gamma for a, b in zip(rows, rows[1:])),
              "tabulate", "gamma not strictly increasing")
    out.check(all(a.ln_L > b.ln_L for a, b in zip(rows, rows[1:])),
              "tabulate", "ln L not strictly decreasing")
    for i in checks:
        ref = out.call("legendre", hs.L_value_legendre, grid[i])
        if ref is None:
            continue
        out.accuracy(rows[i].ln_L, ref.ln_value)
        out.check(abs(rows[i].ln_L - ref.ln_value) <= 1e-8 * (1.0 + abs(ref.ln_value)),
                  "tabulate", "Newton and Legendre ln L differ beyond 1e-8")
    return out


# ---------------------------------------------------------------------------
# oracle_crosscheck: one `compare` row per op, every applicable route
# ---------------------------------------------------------------------------

ORACLE_NS = (1, 2, 3, 4, 8, 40, 1000, 100_000)
# n = 2 is the one dimension where all five routes run, so it gets twice the
# strata; that also puts the median op inside the n = 2 rows rather than on
# the edge between two clusters of row costs.
ORACLE_LAMBDAS = {n: 16 if n == 2 else 8 for n in ORACLE_NS}
MC_SAMPLES = 100_000
# Domain edges, rows fixed for every seed.  Quadrature at n = 4 is not on the
# slice only because one call there costs 2.5-9.5 s; n = 4 is not trimmed from
# the slice for any other reason.
EDGE_NS = (1, 2, 3)
EDGE_LAMBDAS = (1e-20, 1e-12, 1e8)
EXACT_ROUTES = ("closed-form", "quadrature", "contour")


def oracle_crosscheck_ops(rng: random.Random) -> list:
    ops = []
    for n in ORACLE_NS:
        for e in _strata(rng, ORACLE_LAMBDAS[n], -3.0, 2.0):
            ops.append(("compare", n, 10.0**e, rng.randrange(2**31)))
    rng.shuffle(ops)
    ops += [("compare", n, lam, rng.randrange(2**31)) for n in EDGE_NS for lam in EDGE_LAMBDAS]
    return ops


def compare_routes(out: Outcome, n: int, lam: float, mc_seed: int) -> dict:
    """Every route applicable at (n, lam), as in ``hslaplace compare``."""
    res = {}
    if n <= 2:
        res["closed-form"] = out.timed(
            "closed-form", hs.f1_exact if n == 1 else hs.f2_exact, lam
        )
    if 2 <= n <= 4:
        res["quadrature"] = out.timed("quadrature", hs.fn_quadrature, n, lam)
    res["contour"] = out.timed("contour", hs.fn_contour, n, lam)
    res["asymptotic"] = out.timed("asymptotic", hs.fn_saddle_asymptotic, n, lam)
    if 2 <= n <= 40:
        res["monte-carlo"] = out.timed(
            "monte-carlo", hs.fn_montecarlo, n, lam, MC_SAMPLES, mc_seed
        )
    return {k: v for k, v in res.items() if v is not None}


def run_oracle_op(op) -> Outcome:
    _, n, lam, mc_seed = op
    out = Outcome()
    res = compare_routes(out, n, lam, mc_seed)
    exact = [k for k in EXACT_ROUTES if k in res]
    for i, a in enumerate(exact):
        for b in exact[i + 1 :]:
            va, vb = res[a].value.ln_value, res[b].value.ln_value
            if abs(va - vb) > res[a].err_ln + res[b].err_ln:
                out.fail(f"{a}~{b}", "err_ln breach: exact routes disagree")
            out.check(abs(va - vb) <= GROSS_REL * (1.0 + abs(va)),
                      f"{a}~{b}", f"exact routes differ beyond {GROSS_REL:g}")
    if not exact:
        return out
    ref = res[exact[0]]
    for k in exact[1:]:
        out.accuracy(res[k].value.ln_value, ref.value.ln_value)
    if "asymptotic" in res:
        a = res["asymptotic"]
        if abs(a.value.ln_value - ref.value.ln_value) > a.err_ln + ref.err_ln:
            out.fail(f"asymptotic~{exact[0]}", "err_ln breach: asymptotic beyond its claim")
    if "monte-carlo" in res:
        m = res["monte-carlo"]
        if abs(m.value.ln_value - ref.value.ln_value) > 5.0 * m.err_ln + ref.err_ln:
            out.fail(f"monte-carlo~{exact[0]}", "err_ln breach: beyond 5 standard errors")
    return out


# ---------------------------------------------------------------------------
# measure_sweep: laplace_dn, unit_crossing and ensemble tables, shuffled
# ---------------------------------------------------------------------------

SWEEP_DN = 80
SWEEP_CROSSINGS = 15
SWEEP_TABLES = 5
ENSEMBLE_GRID = (5, 10, 20, 40, 80)
# the four schedules of scripts/ensemble_report.py
SCHEDULES = ("critical", (2.0 * LAMBDA_CR, 0.0), (0.5 * LAMBDA_CR, 0.0), (0.3, 0.5))


def measure_sweep_ops(rng: random.Random) -> list:
    ops = []
    for log_n, log_r in zip(
        _strata(rng, SWEEP_DN, math.log(3.0), math.log(1e4)),
        _strata(rng, SWEEP_DN, -1.0, 1.0),
    ):
        n = max(3, round(math.exp(log_n)))
        f = tuple(rng.lognormvariate(0.0, 1.0) for _ in range(n))
        ops.append(("laplace_dn", n, f, log_r))
    for log_n in _strata(rng, SWEEP_CROSSINGS, math.log(2.0), math.log(1e4)):
        ops.append(("unit_crossing", max(2, round(math.exp(log_n)))))
    schedules = list(SCHEDULES) + [rng.choice(SCHEDULES)]
    for schedule in schedules[:SWEEP_TABLES]:
        f = tuple(rng.lognormvariate(0.0, 1.0) for _ in range(3))
        ops.append(("ensemble", f, schedule))
    rng.shuffle(ops)
    return ops


def _asymptotic_agrees(out: Outcome, route: str, n: int, lam: float, ln_f: float, err: float):
    a = out.call("asymptotic", hs.fn_saddle_asymptotic, n, lam)
    if a is not None and abs(a.value.ln_value - ln_f) > a.err_ln + err:
        out.fail(f"asymptotic~{route}", "err_ln breach: asymptotic beyond its claim")


def run_sweep_op(op) -> Outcome:
    out = Outcome()
    kind = op[0]
    if kind == "laplace_dn":
        _, n, f, log_r = op
        # r within a decade of lambda_cr / rho(f); rho computed here, not by the package
        rho = math.exp(math.fsum(math.log(v) for v in f) / n)
        r = LAMBDA_CR / rho * 10.0**log_r
        res = out.timed("laplace_dn", lambda: hs.laplace_dn(hs.HypersphereSpec(n, r, f)))
        if res is not None:
            _asymptotic_agrees(out, "laplace_dn", n, rho * r, res.value.ln_value, res.err_ln)
    elif kind == "unit_crossing":
        n = op[1]
        lam_n = out.timed("unit_crossing", hs.unit_crossing, n)
        if lam_n is not None:
            res = out.call("contour", hs.fn_contour, n, lam_n)
            if res is not None:
                out.accuracy(res.value.ln_value, 0.0)
                out.check(abs(res.value.ln_value) <= 1e-9,
                          "unit_crossing", "|ln F_n(lambda_n)| > 1e-9")
    else:
        _, f, schedule = op
        rows = out.timed(
            "ensemble_comparison", hs.ensemble_comparison, f, 1.0, schedule, ENSEMBLE_GRID, 0.02
        )
        if rows is not None:
            _check_ensemble(out, f, rows)
    return out


def _check_ensemble(out: Outcome, f, rows) -> None:
    if [r.n for r in rows] != list(ENSEMBLE_GRID):
        out.check(False, "ensemble_comparison", "rows do not follow n_grid")
        return
    ln_psi = -math.fsum(math.log(v) for v in f) / len(f)
    for r in rows:
        out.check(abs(r.ln_psi_theta - ln_psi) <= 1e-12 * (1.0 + abs(ln_psi)),
                  "ensemble_comparison", "ln Psi_theta is not -theta mean(ln f)")
        margin = r.lambda_eff - LAMBDA_CR
        expect = (
            "diverges" if margin < -0.02 - 1e-9 else "vanishes" if margin > 0.02 + 1e-9 else None
        )
        out.check(expect is None or r.regime.value == expect,
                  "ensemble_comparison", "regime contradicts lambda_eff")
        # a row carries no err_ln; 1e-9 per dimension covers the contour's claim
        _asymptotic_agrees(
            out, "ensemble_comparison", r.n, r.lambda_eff, r.n * r.ln_dn_per_n, 1e-9 * r.n
        )


# ---------------------------------------------------------------------------
# cli_session: one fresh CLI process per op, byte-compared with in-process main
# ---------------------------------------------------------------------------

# The child calls the console-script entry point: `python -m hslaplace.cli`
# prints nothing because cli.py has no __main__ guard.
CLI_CHILD = "from hslaplace.cli import main_entry; main_entry()"
CLI_TRACED_CHILD = str(Path(__file__).with_name("cli_child.py"))


def _f17(x: float) -> str:
    return format(x, ".17g")


CLI_VARIANTS = 3


def cli_session_ops(rng: random.Random) -> list:
    """README commands, each with CLI_VARIANTS sets of seeded arguments."""

    def lam(lo, hi):
        return _f17(10.0 ** rng.uniform(lo, hi))

    def n_log(hi):
        return str(round(10.0 ** rng.uniform(0.0, hi)))

    ops: list = []
    for k in range(CLI_VARIANTS):
        grid_lo = rng.uniform(-6.0, 0.0)
        table = ["table", "--grid-min", _f17(10.0**grid_lo),
                 "--grid-max", _f17(10.0 ** (grid_lo + rng.uniform(2.0, 5.0)))]
        f = ",".join(_f17(rng.lognormvariate(0.0, 1.0)) for _ in range(3))
        schedule = rng.choice(
            (["--radius-critical"], ["--radius-c", lam(-0.5, 0.5)],
             ["--radius-c", "0.3", "--radius-alpha", "0.5"])
        )
        mc = ["--samples", "100000", "--seed", str(rng.randrange(2**31))]
        ops += [
            ["critical"],
            ["eval", "--lambda", lam(-3.0, 3.0)],
            table,
            ["oracle", "--method", "closed-form", "--n", rng.choice(("1", "2")), "--lambda", lam(-3.0, 2.0)],
            ["oracle", "--method", "quadrature", "--n", rng.choice(("2", "3")), "--lambda", lam(-1.0, 1.0)],
            ["oracle", "--method", "contour", "--n", n_log(4.0), "--lambda", lam(-2.0, 1.0)],
            ["oracle", "--method", "asymptotic", "--n", n_log(4.0), "--lambda", lam(-2.0, 1.0)],
            # n fixed so that the memory peak does not follow the seed; lambda
            # near 1, where the weights are well conditioned (Monte Carlo
            # refusals are measured by oracle_crosscheck)
            ["oracle", "--method", "monte-carlo", "--n", "6", "--lambda", lam(-0.5, 0.5)] + mc,
            ["compare", "--n", "3", "--lambda", lam(-0.3, 0.7)] + mc,
            ["regime", "--lambda", lam(-1.0, 1.0), "--epsilon", "0.05"],
            ["ensemble", "--f", f, *schedule, "--epsilon", "0.02"],
            ["plot", "--table", f"table{k}.csv"],  # the table above
        ]
    return ops


def in_process_cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hs_cli.main(argv)
    return code, buf.getvalue()


class CliSession:
    """Runs cli_session ops as child processes in ``workdir`` (inside the checkout)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.plot_dir = workdir / "plot"
        # children write their spans here while set
        self.trace_dir: Path | None = None

    def argv(self, op: list) -> list:
        if op[0] == "plot":
            return ["plot", "--table", str(self.workdir / op[2]), "--out", str(self.plot_dir)]
        return op

    def prepare(self, ops: list) -> None:
        """Write the tables the plot ops read (not timed)."""
        tables = [op for op in ops if op[0] == "table"]
        for plot, table in zip((op for op in ops if op[0] == "plot"), tables):
            code, text = in_process_cli(table)
            if code != 0:
                raise RuntimeError(f"cannot build the plot input: {table}")
            (self.workdir / plot[2]).write_text(text, encoding="ascii", newline="")

    def child(self, argv: list, op_id: str) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI_CHILD, *argv]
        else:
            out = self.trace_dir / f"{op_id}.json"
            cmd = [sys.executable, CLI_TRACED_CHILD, str(out), op_id, *argv]
        return subprocess.run(cmd, capture_output=True, timeout=120)

    def run(self, op: list, op_id: str) -> Outcome:
        out = Outcome()
        argv = self.argv(op)
        route = argv[0]
        t0 = time.perf_counter()
        try:
            proc = self.child(argv, op_id)
        except subprocess.TimeoutExpired:
            out.fail(route, "child timed out")
            return out
        finally:
            out.op_s = time.perf_counter() - t0
        stdout = proc.stdout.decode("ascii", "replace")
        child_files = self._plot_files() if route == "plot" else None
        if proc.returncode != 0:
            out.fail(route, f"child exit code {proc.returncode}")
        code, ref = in_process_cli(argv)
        if code != 0:
            out.fail(route, f"in-process main returned {code}")
        out.check(bool(stdout), route, "empty stdout")
        out.check(stdout == ref, route, "stdout differs from in-process main")
        if child_files is not None:
            out.check(child_files == self._plot_files(), route, "SVG differs from in-process main")
        if not out.failures:
            self._accuracy(out, argv, ref)
        return out

    def _plot_files(self) -> dict:
        return {p.name: p.read_bytes() for p in sorted(self.plot_dir.glob("*.svg"))}

    @staticmethod
    def _accuracy(out: Outcome, argv: list, text: str) -> None:
        """Printed ln values against an independent in-process route."""
        if argv[0] == "eval":
            row = text.splitlines()[1].split(",")
            out.accuracy(float(row[2]), hs.L_value_legendre(float(row[0])).ln_value)
        elif argv[0] == "oracle" and argv[2] in EXACT_ROUTES:
            method, n, lam = argv[2], int(argv[4]), float(argv[6])
            if method != "closed-form" and n <= 2:
                ref = (hs.f1_exact if n == 1 else hs.f2_exact)(lam)
            elif method != "contour":
                ref = hs.fn_contour(n, lam)
            else:
                return
            out.accuracy(float(text.splitlines()[1].split(",")[3]), ref.value.ln_value)


WORKLOADS = {
    "saddle_grid": (saddle_grid_ops, run_saddle_op),
    "oracle_crosscheck": (oracle_crosscheck_ops, run_oracle_op),
    "measure_sweep": (measure_sweep_ops, run_sweep_op),
    "cli_session": (cli_session_ops, None),
}


def build_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0](random.Random(seed))
