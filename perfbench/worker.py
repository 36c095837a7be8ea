"""One benchmark run in a fresh single-threaded process; prints one JSON line.

usage: worker.py WORKLOAD SEED SECONDS TRACE OUTDIR

Builds the seeded op list, then runs it in passes, at least two and as
many as fit in SECONDS.  A closed loop: one caller issues one op at a time.

Each op's time is scaled by the calibration kernel timed right before and
after it (see calibrate.py), and an op's latency is the fastest of its
scaled times over the passes.  ``wall_s`` sums these per-op times (checks
included); ``op_p50_ms`` and ``op_tail_ms`` are taken over them, so the
sample count is the number of ops in the list.

With TRACE = 1 untraced and traced passes alternate; the per-layer metrics
are sums over the traced passes divided by their number, and their times
are not scaled.
"""

from __future__ import annotations

import collections
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hslaplace as hs

import calibrate
import tracer
import workloads


def probe_structure() -> dict:
    """Counts fixed by the code's structure, measured through the tracer.

    unit_crossing(40) makes 37 contour calls, a 5-row ensemble table solves
    critical_point 6 times and fn_contour uses at least 4001 nodes in the
    code this benchmark was written against.  Seeing them proves that the
    wrappers catch calls made from other modules.
    """
    t = tracer.Tracer()
    t.install()
    try:
        probes = (
            ("probe.unit_crossing_n40.contour_per_call",
             "hypersphere.unit_crossing.contour_per_call", lambda: hs.unit_crossing(40)),
            ("probe.ensemble_5row.critical_point_per_row",
             "hypersphere.ensemble_comparison.critical_point_per_row",
             lambda: hs.ensemble_comparison(
                 (1.0, 1.0, 1.0), 1.0, "critical", workloads.ENSEMBLE_GRID, 0.02)),
            ("probe.fn_contour_n40.nodes_per_call",
             "oracles.fn_contour.nodes_per_call", lambda: hs.fn_contour(40, 1.0)),
        )
        out = {}
        for name, metric, fn in probes:
            fn()
            stats = tracer.LayerStats()
            stats.add(t.take())
            out[name] = (stats.metrics(1)[metric][0], "ratio")
        return out
    finally:
        t.uninstall()


def write_spans(path: Path, span_lists: list) -> None:
    """CSV of spans; span and parent index rows of the same list."""
    with path.open("w", encoding="ascii") as fh:
        fh.write("function,span,start_s,end_s,parent,op,raised,elems\n")
        for spans in span_lists:
            for i, (idx, t0, t1, parent, op, raised, elems) in enumerate(spans):
                fh.write(f"{tracer.NAMES[idx]},{i},{t0!r},{t1!r},{parent},{op},{int(raised)},{elems}\n")


class Run:
    def __init__(self, workload: str, seed: int, outdir: Path):
        self.ops = workloads.build_ops(workload, seed)
        # per pass: traced?, then one (op_s, total_s, scale) per op; total_s
        # includes the checks, scale = REF_S / mean(kernel before, kernel after)
        self.passes: list[tuple[bool, list]] = []
        # ops with any failure, and those of them with a wrong output
        self.not_ok = 0
        self.wrong = 0
        self.by_route = collections.Counter()
        self.digits: float | None = None
        self.cli = None
        if workload == "cli_session":
            self.cli = workloads.CliSession(outdir)
            self.cli.prepare(self.ops)
            self.execute = self.cli.run
        else:
            runner = workloads.WORKLOADS[workload][1]
            self.execute = lambda op, _op_id: runner(op)

    def one_pass(self, tr: tracer.Tracer | None = None, traced: bool = False) -> float:
        """Runs every op once; returns the pass's wall time."""
        pass_no = len(self.passes)
        recs = []
        t_start = time.perf_counter()
        for i, op in enumerate(self.ops):
            op_id = f"{pass_no}.{i}"
            if tr is not None:
                tr.op = op_id
            before = calibrate.kernel()
            t0 = time.perf_counter()
            outcome = self.execute(op, op_id)
            t1 = time.perf_counter()
            after = calibrate.kernel()
            recs.append((outcome.op_s, t1 - t0, 2.0 * calibrate.REF_S / (before + after)))
            if outcome.failures:
                self.not_ok += 1
                self.wrong += outcome.hard
                self.by_route.update(outcome.failures)
            if outcome.digits is not None:
                self.digits = outcome.digits if self.digits is None else min(self.digits, outcome.digits)
        self.passes.append((traced, recs))
        return time.perf_counter() - t_start

    def traced_pass(self) -> list:
        """One traced pass; its spans, one list per process."""
        if self.cli is None:
            tr = tracer.Tracer()
            tr.install()
            try:
                self.one_pass(tr, traced=True)
            finally:
                tr.uninstall()
            return [tr.take()]
        trace_dir = self.cli.workdir / "cli_trace"
        trace_dir.mkdir(exist_ok=True)
        self.cli.trace_dir = trace_dir
        try:
            self.one_pass(traced=True)
        finally:
            self.cli.trace_dir = None
        spans = []
        for path in sorted(trace_dir.glob("*.json")):
            spans.append([tuple(s) for s in json.loads(path.read_text())])
            path.unlink()
        return spans

    def best(self, traced: bool, field: int) -> list[float]:
        """Per op, the fastest scaled time over the passes of one kind."""
        runs = [recs for t, recs in self.passes if t == traced]
        return [min(recs[i][field] * recs[i][2] for recs in runs) for i in range(len(self.ops))]

    def pass_count(self, traced: bool) -> int:
        return sum(t == traced for t, _ in self.passes)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The value with exactly 10 ops beyond it, and its percentile."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, outdir = (
        argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
    )
    run = Run(workload, seed, outdir)
    stats = tracer.LayerStats() if trace else None
    last_spans = []
    t_begin = time.perf_counter()
    while True:
        took = run.one_pass()
        if trace:
            t0 = time.perf_counter()
            last_spans = run.traced_pass()
            took += time.perf_counter() - t0
            for spans in last_spans:
                stats.add(spans)
        # at least two passes, then as many as fit in the budget
        if run.pass_count(False) >= 2 and time.perf_counter() - t_begin + took > seconds:
            break
    latencies = run.best(False, 0)
    tail_s, tail_pct = tail(latencies)
    who = resource.RUSAGE_CHILDREN if run.cli is not None else resource.RUSAGE_SELF
    result = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "attempted": sum(len(recs) for _, recs in run.passes),
        "not_ok": run.not_ok,
        "wrong": run.wrong,
        "failures": [[route, reason, n] for (route, reason), n in sorted(run.by_route.items())],
        "passes": run.pass_count(False),
        "ops": len(latencies),
        "wall_s": sum(run.best(False, 1)),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "tail_pct": tail_pct,
        "raw_wall_s": statistics.median(
            sum(r[1] for r in recs) for traced, recs in run.passes if not traced
        ),
        "scale": statistics.median(r[2] for _, recs in run.passes for r in recs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "digits": run.digits,
    }
    if trace:
        layer = stats.metrics(run.pass_count(True))
        layer.update(probe_structure())
        layer["trace.overhead_s"] = (sum(run.best(True, 1)) - result["wall_s"], "s")
        result["layer"] = layer
        result["traced_passes"] = run.pass_count(True)
        write_spans(outdir / "spans.csv", last_spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
