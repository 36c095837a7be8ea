#!/usr/bin/env python3
"""hslaplace benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
The lines before it (starting with ``#``) state how the run went: versions,
op counts, the percentile that ``op_tail_ms`` reports, and failures by route
and reason.  See perfbench/README.md.

This process imports neither numpy nor the package.  The workload runs in a
fresh child (``worker.py``) with single-threaded BLAS; set-up time is taken
from separate fresh interpreters.  Every child is pinned to one CPU, the one
on which the calibration kernel (``calibrate.py``) that scales its times runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("saddle_grid", "oracle_crosscheck", "measure_sweep", "cli_session")
# one warm-up call per workload, made after importing hslaplace and hslaplace.cli
WARMUP = {
    "saddle_grid": "hs.tabulate([0.5, 1.0, 2.0])",
    "oracle_crosscheck": "hs.fn_contour(3, 1.0)",
    "measure_sweep": "hs.laplace_dn(hs.HypersphereSpec(3, 1.0, (1.0, 1.0, 1.0)))",
    "cli_session": "cli.main(['critical', '--out', os.devnull])",
}
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# the whole run must end within 180 s
DEADLINE_S = 170.0


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Fixed malloc thresholds stop glibc from moving them as large arrays are
    # freed; otherwise the peak RSS depends on the order of earlier ops (the
    # same ops gave 130 or 138 MiB).  32 MiB, the largest mmap threshold glibc
    # accepts, and a trim threshold that keeps freed heap are where the
    # default settings end up once arrays of Monte Carlo size have been freed.
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(workload: str, env: dict) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to its warm-up call returning.

    perf_counter is the system monotonic clock, shared by parent and child.
    After the warm-up the child times the calibration kernel, which scales
    its set-up time.  The first spawn is not timed: it writes the bytecode
    caches.  Returns the scaled and the raw median.
    """
    code = (
        "import os, sys, time\n"
        "import hslaplace as hs, hslaplace.cli as cli\n"
        f"{WARMUP[workload]}\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import statistics, calibrate\n"
        "took = statistics.median(calibrate.kernel() for _ in range(5))\n"
        "print(repr(t), repr(calibrate.REF_S / took))\n"
    )
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            t_ready, scale = (float(v) for v in proc.stdout.split()[-2:])
            raw.append(t_ready - t0)
            scaled.append(scale * raw[-1])
    return statistics.median(scaled), statistics.median(raw)


def import_seconds(env: dict) -> dict:
    """Median cumulative import times from -X importtime in fresh interpreters."""
    samples = {"numpy": [], "hslaplace": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hslaplace, hslaplace.cli"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        samples["numpy"].append(cum["numpy"])
        # the package's own share: hslaplace imports numpy inside its own line
        samples["hslaplace"].append(cum["hslaplace"] + cum["hslaplace.cli"] - cum["numpy"])
    return {f"import.{k}_s": (statistics.median(v), "s") for k, v in samples.items()}


def run_worker(args, env: dict, outdir: Path, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(outdir),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(args, res: dict, metrics: dict, nproc: int) -> None:
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": res["python"], "numpy": res["numpy"], "nproc": nproc,
        "passes": res["passes"], "ops": res["ops"], "tail_pct": res["tail_pct"],
        "wrong": res["wrong"], "not_ok": res["not_ok"], "failures": res["failures"],
        "raw_wall_s": res["raw_wall_s"], "raw_setup_s": res.get("raw_setup_s"),
        "scale": res["scale"],
    }
    print(f"# meta {json.dumps(meta)}")
    print(
        f"# {args.workload} seed={args.seed} python={res['python']} numpy={res['numpy']} "
        f"nproc={nproc} passes={res['passes']}"
    )
    fail_frac = res["not_ok"] / res["attempted"]
    print(
        f"# ops attempted={res['attempted']} failed (wrong output)={res['wrong']} "
        f"not ok (refusal, broken err_ln claim or wrong output)={res['not_ok']} "
        f"fail_frac={fail_frac:.4f}"
    )
    print(f"# op_tail_ms is p{res['tail_pct']:.2f} of {res['ops']} ops (10 ops beyond it)")
    print(
        f"# times scaled by calibrate.py, median scale {res['scale']:.4f}; "
        f"unscaled median pass {res['raw_wall_s']:.4f} s"
    )
    for route, reason, count in res["failures"]:
        print(f"#   not ok {route}: {reason}: {count}")
    if args.trace:
        print(f"# traced passes={res['traced_passes']}; spans of the last one in {res['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<58} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not Path("src/hslaplace/__init__.py").is_file():
        print("error: run from the root of an hslaplace checkout (src/hslaplace missing)",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = pinned_env()
    outdir = Path(".bench_out") / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        if args.trace:
            extra, raw_setup = import_seconds(env), None
        else:
            setup, raw_setup = setup_seconds(args.workload, env)
            extra = {"setup_s": (setup, "s")}
        res = run_worker(args, env, outdir, DEADLINE_S - (time.perf_counter() - t_start))
        res["raw_setup_s"] = raw_setup
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir / "plot", ignore_errors=True)
        shutil.rmtree(outdir / "cli_trace", ignore_errors=True)
        for table in outdir.glob("table*.csv"):
            table.unlink()
    if args.trace:
        metrics = dict(res["layer"], **extra)
        res["spans"] = str(outdir / "spans.csv")
    else:
        metrics = dict(extra)
        metrics.update(
            wall_s=(res["wall_s"], "s"),
            op_p50_ms=(res["op_p50_ms"], "ms"),
            op_tail_ms=(res["op_tail_ms"], "ms"),
            peak_rss_mb=(res["peak_rss_mb"], "MiB"),
            ok_frac=(1.0 - res["not_ok"] / res["attempted"], "ratio"),
            accuracy_digits=(res["digits"] if res["digits"] is not None else 0.0, "digits"),
        )
    report(args, res, metrics, nproc)
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        # an op fails when its output is wrong; refusals and broken err_ln
        # claims of the package are measured by ok_frac
        "failed": res["wrong"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
