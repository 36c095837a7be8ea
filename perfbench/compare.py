#!/usr/bin/env python3
"""Run the benchmark over many seeds and compare result sets.

A result set is a directory of files ``<workload>-<seed>.txt``, each the
standard output of one ``perfbench/run.py`` run.

  compare.py run DIR [--workloads W,..] [--seeds 1-10] [--seconds S]
      run the benchmark of the current checkout once per workload and seed
  compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT OUT [--workloads ..] [--seeds ..]
      alternate the two checkouts seed by seed, each side first on every
      other seed; results go to OUT/parent and OUT/change
  compare.py spread DIR
      per workload and end-to-end metric: median, quartiles and their
      distance as a share of the median, against a third of the bound
  compare.py diff PARENT_DIR CHANGE_DIR
      one row per workload and end-to-end metric with both sides' median and
      quartiles, the seed-matched pairs the change wins and a verdict

Verdicts (see README.md): ``improved`` when
the change wins at least 9/10 of the seed-matched pairs (ties count for
neither) and the medians differ by more than the parent's quartile
distance; ``unresolved`` when the parent's quartile distance exceeds the
bound and not every change run beats every parent run; ``worse`` when the
change median is worse than the parent's by more than the bound; otherwise
``no worse within bound``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(checkout: Path, workload: str, seed: int, seconds: int, dest: Path) -> None:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    dest.write_text(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr}")
    print(f"{dest}: {proc.stdout.splitlines()[-1]}", flush=True)


def load(directory: Path) -> dict:
    """(workload, seed) -> {'meta': ..., 'result': ...}"""
    runs = {}
    for path in sorted(directory.glob("*.txt")):
        lines = path.read_text().splitlines()
        meta = next(json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta "))
        runs[(meta["workload"], meta["seed"])] = {"meta": meta, "result": json.loads(lines[-1])}
    return runs


def values(runs: dict, workload: str, metric: str) -> dict:
    return {
        seed: r["result"]["metrics"][metric]["value"]
        for (w, seed), r in runs.items() if w == workload
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel_spread(xs: list[float]) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def cmd_spread(args) -> int:
    runs = load(Path(args.dir))
    print(f"{'workload':<18} {'metric':<16} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound/3':>7}")
    bad = 0
    for workload in sorted({w for w, _ in runs}):
        for name, m in METRICS.items():
            xs = list(values(runs, workload, name).values())
            q1, q2, q3 = quartiles(xs)
            s = rel_spread(xs)
            flag = "" if s < m["bound"] / 3 or name == "setup_s" else "  <-- too wide"
            bad += bool(flag)
            print(f"{workload:<18} {name:<16} {len(xs):>3} {q1:>11.5g} {q2:>11.5g} {q3:>11.5g} "
                  f"{s:>7.4f} {m['bound'] / 3:>7.4f}{flag}")
    return 1 if bad else 0


def verdict(parent: dict, change: dict, m: dict) -> tuple[str, int, int]:
    """The verdict, pairs the change wins and seed-matched pairs."""
    lower = m["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(better(c, p) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    p_med, c_med = statistics.median(parent.values()), statistics.median(change.values())
    p_q1, _, p_q3 = quartiles(list(parent.values()))
    if win_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    all_better = all(better(c, p) for c in change.values() for p in parent.values())
    if rel_spread(list(parent.values())) > m["bound"] and not all_better:
        return "unresolved", wins, len(pairs)
    worse_by = (c_med - p_med) / abs(p_med) if lower else (p_med - c_med) / abs(p_med)
    if worse_by > m["bound"]:
        return "worse", wins, len(pairs)
    return "no worse within bound", wins, len(pairs)


def cmd_diff(args) -> int:
    parent, change = load(Path(args.parent)), load(Path(args.change))
    print(f"{'workload':<18} {'metric':<16} {'parent q1/med/q3':>34} {'change q1/med/q3':>34} "
          f"{'wins':>7}  verdict")
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        for name, m in METRICS.items():
            p, c = values(parent, workload, name), values(change, workload, name)
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            v, wins, n_pairs = verdict(p, c, m)
            print(f"{workload:<18} {name:<16} "
                  f"{'/'.join(f'{x:.5g}' for x in pq):>34} {'/'.join(f'{x:.5g}' for x in cq):>34} "
                  f"{f'{wins}/{n_pairs}':>7}  {v}")
    return 0


def cmd_run(args) -> int:
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds(args.seeds):
        for workload in args.workloads.split(","):
            run_one(Path.cwd(), workload, seed, args.seconds, out / f"{workload}-{seed}.txt")
    return 0


def cmd_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side in sides:
        (Path(args.out) / side).mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in args.workloads.split(","):
            for side in order:
                dest = Path(args.out) / side / f"{workload}-{seed}.txt"
                run_one(sides[side], workload, seed, args.seconds, dest.resolve())
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    all_workloads = ",".join(w["name"] for w in SPEC["workloads"])
    for name in ("run", "pairs"):
        p = sub.add_parser(name)
        if name == "run":
            p.add_argument("dir")
        else:
            p.add_argument("parent")
            p.add_argument("change")
            p.add_argument("out")
        p.add_argument("--workloads", default=all_workloads)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        p.set_defaults(func=cmd_run if name == "run" else cmd_pairs)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_diff)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
