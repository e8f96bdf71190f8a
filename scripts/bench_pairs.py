#!/usr/bin/env python3
"""Compare two wcsg checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json
        [--workloads W ...] [--pairs 10] [--seed 29] [--seconds 4] [--trace-runs 1]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one after the other; the side that goes first
alternates from pair to pair, so a drift of the host's load falls on both
sides alike. For every end-to-end metric of BENCHMARK.json the output holds
the per-pair values of both sides, their medians and quartiles (``[median,
q1, q3]``, inclusive method) and the number of pairs in which the change was
strictly better, in the layout of BENCH_26.json's ``alternating_pairs``.
With ``--trace-runs N`` each side also runs ``--trace 1`` N times per workload,
and every per-layer metric lands under ``trace1`` as ``[parent, change]``
lists. A summary line per workload goes to stdout. Exit code 1 if a run fails
or reports ``correct: false``, 2 if a checkout holds no perfbench/run.py.

Compare two clean exports (``git archive``): where PYTHONDONTWRITEBYTECODE
is set, a checkout that still holds ``__pycache__`` from a test run skips
compiling its sources, and starts faster and peaks lower than one that does
not (1.4 MB lower ``peak_rss_mb`` on ``ode-flows``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_bench(checkout: pathlib.Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The last stdout line of one perfbench/run.py in ``checkout``, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def median_q1_q3(values) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(statistics.median(values), 4), round(q1, 4), round(q3, 4)]


def alternating_pairs(dirs: dict, workload: str, args, better: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_bench(dirs[side], workload, args.seed, args.seconds, 0))
    out = {"pairs": args.pairs,
           "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
           "failed": sum(r["failed"] for side in SIDES for r in runs[side])}
    for name, direction in better.items():
        vals = {side: [round(r["metrics"][name]["value"], 4) for r in runs[side]]
                for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            **vals,
            **{f"{side}_median_q1_q3": median_q1_q3(vals[side]) for side in SIDES},
            "change_better_in_pairs": sum(sign * (c - p) < 0.0
                                          for p, c in zip(vals["parent"], vals["change"])),
        }
    return out


def traced(dirs: dict, workload: str, args) -> dict:
    runs = {side: [run_bench(dirs[side], workload, args.seed, args.seconds, 1)
                   for _ in range(args.trace_runs)] for side in SIDES}
    names = sorted(runs["parent"][0]["metrics"])
    return {"correct": [r["correct"] for side in SIDES for r in runs[side]],
            **{name: [[round(r["metrics"][name]["value"], 4) for r in runs[side]]
                      for side in SIDES] for name in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in dirs.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"{side} checkout {path} holds no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    doc = {"alternating_pairs": {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds "
                   f"{args.seconds:g} --trace 0, parent and change alternately, the first "
                   f"side alternating from pair to pair"}}
    if args.trace_runs:
        doc["trace1"] = {"command": f"python3 perfbench/run.py --workload W --seed {args.seed}"
                                    f" --seconds {args.seconds:g} --trace 1, {args.trace_runs} "
                                    f"run(s) per side; [parent runs, change runs]"}
    ok = True
    try:
        for w in workloads:
            res = doc["alternating_pairs"][w] = alternating_pairs(dirs, w, args, better)
            ok = ok and res["all_correct"]
            p, c = res["wall_s"]["parent_median_q1_q3"], res["wall_s"]["change_median_q1_q3"]
            print(f"{w:18s} wall_s median {p[0]:.4f} -> {c[0]:.4f} s "
                  f"({100.0 * (c[0] / p[0] - 1.0):+.1f}%), change better in "
                  f"{res['wall_s']['change_better_in_pairs']}/{args.pairs} pairs, parent "
                  f"IQR {p[2] - p[1]:.4f} s")
            if args.trace_runs:
                res = doc["trace1"][w] = traced(dirs, w, args)
                ok = ok and all(res["correct"])
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
