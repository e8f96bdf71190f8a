"""wcsg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; wcsg is imported from its ``src``. Every
repetition is a fresh interpreter (perfbench/child.py), so lazy caches are
paid as a CLI user pays them, with BLAS/OpenMP pinned to one thread.

--trace 0  repeats the workload until S seconds have passed (at least once)
           and prints the end-to-end metrics: medians of wall_s, setup_s and
           peak_rss_mb over the repetitions, pass_ratio and headroom_decades.
--trace 1  runs the workload once untraced and once traced, and prints the
           per-layer metrics of the traced run plus the tracing overhead.

Output checks: every verdict passes, every repetition's reports are
byte-identical to the first one's, the traced reports are byte-identical to
the untraced ones, a hand-countable case gives exact traced counts, and every
layer the workload is meant to reach records a span. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import PER_LAYER_METRICS  # noqa: E402
from perfbench.workloads import EXPECTED_LAYERS, WORKLOADS  # noqa: E402

END_TO_END_METRICS = ["wall_s", "setup_s", "peak_rss_mb", "pass_ratio", "headroom_decades"]

# Interpreter starts timed for setup_s besides the repetitions themselves.
SETUP_PROBES = 5
# No repetition starts once this much of the 180 s run limit is used up.
RUN_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 170.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(workload: str, seed: int, *flags: str) -> dict:
    """Run child.py once; its result with ``setup_s`` measured from the spawn."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{' '.join(flags) or 'run'} timed out after {e.timeout:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_end"] - spawned
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: float):
    problems = []
    setups = [_child(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(_child(workload, seed))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if elapsed >= seconds or elapsed + per_rep > RUN_BUDGET_S:
            break
    first = reps[0]
    for i, rep in enumerate(reps[1:], 2):
        if rep["digests"] != first["digests"]:
            problems.append(f"repetition {i} reports differ from repetition 1")
    attempted = sum(r["cases"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    if failed:
        problems.append(f"failing cases: {sorted(set(first['failed']))}")
    metrics = {
        "wall_s": _metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": _metric(statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
        "headroom_decades": _metric(first["headroom_decades"], "decades"),
    }
    info = {"repetition_wall_s": [round(r["wall_s"], 4) for r in reps],
            "cases_per_repetition": first["cases"],
            "fail_ratio": failed / attempted, "numpy": first["numpy"],
            "python": first["python"]}
    return problems, attempted, failed, metrics, info


def run_traced(workload: str, seed: int):
    problems = []
    plain = _child(workload, seed)
    traced = _child(workload, seed, "--trace")
    if traced["digests"] != plain["digests"]:
        problems.append("traced reports differ from untraced reports")
    problems += [f"hand count: {p}" for p in traced["hand_count_problems"]]
    for layer in EXPECTED_LAYERS[workload]:
        calls = traced["stats"].get(f"{layer}.calls", 0)
        if not calls:
            problems.append(f"layer {layer} recorded no span")
    failed = len(traced["failed"]) + len(plain["failed"])
    if failed:
        problems.append(f"failing cases: {sorted(set(traced['failed'] + plain['failed']))}")
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
    metrics["trace.overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
    info = {"untraced_wall_s": plain["wall_s"], "rebound_sites": traced["rebound_sites"],
            "numpy": traced["numpy"], "python": traced["python"]}
    return problems, plain["cases"] + traced["cases"], failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wcsg" / "__init__.py").is_file():
        print(f"no wcsg sources under {ROOT / 'src'}: run from a wcsg checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            problems, attempted, failed, metrics, info = run_traced(args.workload, args.seed)
            expected = [name for name, _, _ in PER_LAYER_METRICS]
        else:
            problems, attempted, failed, metrics, info = run_untraced(
                args.workload, args.seed, args.seconds)
            expected = END_TO_END_METRICS
    except ChildFailed as e:
        print(f"benchmark child failed: {e}", file=sys.stderr)
        return 1
    if sorted(metrics) != sorted(expected):
        problems.append("metric set differs from BENCHMARK.json")

    info.update(workload=args.workload, seed=args.seed, nproc=os.cpu_count())
    print("env " + json.dumps(info, sort_keys=True))
    for name in expected:
        m = metrics[name]
        print(f"{name:45s} {m['value']!r:>24} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':45s} {info['fail_ratio']!r:>24} ratio  (1 - pass_ratio)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: metrics[name] for name in expected}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
