"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]

Imports wcsg from the checkout's ``src``, builds the workload's configs, runs
each through ``wcsg.cli.run`` and serialises its report as the CLI does, then
prints one JSON line: the monotonic time at which set-up ended, the wall time
from the first suite call to the last report, peak RSS, verdict counts, the
accuracy headroom and a digest of every report. With ``--trace`` the layer
functions are wrapped first and the line also carries the per-layer stats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

# log10(tol / err) reported for an error of exactly zero, and the most any
# case may report: double precision resolves about 16 decimal digits.
HEADROOM_CAP = 16.0


def _headroom(err, tol) -> float:
    if not isinstance(err, (int, float)) or math.isnan(err):
        return -HEADROOM_CAP  # "nan"/"inf" strings from the report
    err = abs(err)
    if err == 0.0:
        return HEADROOM_CAP
    return min(math.log10(tol / err), HEADROOM_CAP)


def _norm_kind(label: str):
    if label.startswith("H^"):
        return "hardy"
    if label.startswith("A^"):
        return "bergman"
    if label == "Dirichlet":
        return "dirichlet"
    return None  # sup-type norms have no closed form to compare with


def error_tolerance_pairs(report: dict):
    """(error, tolerance) for every case that reports one, from a parsed report."""
    cfg, suite = report["config"], report["meta"]["suite"]
    for case in report["cases"]:
        nums = case["numbers"]
        if not nums:
            continue  # an "error" verdict; counted as a failure instead
        if suite == "norm-table":
            if case["id"].startswith("saks/"):
                yield nums["gap"], cfg["saks"]["gap_tol"]
            else:
                kind = _norm_kind(case["inputs"]["space"])
                if kind is not None:
                    yield nums["error"], cfg["tolerances"][kind]
        elif suite == "semigroup-check":
            for key in ("semiflow_residual", "cocycle_residual", "semigroup_residual"):
                yield nums[key], nums["tol"]
        elif suite == "cocycle-check":
            yield nums["law_residual"], cfg["tolerances"]["law"]
        elif suite == "generator-check":
            yield nums["residual"], cfg["tolerances"]["residual"]
        elif suite == "reconstruct":
            yield nums["max_deviation"], cfg["tolerances"]["deviation"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    import wcsg
    from wcsg import cli, reporting
    from perfbench.workloads import build_configs

    if pathlib.Path(wcsg.__file__).resolve().parent != ROOT / "src" / "wcsg":
        print(f"wcsg imported from {wcsg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    configs = build_configs(args.workload, args.seed)
    setup_end = time.monotonic()
    out = {"setup_end": setup_end, "numpy": numpy.__version__,
           "python": sys.version.split()[0]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, hand_count_problems

        out["hand_count_problems"] = hand_count_problems()
        tracer = Tracer()
        out["rebound_sites"] = tracer.install()

    digests, failed, cases, headroom = [], [], 0, HEADROOM_CAP
    start = time.perf_counter()
    for cfg in configs:
        suite = cfg["suite"]
        if tracer is None:
            report = cli.run(cfg)
            text = reporting.report_to_json(report)
        else:
            report = tracer.timed(f"suites.{suite}", cli.run, cfg)
            text = tracer.timed("reporting.emit", reporting.report_to_json, report)
            tracer.stats["reporting.emit.bytes"] += len(text.encode())
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        cases += len(report.cases)
        failed += [c.id for c in report.cases if not c.passed]
        for err, tol in error_tolerance_pairs(json.loads(text)):
            headroom = min(headroom, _headroom(err, tol))
    wall = time.perf_counter() - start

    out.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cases=cases,
        failed=failed,
        headroom_decades=headroom,
        digests=digests,
    )
    if tracer is not None:
        out["stats"] = dict(tracer.stats)
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
