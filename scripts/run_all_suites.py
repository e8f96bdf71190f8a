#!/usr/bin/env python3
"""Run every suite with its built-in config and write reports to a directory.

    python3 scripts/run_all_suites.py --out-dir reports/

Writes <suite>.json per suite, every case's per-t rows included, plus a
summary line per suite on stdout. Exit code 0 iff every verdict in every
suite passed, and 2 if a report cannot be written. Running this twice into
two directories must produce byte-identical JSON (the determinism contract).
"""

import argparse
import copy
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from wcsg.cli import run
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.reporting import emit_json
from wcsg.suites import SUITES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--suites", nargs="*", default=list(SUITES), choices=list(SUITES))
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    all_pass = True
    t0 = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        for suite in args.suites:
            report = run(copy.deepcopy(DEFAULT_CONFIGS[suite]))
            emit_json(report, str(out / f"{suite}.json"))
            s = report.summary
            all_pass = all_pass and s["all_pass"]
            print(
                f"{suite:18s} {s['n_pass']:3d}/{s['n_cases']:<3d} pass"
                f"  ({report.wall_clock:6.2f}s)"
            )
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    print(f"total wall-clock: {time.perf_counter() - t0:.2f}s")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
