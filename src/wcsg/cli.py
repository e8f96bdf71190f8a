"""Command-line entry point.

    wcsg <suite> [--config FILE] [--out report.json] [--timings]

Exit codes: 0 all verdicts pass, 1 some verdict fails, 2 config/IO error.
Reports are deterministic: identical configs on the same build produce
byte-identical JSON (timing is excluded unless --timings is given).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time

from .defaults import DEFAULT_CONFIGS
from .errors import ConfigError, WcsgError
from .reporting import Report, emit_json
from .suites import SUITES


def run(config: dict) -> Report:
    """Dispatch a validated config to its suite and assemble the report. A
    config that selects no case is a config error: it would pass vacuously."""
    suite = config.get("suite")
    if not isinstance(suite, str) or suite not in SUITES:
        raise ConfigError("suite", f"unknown suite {suite!r}")
    start = time.perf_counter()
    cases = SUITES[suite](config)
    if not cases:
        raise ConfigError("config", "selects no case")
    return Report(
        suite=suite,
        config=config,
        cases=cases,
        wall_clock=time.perf_counter() - start,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wcsg",
        description="Diagnostics for weighted composition semigroups on function spaces.",
    )
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("--config", help="JSON config file (built-in default otherwise)")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "--timings", action="store_true", help="include wall-clock in the JSON report"
    )
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        else:
            config = copy.deepcopy(DEFAULT_CONFIGS[args.suite])
        if not isinstance(config, dict):
            raise ConfigError("config", f"expected an object, got {type(config).__name__}")
        config.setdefault("suite", args.suite)
        if config["suite"] != args.suite:
            raise ConfigError("suite", f"config is for {config['suite']!r}, not {args.suite!r}")
        report = run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    except WcsgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for case in report.cases:
        mark = "PASS" if case.passed else "FAIL"
        extra = f"  ({case.error})" if case.error else ""
        print(f"[{mark}] {case.id}{extra}")
    s = report.summary
    print(
        f"{report.suite}: {s['n_pass']}/{s['n_cases']} cases pass"
        f"  (wall {report.wall_clock:.2f}s)",
        file=sys.stderr,
    )

    try:
        if args.out:
            emit_json(report, args.out, include_timing=args.timings)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    return 0 if s["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
