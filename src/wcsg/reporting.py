"""Deterministic report assembly and JSON emission.

Reports echo the configuration that produced them plus every default that
applied, so a report is self-describing. The canonical JSON is byte-stable
across runs of the same build: keys are sorted, floats use shortest repr,
and the wall-clock (kept on the in-memory report and printed to stderr) is
excluded unless explicitly requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ARTIFACT_VERSION = "0.2.0"
CORPUS_VERSION = "1"


@dataclass
class Case:
    """One diagnostic case: inputs, numeric outcomes, a verdict."""

    id: str
    inputs: dict
    numbers: dict
    verdict: bool | str
    error: str | None = None
    rows: list = field(default_factory=list)  # per-t records; in the JSON when non-empty

    @property
    def passed(self) -> bool:
        return self.verdict is True


@dataclass
class Report:
    suite: str
    config: dict
    cases: list
    wall_clock: float = 0.0

    @property
    def summary(self) -> dict:
        n_pass = sum(1 for c in self.cases if c.passed)
        return {
            "n_cases": len(self.cases),
            "n_pass": n_pass,
            "n_fail": len(self.cases) - n_pass,
            "all_pass": n_pass == len(self.cases),
        }


def sanitize(value):
    """Make a value JSON-serializable, deterministically."""
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (np.complexfloating, complex)):
        c = complex(value)
        return {"re": float(c.real), "im": float(c.imag)}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)  # "inf"/"nan" are not valid JSON numbers
    return value


def report_to_dict(report: Report, include_timing: bool = False) -> dict:
    out = {
        "meta": {
            "artifact_version": ARTIFACT_VERSION,
            "corpus_version": CORPUS_VERSION,
            "suite": report.suite,
        },
        "config": sanitize(report.config),
        "cases": [
            {
                "id": c.id,
                "inputs": sanitize(c.inputs),
                "numbers": sanitize(c.numbers),
                "verdict": c.verdict,
                **({"error": c.error} if c.error else {}),
                **({"rows": sanitize(c.rows)} if c.rows else {}),
            }
            for c in report.cases
        ],
        "summary": report.summary,
    }
    if include_timing:
        out["meta"]["wall_clock_s"] = round(report.wall_clock, 3)
    return out


def report_to_json(report: Report, include_timing: bool = False) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2, sort_keys=True) + "\n"


def emit_json(report: Report, path: str, include_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(report_to_json(report, include_timing))
