"""The benchmark's layer pins, checked in-process on every test run.

The benchmark in ``perfbench/`` traces named layer functions of wcsg and
fails a workload whose expected layer records no span. These tests run each
workload once under its tracer, as ``perfbench/child.py --trace`` does, so a
change that renames, bypasses or starves a traced layer fails here too. They
read ``perfbench`` and do not edit it.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from wcsg import cli, reporting  # noqa: E402

from perfbench.tracer import Tracer, hand_count_problems  # noqa: E402
from perfbench.workloads import EXPECTED_LAYERS, build_configs  # noqa: E402


def test_hand_countable_case_gives_exact_counts():
    assert hand_count_problems() == []


@pytest.mark.parametrize("workload", sorted(EXPECTED_LAYERS))
def test_every_expected_layer_records_a_span(workload):
    tracer = Tracer()
    tracer.install()
    try:
        for cfg in build_configs(workload, 1):
            report = tracer.timed(f"suites.{cfg['suite']}", cli.run, cfg)
            tracer.timed("reporting.emit", reporting.report_to_json, report)
    finally:
        tracer.uninstall()
    starved = [layer for layer in EXPECTED_LAYERS[workload]
               if not tracer.stats.get(f"{layer}.calls", 0)]
    assert starved == []
