"""The benchmark's layer pins, checked in-process on every test run.

The benchmark in ``perfbench/`` traces named layer functions of wcsg and
fails a workload whose expected layer records no span. These tests run each
workload once under its tracer, as ``perfbench/child.py --trace`` does, so a
change that renames, bypasses or starves a traced layer fails here too. They
read ``perfbench`` and do not edit it.
"""

import gc
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from wcsg import cli, holo, reporting  # noqa: E402

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


def test_closed_form_norms_leaves_at_most_3_mb_of_cached_rows():
    # the radial and circle rows that the quadrature caches hold after the
    # workload's configs, with their kept point blocks
    caches = (holo._radial_rows, holo._radial_total, holo._circle_rule)
    for cache in caches:
        cache.cache_clear()
    for cfg in build_configs("closed-form-norms", 1):
        cli.run(cfg)
    rows = [o for o in gc.get_objects() if isinstance(o, holo._Rows)]
    kept = sum(r.s.nbytes + sum(p.nbytes for _, blocks in r._blocks.values() for _, p in blocks)
               for r in rows)
    assert len(rows) == sum(caches[i].cache_info().currsize for i in (0, 2))
    assert kept <= 3e6
