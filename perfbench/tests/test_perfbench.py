"""Checks of the benchmark itself: tracer bindings, workloads, output contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import wcsg.cli  # noqa: E402,F401
from wcsg import cli, reporting  # noqa: E402

from perfbench import child  # noqa: E402
from perfbench.run import END_TO_END_METRICS  # noqa: E402
from perfbench.tracer import PER_LAYER_METRICS, Tracer, hand_count_problems  # noqa: E402
from perfbench.workloads import EXPECTED_LAYERS, SUITE_ORDER, WORKLOADS, build_configs  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def test_hand_countable_case_gives_exact_counts():
    assert hand_count_problems() == []


def test_install_rebinds_every_import_site_and_uninstall_restores_them():
    import wcsg.semigroup
    import wcsg.spaces
    import wcsg.suites

    originals = {
        "spaces.disc_integral": wcsg.spaces.disc_integral,
        "spaces.circle_mean_p": wcsg.spaces.circle_mean_p,
        "semigroup.norm": wcsg.semigroup.norm,
        "semigroup.co_seminorm": wcsg.semigroup.co_seminorm,
        "semigroup.certified_sup": wcsg.semigroup.certified_sup,
        "suites.semiflow_from_generator": wcsg.suites.semiflow_from_generator,
    }
    tracer = Tracer()
    assert tracer.install() > len(originals)
    try:
        modules = [m for name, m in sys.modules.items()
                   if name == "wcsg" or name.startswith("wcsg.")]
        originals_left = [
            (mod.__name__, key) for mod in modules for key, value in vars(mod).items()
            if any(value is orig for orig in originals.values())
        ]
        assert originals_left == []
    finally:
        tracer.uninstall()
    assert wcsg.spaces.disc_integral is originals["spaces.disc_integral"]
    assert wcsg.semigroup.norm is originals["semigroup.norm"]


def _small_configs():
    return [
        {"suite": "norm-table", "max_degree": 2,
         "spaces": [{"kind": "hardy", "p": 2.0}, {"kind": "bergman", "alpha": 0.5, "p": 3.0},
                    {"kind": "dirichlet", "policy": {"n_theta": 64, "n_radial": 32, "tol": 1e-6}}]},
        {"suite": "reconstruct", "cases": [{"label": "dilation", "generator": "-z",
                                            "reference": {"name": "dilation"}}],
         "sweep": {"ts": [0.5], "grid_n": 1}},
    ]


def test_tracing_leaves_reports_byte_identical_and_counts_nested_layers():
    plain = [reporting.report_to_json(cli.run(cfg)) for cfg in _small_configs()]
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        traced = [reporting.report_to_json(cli.run(cfg)) for cfg in _small_configs()]
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    assert traced == plain
    stats = tracer.stats
    assert stats["holo.cauchy_derivative_grid.calls"] > 0  # Dirichlet integrand
    assert stats["holo.cauchy_derivative_grid.ring_evals"] == (
        64 * stats["holo.cauchy_derivative_grid.points"])
    assert stats["holo.disc_integral.integrand_points"] > 0
    assert stats["flows.ode_eval.points"] > 0
    # Cauchy circles run inside the Dirichlet disc integrals, so nested spans
    # must not be counted twice: self times add up to at most the wall time.
    assert sum(v for k, v in stats.items() if k.endswith(".self_s")) <= wall


def test_headroom_pairs_and_zero_error_cap():
    report = json.loads(reporting.report_to_json(cli.run(_small_configs()[0])))
    pairs = list(child.error_tolerance_pairs(report))
    assert len(pairs) == 9  # three norm-table spaces, degrees 0..2
    assert child._headroom(0.0, 1e-8) == child.HEADROOM_CAP
    assert child._headroom(1e-10, 1e-8) == 2.0
    assert child._headroom("nan", 1e-8) < 0


def test_configs_follow_the_seed_and_only_the_seed():
    for name in WORKLOADS:
        assert build_configs(name, 3) == build_configs(name, 3)
    assert build_configs("closed-form-norms", 3) != build_configs("closed-form-norms", 4)
    assert build_configs("ode-flows", 3) != build_configs("ode-flows", 4)
    assert [c["suite"] for c in build_configs("suite-defaults", 3)] == SUITE_ORDER


def test_expected_layers_are_traced_layers():
    layers = {name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER_METRICS}
    for workload, expected in EXPECTED_LAYERS.items():
        assert workload in WORKLOADS
        assert set(expected) <= layers


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END_METRICS
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [
        list(m) for m in PER_LAYER_METRICS]


def test_traced_run_passes_its_own_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "closed-form-norms", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["metrics"]["holo.cauchy_derivative_grid.calls"]["value"] == 0


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode-flows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
