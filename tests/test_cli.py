"""CLI surface: exit codes, config validation, JSON/CSV emission, determinism."""

import copy
import csv
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import pytest

from wcsg import cli
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import ConfigError
from wcsg.reporting import Case, Report, emit_csv, report_to_dict, report_to_json
from wcsg.suites import SUITES, build_space

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_passing_suite_returns_zero(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["admissibility", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "config", "cases", "summary"}
        assert doc["summary"]["all_pass"] is True

    def test_failing_verdict_returns_one(self, tmp_path):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["reconstruct"])
        cfg["tolerances"] = {"deviation": 1e-30, "generator_fd": 1e-30}
        code = cli.main(["reconstruct", "--config", write_config(tmp_path, cfg)])
        assert code == 1

    def test_unknown_key_returns_two(self, tmp_path):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["admissibility"])
        cfg["surprise"] = 1
        code = cli.main(["admissibility", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    def test_missing_config_file_returns_two(self):
        assert cli.main(["admissibility", "--config", "/nonexistent/x.json"]) == 2

    def test_suite_mismatch_returns_two(self, tmp_path):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["admissibility"])
        code = cli.main(["reconstruct", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    def test_bad_case_embedded_not_fatal(self, tmp_path):
        # one broken case (integral cocycle with a bad expression is a config
        # error; use a flow the coboundary rejects instead) is recorded, the
        # other cases still run
        cfg = {
            "suite": "cocycle-check",
            "flow": {"name": "attracting"},
            "cocycles": [
                {"type": "coboundary", "omega": "z", "zeros": [{"re": 0.0, "im": 0.0, "order": 1}]},
                {"type": "trivial"},
            ],
        }
        out = tmp_path / "r.json"
        code = cli.main(["cocycle-check", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        verdicts = [c["verdict"] for c in doc["cases"]]
        assert "error" in verdicts and True in verdicts


_HARDY2 = {"kind": "hardy", "p": 2.0}
_DILATION = {"name": "dilation", "params": {"c": 1.0}}

# Each config breaks one input check; per case the expected verdict, "error"
# for the cases the bad input reaches.
_BAD_INPUTS = {
    "generator-check-steps": (
        {
            "suite": "generator-check",
            "steps": [2.5e-3, 5e-3, 1e-2],
            "cases": [
                {"label": "a", "space": _HARDY2, "flow": _DILATION, "f": "z^2"},
                {"label": "b", "space": _HARDY2, "flow": {"name": "attracting"}, "f": "z"},
            ],
        },
        {"generator/a": "error", "generator/b": "error"},
    ),
    "norm-table-saks-radii": (
        {
            "suite": "norm-table",
            "spaces": [_HARDY2],
            "max_degree": 1,
            "saks": {"spaces": [_HARDY2], "radii": [0.9, 0.5]},
        },
        {"norm/H^2/e_0": True, "norm/H^2/e_1": True,
         **{f"saks/H^2/{f}": "error" for f in ("one", "e_1", "e_2", "poly[1.0, 1.0]", "exp(0.5z)")}},
    ),
    "continuity-probe-ts": (
        {
            "suite": "continuity-probe",
            "cases": [
                {"label": "increasing", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": [0.001, 0.01, 0.1]},
                {"label": "no-ts", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": []},
                {"label": "radius-one", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "radii": [0.5, 1.0]},
                {"label": "bad-monomial", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_x"},
                {"label": "decreasing", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": [0.1, 0.01, 0.001], "tolerances": {"co": 1e-2, "norm": 1e-2}},
            ],
        },
        {"continuity/increasing": "error", "continuity/no-ts": "error",
         "continuity/radius-one": "error", "continuity/bad-monomial": "error",
         "continuity/decreasing": True},
    ),
    "bound-table-negative-t": (
        {"suite": "bound-table", "ts": [-0.5], "cases": [{"label": "a", "space": _HARDY2,
                                                          "flow": _DILATION}]},
        {"bound/a": "error"},
    ),
}


_RECONSTRUCT = {"label": "a", "generator": "-z", "reference": _DILATION}

# Each config has a top-level value that no case can run with; per config the
# field path the error must name.
_BAD_CONFIGS = {
    "norm-table-max-degree-string": (
        {"suite": "norm-table", "spaces": [{"kind": "hardy"}], "max_degree": "two"},
        "config.max_degree",
    ),
    "bound-table-ts-string": (
        {"suite": "bound-table", "ts": ["x"], "cases": []},
        "config.ts[0]",
    ),
    "reconstruct-grid-n-zero": (
        {"suite": "reconstruct", "sweep": {"grid_n": 0}, "cases": [_RECONSTRUCT]},
        "sweep.grid_n",
    ),
    "reconstruct-grid-rmax-zero": (
        {"suite": "reconstruct", "sweep": {"grid_rmax": 0.0}, "cases": [_RECONSTRUCT]},
        "sweep.grid_rmax",
    ),
    "semigroup-check-grid-n-negative": (
        {"suite": "semigroup-check", "sweep": {"grid_n": -3},
         "pairs": [{"flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        "sweep.grid_n",
    ),
}


def run_cli(tmp_path, cfg, *extra):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "wcsg.cli", cfg["suite"], "--config",
         write_config(tmp_path, cfg), *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestErrorContract:
    @pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
    def test_bad_input_is_an_error_case_not_a_traceback(self, tmp_path, name):
        cfg, expected = _BAD_INPUTS[name]
        out = tmp_path / "r.json"
        proc = run_cli(tmp_path, cfg, "--out", str(out))
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        doc = json.loads(out.read_text())
        assert {c["id"]: c["verdict"] for c in doc["cases"]} == expected

    @pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
    def test_bad_config_value_is_a_config_error(self, tmp_path, name):
        cfg, field = _BAD_CONFIGS[name]
        proc = run_cli(tmp_path, cfg)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2
        assert f"config error: {field}:" in proc.stderr


class TestConfigValidation:
    def test_unknown_nested_key_path(self):
        with pytest.raises(ConfigError) as exc:
            build_space({"kind": "hardy", "pp": 2}, "space")
        assert "space.pp" in str(exc.value)

    def test_all_suites_have_defaults(self):
        assert set(DEFAULT_CONFIGS) == set(SUITES)

    def test_packaged_config_names_its_suite(self):
        configs = resources.files("wcsg") / "configs"
        names = sorted(e.name for e in configs.iterdir() if e.name.endswith(".json"))
        assert names == [f"{suite}.json" for suite in sorted(SUITES)]
        for name in names:
            assert json.loads((configs / name).read_text())["suite"] == name[: -len(".json")]

    def test_tol_override_applies(self, tmp_path):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["reconstruct"])
        out = tmp_path / "r.json"
        code = cli.main(
            ["reconstruct", "--config", write_config(tmp_path, cfg), "--tol", "1e-30",
             "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["config"]["tolerances"]["deviation"] == 1e-30


class TestEmission:
    def test_json_round_trip(self):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS["admissibility"]))
        doc = report_to_dict(report)
        assert json.loads(report_to_json(report)) == doc

    def test_csv_one_row_per_t(self, tmp_path):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["continuity-probe"])
        cfg["cases"] = [cfg["cases"][1]]  # three sampled times
        report = cli.run(cfg)
        path = tmp_path / "r.csv"
        emit_csv(report, str(path))
        rows = list(csv.reader(path.open()))
        assert len(rows) == 1 + 3  # header + one row per t
        assert rows[0][0] == "case_id"

    def test_empty_report_header_only(self, tmp_path):
        report = Report(suite="norm-table", config={}, cases=[])
        path = tmp_path / "empty.csv"
        emit_csv(report, str(path))
        rows = list(csv.reader(path.open()))
        assert rows == [["case_id"]]

    def test_timing_excluded_by_default(self):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS["admissibility"]))
        assert "wall_clock_s" not in report_to_dict(report)["meta"]
        assert "wall_clock_s" in report_to_dict(report, include_timing=True)["meta"]


class TestDeterminism:
    @pytest.mark.parametrize("suite", ["admissibility", "cocycle-check", "reconstruct"])
    def test_byte_identical_reports(self, suite):
        a = cli.run(copy.deepcopy(DEFAULT_CONFIGS[suite]))
        b = cli.run(copy.deepcopy(DEFAULT_CONFIGS[suite]))
        assert report_to_json(a) == report_to_json(b)
