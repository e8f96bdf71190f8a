"""CLI surface: exit codes, config validation, JSON/CSV emission, determinism."""

import copy
import csv
import functools
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from wcsg import cli
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import ConfigError, WcsgError
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

    def test_config_not_an_object_returns_two(self, tmp_path):
        assert cli.main(["admissibility", "--config", write_config(tmp_path, [1])]) == 2

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
_ATTRACTING = {"name": "attracting"}

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
                {"label": "no-radii", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "radii": []},
                {"label": "radius-one", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "radii": [0.5, 1.0]},
                {"label": "bad-monomial", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_x"},
                {"label": "decreasing", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": [0.1, 0.01, 0.001], "tolerances": {"co": 1e-2, "norm": 1e-2}},
            ],
        },
        {"continuity/increasing": "error", "continuity/no-ts": "error",
         "continuity/no-radii": "error",
         "continuity/radius-one": "error", "continuity/bad-monomial": "error",
         "continuity/decreasing": True},
    ),
    "bound-table-negative-t": (
        {"suite": "bound-table", "ts": [-0.5], "cases": [{"label": "a", "space": _HARDY2,
                                                          "flow": _DILATION}]},
        {"bound/a": "error"},
    ),
    "generator-check-one-step": (
        {"suite": "generator-check", "steps": [1e-2],
         "cases": [{"label": "a", "space": _HARDY2, "flow": _DILATION, "f": "z^2"}]},
        {"generator/a": "error"},
    ),
    "cocycle-check-entry-types": (
        {
            "suite": "cocycle-check",
            "flow": _DILATION,
            "cocycles": [
                {"type": "coboundary", "omega": "z", "zeros": 5},
                {"type": "integral", "g": ["z"]},
                {"type": "trivial"},
            ],
        },
        {"cocycle/coboundary0": "error", "cocycle/integral1": "error", "cocycle/trivial2": True},
    ),
    "semigroup-check-catalog-params": (
        {
            "suite": "semigroup-check",
            "pairs": [
                {"label": "rate", "flow": {"name": "rotation", "params": {"rate": "fast"}},
                 "cocycle": {"type": "trivial"}},
                {"label": "domain", "flow": {"name": "identity", "params": {"domain": "torus"}},
                 "cocycle": {"type": "trivial"}},
                {"label": "generator", "flow": {"generator": 5}, "cocycle": {"type": "trivial"}},
            ],
        },
        {"laws/rate": "error", "laws/domain": "error", "laws/generator": "error"},
    ),
    "admissibility-g-not-a-string": (
        {"suite": "admissibility", "flow": _DILATION,
         "cases": [{"label": "a", "g": 5}, {"label": "b", "g": "-1"}]},
        {"admissibility/a": "error", "admissibility/b": True},
    ),
    "reconstruct-generator-not-a-string": (
        {"suite": "reconstruct", "cases": [{"label": "a", "generator": 5, "reference": _DILATION}]},
        {"reconstruct/a": "error"},
    ),
    "reconstruct-generator-domain": (
        {"suite": "reconstruct",
         "cases": [{"label": "a", "generator": "x", "reference": _DILATION},
                   {"label": "b", "generator": "-z", "reference": _DILATION}]},
        {"reconstruct/a": "error", "reconstruct/b": True},
    ),
    "cocycle-check-x-on-the-disc": (
        {"suite": "cocycle-check", "flow": _DILATION,
         "cocycles": [{"type": "integral", "g": "x"}, {"type": "trivial"}]},
        {"cocycle/integral0": "error", "cocycle/trivial1": True},
    ),
    "cocycle-check-undeclared-zero": (
        {"suite": "cocycle-check", "flow": _DILATION,
         "cocycles": [{"type": "coboundary", "omega": "z"}, {"type": "trivial"}]},
        {"cocycle/coboundary0": "error", "cocycle/trivial1": True},
    ),
}

# What the error of a case in _BAD_INPUTS must name.
_ERROR_TEXT = {
    "reconstruct-generator-domain": {
        "reconstruct/a": "cases[0].generator: a real-domain generator"},
    "cocycle-check-x-on-the-disc": {"cocycle/integral0": "cocycles[0].g: bad expression"},
    "cocycle-check-undeclared-zero": {"cocycle/coboundary0": "omega vanishes at 0j"},
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
    "semigroup-check-ts-empty": (
        {"suite": "semigroup-check", "sweep": {"ts": []},
         "pairs": [{"flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        "sweep.ts",
    ),
    "bound-table-ts-empty": (
        {"suite": "bound-table", "ts": [], "cases": [{"space": _HARDY2, "flow": _DILATION}]},
        "config.ts",
    ),
    "bound-table-cases-not-a-list": (
        {"suite": "bound-table", "cases": {"label": "x"}},
        "config.cases",
    ),
    "norm-table-spaces-not-a-list": (
        {"suite": "norm-table", "spaces": 5},
        "config.spaces",
    ),
    "norm-table-saks-spaces-not-a-list": (
        {"suite": "norm-table", "spaces": [_HARDY2], "saks": {"spaces": 3}},
        "saks.spaces",
    ),
    "cocycle-check-cocycle-not-an-object": (
        {"suite": "cocycle-check", "flow": _DILATION, "cocycles": [5]},
        "cocycles[0]",
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

    @pytest.mark.parametrize("name", sorted(_ERROR_TEXT))
    def test_error_case_names_its_cause_without_a_warning(self, tmp_path, name):
        out = tmp_path / "r.json"
        proc = run_cli(tmp_path, _BAD_INPUTS[name][0], "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        errors = {c["id"]: c.get("error") for c in json.loads(out.read_text())["cases"]}
        for cid, text in _ERROR_TEXT[name].items():
            assert text in errors[cid]

    @pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
    def test_bad_config_value_is_a_config_error(self, tmp_path, name):
        cfg, field = _BAD_CONFIGS[name]
        proc = run_cli(tmp_path, cfg)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2
        assert f"config error: {field}:" in proc.stderr


# One small config per suite, fast enough to run many times; the fuzz test
# breaks one entry of one of them at a time. Each case list has two entries,
# so a broken entry leaves a case whose verdict must not move.
_TINY_CONFIGS = {
    "norm-table": {
        "suite": "norm-table",
        "spaces": [{"kind": "hardy", "p": 2.0, "policy": {"n_theta": 64, "n_radial": 16}},
                   {"kind": "sup-cont", "weight": "exp-decay", "halfwidth": 10.0}],
        "max_degree": 1,
        "saks": {"spaces": [{"kind": "hardy"}], "radii": [0.99, 0.9999], "gap_tol": 1e-3},
        "tolerances": {"hardy": 1e-8},
    },
    "semigroup-check": {
        "suite": "semigroup-check",
        "sweep": {"ts": [0.0, 0.5], "grid_rmax": 0.9, "grid_n": 4},
        "pairs": [{"label": "p", "space": _HARDY2, "flow": _DILATION,
                   "cocycle": {"type": "integral", "g": "z"}, "tol": 1e-8},
                  {"label": "q", "space": _HARDY2, "flow": _ATTRACTING,
                   "cocycle": {"type": "trivial"}}],
    },
    "cocycle-check": {
        "suite": "cocycle-check",
        "flow": _DILATION,
        "sweep": {"ts": [0.0, 0.5], "grid_rmax": 0.9, "grid_n": 4},
        "cocycles": [{"type": "coboundary", "omega": "z",
                      "zeros": [{"re": 0.0, "im": 0.0, "order": 1}]},
                     {"type": "integral", "g": "z"}],
        "tolerances": {"law": 1e-7, "mdot0": 1e-5},
    },
    "bound-table": {
        "suite": "bound-table",
        "ts": [0.5],
        "slack": 1e-3,
        "max_test_degree": 2,
        "cases": [{"label": "b", "space": _HARDY2, "flow": _DILATION,
                   "cocycle": {"type": "trivial"}},
                  {"label": "c", "space": _HARDY2, "flow": _ATTRACTING}],
    },
    "generator-check": {
        "suite": "generator-check",
        "steps": [1e-2, 5e-3, 2.5e-3],
        "radius": 0.9,
        "tolerances": {"residual": 1e-4, "order_min": 0.9},
        "cases": [{"label": "g", "space": _HARDY2, "flow": _DILATION,
                   "cocycle": {"type": "trivial"}, "f": "z^2"},
                  {"label": "h", "space": _HARDY2, "flow": _ATTRACTING, "f": "z"}],
    },
    "reconstruct": {
        "suite": "reconstruct",
        "sweep": {"ts": [0.5], "grid_rmax": 0.5, "grid_n": 2},
        "ode": {"h0": 1e-2, "tol_step": 1e-10, "exit_margin": 1e-9},
        "tolerances": {"deviation": 1e-6, "generator_fd": 1e-5},
        "cases": [_RECONSTRUCT,
                  {"label": "b", "generator": "1.0 - z", "reference": _ATTRACTING}],
    },
    "continuity-probe": {
        "suite": "continuity-probe",
        "cases": [{"label": "c", "space": _HARDY2, "flow": _DILATION,
                   "cocycle": {"type": "trivial"}, "f": "e_1", "ts": [0.1, 0.01],
                   "radii": [0.5], "tolerances": {"co": 1e-2, "norm": 1e-2},
                   "norm_cap": 10.0, "expect": {"gamma": True}},
                  {"label": "d", "space": _HARDY2, "flow": _ATTRACTING, "f": "e_1",
                   "ts": [0.1, 0.01], "radii": [0.5]}],
    },
    "admissibility": {
        "suite": "admissibility",
        "flow": _DILATION,
        "tol": 1e-8,
        "cases": [{"label": "a", "g": "-1", "expect_admissible": True},
                  {"label": "b", "g": "-2"}],
    },
}

_DROP = object()
_MUTATIONS = [_DROP, None, -1, "x", [], {}, [1]]


def _entry_paths(node, prefix=()):
    """The path of every object key and list entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _entry_paths(value, prefix + (key,))


def _mutated(cfg, path, mutation):
    out = json.loads(json.dumps(cfg))  # as read from a file: no entry shares an object
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if mutation is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    return out


@functools.cache
def _tiny_verdicts(suite) -> dict:
    """Case id to verdict of the unbroken tiny config, in entry order."""
    return {c.id: c.verdict for c in cli.run(copy.deepcopy(_TINY_CONFIGS[suite])).cases}


_FUZZ_TARGETS = [(suite, path) for suite, cfg in _TINY_CONFIGS.items()
                 for path in _entry_paths(cfg)]


class TestConfigFuzz:
    @pytest.mark.parametrize("suite", sorted(_TINY_CONFIGS))
    def test_tiny_configs_pass(self, tmp_path, suite):
        assert cli.main([suite, "--config", write_config(tmp_path, _TINY_CONFIGS[suite])]) == 0

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.sampled_from(_FUZZ_TARGETS), st.sampled_from(_MUTATIONS))
    def test_one_broken_entry_is_an_exit_code_not_an_exception(self, target, mutation):
        """A WcsgError out of ``cli.run`` is exit code 2; any other exception
        fails the test. A report must still hold every case that the broken
        entry does not belong to, with its verdict unchanged."""
        suite, path = target
        cfg = _mutated(_TINY_CONFIGS[suite], path, mutation)
        cfg.setdefault("suite", suite)  # as cli.main does
        try:
            report = cli.run(cfg)
        except WcsgError:
            return
        verdicts = {c.id: c.verdict for c in report.cases}
        if path[0] in ("cases", "pairs") and len(path) > 1:
            untouched = [cid for i, cid in enumerate(_tiny_verdicts(suite)) if i != path[1]]
            assert untouched
            for cid in untouched:
                assert verdicts.get(cid, "missing") == _tiny_verdicts(suite)[cid], cid


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
