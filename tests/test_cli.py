"""CLI surface: exit codes, config validation, JSON emission, determinism."""

import contextlib
import copy
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import cli, cocycles, exprs, flows, semigroup, spaces
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import ConfigError, WcsgError
from wcsg.reporting import report_to_dict, report_to_json, sanitize
from wcsg.semigroup import WcSemigroup
from wcsg.suites import SUITES, build_cocycle, build_flow, build_function, build_space

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

    def test_run_all_suites_rejects_an_unknown_suite(self, tmp_path):
        script = SRC.parent / "scripts" / "run_all_suites.py"
        proc = subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path / "r"),
                               "--suites", "nope"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "r").exists()

    def test_unwritable_report_is_an_io_error(self, tmp_path):
        out = tmp_path / "missing-dir" / "r.json"
        proc = run_cli(tmp_path, DEFAULT_CONFIGS["admissibility"], "--out", str(out))
        assert proc.returncode == 2
        assert f"io error: [Errno 2] No such file or directory: '{out}'\n" in proc.stderr

    def test_run_all_suites_reports_an_unusable_out_dir(self, tmp_path):
        script = SRC.parent / "scripts" / "run_all_suites.py"
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "r"
        proc = subprocess.run([sys.executable, str(script), "--out-dir", str(out),
                               "--suites", "admissibility"], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"io error: [Errno 20] Not a directory: '{out}'\n"

    def test_exact_difference_quotient_passes(self, tmp_path):
        # (f(x + h) - f(x))/h of f = x is 1 up to rounding at every h, so no
        # order can be fitted: residuals at rounding level count as exact
        cfg = {"suite": "generator-check", "cases": [
            {"space": {"kind": "sup-cont"}, "flow": {"name": "translation-real"}, "f": "x"}]}
        out = tmp_path / "r.json"
        code = cli.main(["generator-check", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        (case,) = json.loads(out.read_text())["cases"]
        assert code == 0 and case["verdict"] is True
        assert case["numbers"]["order"] == "inf"

    def test_cocycle_of_unknown_generator_is_an_error_case(self):
        # both cocycles give m_t = e^{-t}; only the integral one knows its g
        base = {"space": _HARDY2, "flow": _DILATION, "f": "z"}
        cfg = {"suite": "generator-check", "cases": [
            {**base, "label": "cob", "cocycle": {
                "type": "coboundary", "omega": "z", "zeros": [{"re": 0.0, "im": 0.0, "order": 1}]}},
            {**base, "label": "int", "cocycle": {"type": "integral", "g": "-1.0"}}]}
        cob, integral = cli.run(cfg).cases
        assert cob.verdict == "error"
        assert cob.error == "the generator g of cocycle cob[z] is not known"
        assert integral.verdict is True

    def test_real_line_derivative_cocycle_is_checked_against_its_generator(self):
        # A f = G f' + G' f for m_t = phi_t'; against g = 0 the residual is 1.73
        cfg = {"suite": "generator-check", "cases": [
            {"space": {"kind": "sup-cont", "weight": "exp-decay"}, "flow": {"name": "cubic-real"},
             "cocycle": {"type": "derivative"}, "f": "1.0 / (1.0 + x^2)"}]}
        (case,) = cli.run(cfg).cases
        assert case.verdict is True and case.numbers["residual"] < 1e-7

    def test_norm_whose_fourth_power_passes_the_guard_is_an_ordinary_case(self):
        # ||1200 z||_{H^4} = 1200, while its fourth power 2.07e12 exceeds the
        # overflow guard of 1e12
        cfg = {"suite": "continuity-probe", "cases": [
            {"label": "h4", "space": {"kind": "hardy", "p": 4.0}, "flow": _DILATION,
             "f": "1200*z", "ts": [0.1, 0.01], "radii": [0.5],
             "expect": {"gamma": False, "norm": False}}]}
        (case,) = cli.run(cfg).cases
        assert case.verdict is True

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
_TRANSLATION = {"name": "translation-real"}
_POLE_AT_AN_ORBIT = "1/(z-0.5762041267270017)"  # 1/(z - e^-0.5 0.95)
_CONTINUOUS = {"gamma": True, "norm": True}  # a continuity-probe case's expect

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
                 "f": "e_1", "ts": [0.001, 0.01, 0.1], "expect": _CONTINUOUS},
                {"label": "no-ts", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": [], "expect": _CONTINUOUS},
                {"label": "no-radii", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "radii": [], "expect": _CONTINUOUS},
                {"label": "radius-one", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "radii": [0.5, 1.0], "expect": _CONTINUOUS},
                {"label": "bad-monomial", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_x", "expect": _CONTINUOUS},
                {"label": "decreasing", "space": {"kind": "sup-holo"}, "flow": _DILATION,
                 "f": "e_1", "ts": [0.1, 0.01, 0.001], "tolerances": {"co": 1e-2, "norm": 1e-2},
                 "expect": _CONTINUOUS},
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
    # a radius of 1 or more puts the disc grid on or past the circle; the
    # real line takes it as the grid's halfwidth
    "generator-check-radius-one": (
        {"suite": "generator-check", "radius": 1.0,
         "cases": [{"label": "disc", "space": _HARDY2, "flow": _DILATION, "f": "z^2"},
                   {"label": "real", "space": {"kind": "sup-cont"},
                    "flow": {"name": "translation-real"}, "f": "1.0 / (1.0 + x^2)"}]},
        {"generator/disc": "error", "generator/real": True},
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
    "admissibility-flag-not-a-boolean": (
        {"suite": "admissibility", "flow": _DILATION,
         "cases": [{"label": "string", "g": "-1", "expect_admissible": "false"},
                   {"label": "number", "g": "-1", "expect_admissible": 1},
                   {"label": "null", "g": "-1", "expect_admissible": None},
                   {"label": "ok", "g": "-1", "expect_admissible": True}]},
        {"admissibility/string": "error", "admissibility/number": "error",
         "admissibility/null": "error", "admissibility/ok": True},
    ),
    # phi_t = id fixes every point, and G' = 0 at each: e^{tg} = 1 only for g = 0
    "admissibility-identity-flow": (
        {"suite": "admissibility", "flow": {"name": "identity"},
         "cases": [{"g": "-1.0"}, {"g": "z"}]},
        {"admissibility/case0": "error", "admissibility/case1": "error"},
    ),
    # f has its pole at 0.5, a point of the sup grid
    "continuity-probe-pole-on-the-sup-grid": (
        {"suite": "continuity-probe",
         "cases": [{"label": label, "space": {"kind": "sup-holo", "weight": "one"},
                    "flow": _DILATION, "f": f, "expect": _CONTINUOUS}
                   for label, f in [("pole", "1/(z-0.5)"), ("centre", "1/z"), ("ok", "e_1")]]},
        {"continuity/pole": "error", "continuity/centre": "error", "continuity/ok": True},
    ),
    "continuity-probe-flag-not-a-boolean": (
        {"suite": "continuity-probe",
         "cases": [{"label": label, "space": _HARDY2, "flow": _DILATION, "f": "e_1",
                    "ts": [0.1, 0.01], "radii": [0.5], "tolerances": {"co": 1e-2, "norm": 1e-2},
                    "expect": expect}
                   for label, expect in [("string", {"gamma": "true"}),
                                         ("number", {"gamma": True, "norm": 0}),
                                         ("ok", {"gamma": True})]]},
        {"continuity/string": "error", "continuity/number": "error", "continuity/ok": True},
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
    # 0.01/z has its pole at the grid point 0: the first RK4 step from 0 is
    # not finite
    "reconstruct-pole-at-a-start-point": (
        {"suite": "reconstruct",
         "cases": [{"label": "a", "generator": "-z + 0.01/z", "reference": _DILATION},
                   {"label": "b", "generator": "-z", "reference": _DILATION},
                   {"label": "c", "generator": "1/z", "reference": _DILATION}]},
        {"reconstruct/a": "error", "reconstruct/b": True, "reconstruct/c": "error"},
    ),
    "reconstruct-non-lipschitz-zero": (
        {"suite": "reconstruct", "sweep": {"ts": [1.0], "grid_n": 20},
         "cases": [{"label": "a", "generator": "-x^(1/3)",
                    "reference": {"name": "translation-real"}},
                   {"label": "b", "generator": "-z", "reference": _DILATION}]},
        {"reconstruct/a": "error", "reconstruct/b": True},
    ),
    "bound-table-flow-and-space-domains": (
        {"suite": "bound-table", "ts": [0.5],
         "cases": [{"label": "real-identity-on-hardy", "space": _HARDY2,
                    "flow": {"name": "identity", "params": {"domain": "real"}}},
                   {"label": "dilation-on-sup-cont", "space": {"kind": "sup-cont"},
                    "flow": _DILATION},
                   {"label": "ok", "space": _HARDY2, "flow": _DILATION}]},
        {"bound/real-identity-on-hardy": "error", "bound/dilation-on-sup-cont": "error",
         "bound/ok": True},
    ),
    "bound-table-keys-of-another-variant": (
        {"suite": "bound-table", "ts": [0.5],
         "cases": [{"label": "hardy-with-alpha-and-weight", "flow": _DILATION,
                    "space": {"kind": "hardy", "alpha": 5, "weight": "zzz"}},
                   {"label": "attracting-with-params", "space": _HARDY2,
                    "flow": {"name": "attracting", "params": {"rate": 9, "c": 3}}},
                   {"label": "ok", "space": _HARDY2, "flow": _DILATION}]},
        {"bound/hardy-with-alpha-and-weight": "error", "bound/attracting-with-params": "error",
         "bound/ok": True},
    ),
    "cocycle-check-missing-type": (
        {"suite": "cocycle-check", "flow": _DILATION,
         "cocycles": [{"g": "z"}, {"type": "trivial"}]},
        {"cocycle/?0": "error", "cocycle/trivial1": True},
    ),
    "semigroup-check-flow-keys": (
        {"suite": "semigroup-check", "sweep": {"ts": [0.0, 0.5], "grid_n": 4},
         "pairs": [{"label": "string-rate", "flow": {"name": "rotation", "params": {"rate": "2"}},
                    "cocycle": {"type": "trivial"}},
                   {"label": "ode-with-params", "flow": {"generator": "-z", "params": {"c": 1}},
                    "cocycle": {"type": "trivial"}},
                   {"label": "catalog-with-ode", "flow": {"name": "dilation", "ode": {}},
                    "cocycle": {"type": "trivial"}},
                   {"label": "ode-with-ode", "flow": {"generator": "-z", "ode": {}},
                    "cocycle": {"type": "trivial"}},
                   {"label": "ok", "flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        {"laws/string-rate": "error", "laws/ode-with-params": "error",
         "laws/catalog-with-ode": "error", "laws/ode-with-ode": "error", "laws/ok": True},
    ),
    "bound-table-base-point-on-the-circle": (
        {"suite": "bound-table", "ts": [40.0],
         "cases": [{"label": label, "space": space, "flow": _ATTRACTING}
                   for label, space in [("hardy", _HARDY2),
                                        ("bergman", {"kind": "bergman", "alpha": 1.0}),
                                        ("dirichlet", {"kind": "dirichlet"})]]
         + [{"label": "ok", "space": _HARDY2, "flow": _DILATION}]},
        {"bound/hardy": "error", "bound/bergman": "error", "bound/dirichlet": "error",
         "bound/ok": True},
    ),
    "bound-table-underflowed-cocycle": (
        {"suite": "bound-table", "ts": [1.0],
         "cases": [{"label": label, "space": _HARDY2, "flow": _DILATION,
                    "cocycle": {"type": "integral", "g": g}}
                   for label, g in [("underflow", "-1000.0"), ("tiny", "-40.0")]]},
        {"bound/underflow": "error", "bound/tiny": True},
    ),
    "semigroup-check-grid-on-the-circle": (
        {"suite": "semigroup-check", "sweep": {"ts": [0.0, 0.5], "grid_rmax": 1.0, "grid_n": 4},
         "pairs": [{"label": "disc", "flow": _DILATION, "cocycle": {"type": "trivial"}},
                   {"label": "real", "space": {"kind": "sup-cont", "weight": "exp-decay"},
                    "flow": {"name": "translation-real"}, "cocycle": {"type": "trivial"}}]},
        {"laws/disc": "error", "laws/real": True},
    ),
    # g = 1/z has its pole at 0, a grid point the dilation fixes
    "semigroup-check-integral-pole-on-the-grid": (
        {"suite": "semigroup-check",
         "pairs": [{"label": "pole", "flow": _DILATION,
                    "cocycle": {"type": "integral", "g": "1/z"}},
                   {"label": "ok", "flow": _DILATION, "cocycle": {"type": "integral", "g": "z"}}]},
        {"laws/pole": "error", "laws/ok": True},
    ),
    "cocycle-check-integral-pole-on-the-grid": (
        {"suite": "cocycle-check", "flow": _DILATION,
         "cocycles": [{"type": "integral", "g": "1/z"}, {"type": "integral", "g": "z"}]},
        {"cocycle/integral0": "error", "cocycle/integral1": True},
    ),
    # the pole of omega is phi_0.5(0.95), and 0.95 is a grid point: only the
    # pair (0.5, 0.5) meets it, after finite residuals
    "cocycle-check-coboundary-pole-on-an-orbit": (
        {"suite": "cocycle-check", "flow": _DILATION, "sweep": {"ts": [0.0, 0.5]},
         "cocycles": [{"type": "coboundary", "omega": _POLE_AT_AN_ORBIT}, {"type": "trivial"}]},
        {"cocycle/coboundary0": "error", "cocycle/trivial1": True},
    ),
    "semigroup-check-coboundary-pole-on-an-orbit": (
        {"suite": "semigroup-check", "sweep": {"ts": [0.0, 0.5]},
         "pairs": [{"label": "pole", "flow": _DILATION,
                    "cocycle": {"type": "coboundary", "omega": _POLE_AT_AN_ORBIT}},
                   {"label": "ok", "flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        {"laws/pole": "error", "laws/ok": True},
    ),
    # a cap or tolerance of 0 would make the verdict it bounds false whatever
    # the probe finds, so "expect": false would pass vacuously
    "continuity-probe-nonpositive-bounds": (
        {"suite": "continuity-probe",
         "cases": [{"label": label, "space": {"kind": "sup-holo"}, "flow": _DILATION, "f": "e_1",
                    **extra}
                   for label, extra in [
                       ("cap", {"norm_cap": 0, "expect": {"gamma": False}}),
                       ("norm", {"tolerances": {"norm": 0}, "expect": {"norm": False}}),
                       ("co", {"tolerances": {"co": -1e-3}, "expect": {"gamma": False}}),
                       ("ok", {"tolerances": {"co": 1e-2, "norm": 1e-2},
                               "expect": _CONTINUOUS})]]},
        {"continuity/cap": "error", "continuity/norm": "error", "continuity/co": "error",
         "continuity/ok": True},
    ),
    "semigroup-check-nonpositive-tol": (
        {"suite": "semigroup-check", "sweep": {"ts": [0.0, 0.5], "grid_n": 4},
         "pairs": [{"label": "zero", "flow": _DILATION, "cocycle": {"type": "trivial"}, "tol": 0},
                   {"label": "ok", "flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        {"laws/zero": "error", "laws/ok": True},
    ),
    # every check a space or a function makes of its own parameters
    "generator-check-space-parameters": (
        {"suite": "generator-check",
         "cases": [{"label": label, "space": space, "flow": _DILATION, "f": "z"}
                   for label, space in [
                       ("n-theta", {"kind": "hardy", "policy": {"n_theta": 8}}),
                       ("n-radial", {"kind": "hardy", "policy": {"n_radial": 4}}),
                       ("r-cap", {"kind": "hardy", "policy": {"r_cap": 1.0}}),
                       ("tol", {"kind": "hardy", "policy": {"tol": 0}}),
                       ("bergman-alpha", {"kind": "bergman", "alpha": -1}),
                       ("bloch-alpha", {"kind": "bloch", "alpha": 0}),
                       ("ok", _HARDY2)]]},
        {**{f"generator/{label}": "error" for label in (
            "n-theta", "n-radial", "r-cap", "tol", "bergman-alpha", "bloch-alpha")},
         "generator/ok": True},
    ),
    "generator-check-specs-of-f": (
        {"suite": "generator-check",
         "cases": [{"label": label, "space": _HARDY2, "flow": _DILATION, "f": f}
                   for label, f in [("negative-monomial", "e_-1"), ("character", "z $"),
                                    ("trailing", "z)"), ("exponent", "z^1.5"),
                                    ("mobius", "mobius(2)*z"), ("leading-operator", "*z"),
                                    ("ok", "z")]]},
        {**{f"generator/{label}": "error" for label in (
            "negative-monomial", "character", "trailing", "exponent", "mobius",
            "leading-operator")},
         "generator/ok": True},
    ),
    # a pole at the grid point 0 in each expression key of a case; the grids
    # of the line hold 0 too
    "generator-check-pole-on-the-grid": (
        {"suite": "generator-check",
         "cases": [{"label": label, "space": space, "flow": flow, "f": f, **extra}
                   for label, space, flow, f, extra in [
                       ("f", _HARDY2, _DILATION, "1/z", {}),
                       ("g", _HARDY2, _DILATION, "z",
                        {"cocycle": {"type": "integral", "g": "1/z"}}),
                       ("generator", _HARDY2, {"generator": "1/z"}, "z", {}),
                       ("weight", {"kind": "sup-holo", "weight": "1/z"}, _DILATION, "z", {}),
                       ("line-f", {"kind": "sup-cont"}, _TRANSLATION, "1/x", {}),
                       ("line-g", {"kind": "sup-cont"}, _TRANSLATION, "x",
                        {"cocycle": {"type": "integral", "g": "1/x"}}),
                       ("line-generator", {"kind": "sup-cont"}, {"generator": "1/x"}, "x", {}),
                       ("line-weight", {"kind": "sup-cont", "weight": "1/x"}, _TRANSLATION, "x",
                        {}),
                       ("ok", _HARDY2, _DILATION, "z", {})]]},
        {**{f"generator/{label}": "error" for label in (
            "f", "g", "generator", "weight", "line-f", "line-g", "line-generator",
            "line-weight")},
         "generator/ok": True},
    ),
    # the dilation fixes 0; 0/0 is not finite either
    "admissibility-pole-at-the-fixed-point": (
        {"suite": "admissibility", "flow": _DILATION,
         "cases": [{"label": "pole", "g": "1/z"}, {"label": "zero-by-zero", "g": "z/z"},
                   {"label": "ok", "g": "-1.0"}]},
        {"admissibility/pole": "error", "admissibility/zero-by-zero": "error",
         "admissibility/ok": True},
    ),
    "bound-table-pole-on-the-grid": (
        {"suite": "bound-table", "ts": [0.5],
         "cases": [{"label": "g", "space": _HARDY2, "flow": _DILATION,
                    "cocycle": {"type": "integral", "g": "1/z"}},
                   {"label": "generator", "space": _HARDY2, "flow": {"generator": "1/z"}},
                   {"label": "ok", "space": _HARDY2, "flow": _DILATION}]},
        {"bound/g": "error", "bound/generator": "error", "bound/ok": True},
    ),
    "semigroup-check-generator-pole-on-the-grid": (
        {"suite": "semigroup-check", "sweep": {"ts": [0.0, 0.5], "grid_n": 4},
         "pairs": [{"label": "pole", "flow": {"generator": "1/z"}, "cocycle": {"type": "trivial"}},
                   {"label": "ok", "flow": _DILATION, "cocycle": {"type": "trivial"}}]},
        {"laws/pole": "error", "laws/ok": True},
    ),
    # the flow is shared, so every cocycle of the sweep meets its pole
    "cocycle-check-generator-pole-on-the-grid": (
        {"suite": "cocycle-check", "flow": {"generator": "1/z"},
         "cocycles": [{"type": "trivial"}, {"type": "integral", "g": "z"}]},
        {"cocycle/trivial0": "error", "cocycle/integral1": "error"},
    ),
}

# What the error of a case in _BAD_INPUTS must name.
_ERROR_TEXT = {
    "generator-check-radius-one": {
        "generator/disc": "config.radius: a disc grid must lie inside the unit disc, got 1.0"},
    "semigroup-check-integral-pole-on-the-grid": {
        "laws/pole": "non-finite values in time integral at 0j"},
    "cocycle-check-integral-pole-on-the-grid": {
        "cocycle/integral0": "non-finite values in time integral at 0j"},
    "semigroup-check-grid-on-the-circle": {
        "laws/disc": "sweep.grid_rmax: a disc grid must lie inside the unit disc, got 1.0"},
    "continuity-probe-pole-on-the-sup-grid": {
        "continuity/pole": "sup evaluation is not finite at (0.5+0j)",
        "continuity/centre": "sup evaluation is not finite at 0j"},
    "reconstruct-generator-domain": {
        "reconstruct/a":
            "cases[0].generator: bad expression: complex-domain expressions use the variable z"},
    "cocycle-check-x-on-the-disc": {"cocycle/integral0": "cocycles[0].g: bad expression"},
    "cocycle-check-undeclared-zero": {"cocycle/coboundary0": "omega vanishes at 0j"},
    "cocycle-check-coboundary-pole-on-an-orbit": {
        "cocycle/coboundary0": "omega is not finite at (0.5762041267270017+0j)"},
    "semigroup-check-coboundary-pole-on-an-orbit": {
        "laws/pole": "omega is not finite at (0.5762041267270017+0j)"},
    "reconstruct-pole-at-a-start-point": {
        f"reconstruct/{label}": "trajectory from 0j took a non-finite RK4 step at t=0"
        for label in "ac"},
    "reconstruct-non-lipschitz-zero": {
        "reconstruct/a": "trajectory from -0.54 stalled at t=0.998521 after 4096 RK4 steps"},
    "bound-table-flow-and-space-domains": {
        "bound/real-identity-on-hardy":
            "flow identity acts on the real domain, but H^2 lives on the disc domain",
        "bound/dilation-on-sup-cont":
            "flow dilation acts on the disc domain, but Cv[exp(-|x|)] lives on the real domain"},
    "bound-table-keys-of-another-variant": {
        "bound/hardy-with-alpha-and-weight": "cases[0].space.alpha: not a key of kind 'hardy'",
        "bound/attracting-with-params": "cases[1].flow.params.rate: not a parameter of attracting"},
    "cocycle-check-missing-type": {"cocycle/?0": "cocycles[0].type: missing required key"},
    "bound-table-underflowed-cocycle": {"bound/underflow": "sup |m_t| underflowed to 0 at t=1"},
    "bound-table-base-point-on-the-circle": {
        f"bound/{label}": "phi_t(0) reached the unit circle at t=40"
        for label in ("hardy", "bergman", "dirichlet")},
    "admissibility-identity-flow": {
        f"admissibility/case{i}": "identity fixes every point: g(b)/G'(b) is undefined"
        for i in range(2)},
    "admissibility-flag-not-a-boolean": {
        "admissibility/string": "cases[0].expect_admissible: expected true or false, got 'false'",
        "admissibility/number": "cases[1].expect_admissible: expected true or false, got 1",
        "admissibility/null": "cases[2].expect_admissible: expected true or false, got None"},
    "continuity-probe-flag-not-a-boolean": {
        "continuity/string": "cases[0].expect.gamma: expected true or false, got 'true'",
        "continuity/number": "cases[1].expect.norm: expected true or false, got 0"},
    "semigroup-check-flow-keys": {
        "laws/string-rate": "pairs[0].flow.params.rate: expected a number, got '2'",
        "laws/ode-with-params": "pairs[1].flow.params: not a key of an ODE flow",
        "laws/catalog-with-ode": "pairs[2].flow.ode: unknown key",
        "laws/ode-with-ode": "pairs[3].flow.ode: unknown key"},
    "continuity-probe-nonpositive-bounds": {
        "continuity/cap": "cases[0].norm_cap: must be positive, got 0.0",
        "continuity/norm": "cases[1].tolerances.norm: must be positive, got 0.0",
        "continuity/co": "cases[2].tolerances.co: must be positive, got -0.001"},
    "semigroup-check-nonpositive-tol": {"laws/zero": "pairs[0].tol: must be positive, got 0.0"},
    "generator-check-space-parameters": {
        "generator/n-theta": "cases[0].space.policy: n_theta must be >= 16",
        "generator/n-radial": "cases[1].space.policy: n_radial must be >= 8",
        "generator/r-cap": "cases[2].space.policy: r_cap must lie in (0, 1)",
        "generator/tol": "cases[3].space.policy: tol must be positive",
        "generator/bergman-alpha": "cases[4].space: bergman weight exponent must be > -1",
        "generator/bloch-alpha": "cases[5].space: bloch weight exponent must be positive"},
    "generator-check-specs-of-f": {
        "generator/negative-monomial":
            "cases[0].f: bad monomial name: monomial degree must be >= 0",
        "generator/character": "cases[1].f: bad expression: bad character at position 1",
        "generator/trailing": "cases[2].f: bad expression: expected end, got ')'",
        "generator/exponent":
            "cases[3].f: bad expression: exponent must be an integer or 1/3, 2/3",
        "generator/mobius":
            "cases[4].f: bad expression: mobius parameter must lie in the open unit disc",
        "generator/leading-operator": "cases[5].f: bad expression: unexpected token '*'"},
    # a weight's sampled check names the pole as a config error at the space
    "generator-check-pole-on-the-grid": {
        "generator/f": "f is not finite at 0j",
        "generator/g": "G f' + g f is not finite at 0j",
        "generator/generator": "G f' + g f is not finite at 0j",
        "generator/weight": "cases[3].space: weight is not finite at 0j",
        "generator/line-f": "f is not finite at 0.0",
        "generator/line-g": "G f' + g f is not finite at 0.0",
        "generator/line-generator": "G f' + g f is not finite at 0.0",
        "generator/line-weight": "cases[7].space: weight is not finite at 0.0"},
    "admissibility-pole-at-the-fixed-point": {
        f"admissibility/{label}": "g is not finite at the fixed point 0j"
        for label in ("pole", "zero-by-zero")},
    "bound-table-pole-on-the-grid": {
        "bound/g": "non-finite values in time integral at 0j",
        "bound/generator": "trajectory from 0j took a non-finite RK4 step at t=0"},
    "semigroup-check-generator-pole-on-the-grid": {
        "laws/pole": "trajectory from 0j took a non-finite RK4 step at t=0"},
    "cocycle-check-generator-pole-on-the-grid": {
        f"cocycle/{cid}": "trajectory from 0j took a non-finite RK4 step at t=0"
        for cid in ("trivial0", "integral1")},
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
    "norm-table-fractional-n-theta": (
        {"suite": "norm-table", "spaces": [{"kind": "hardy", "policy": {"n_theta": 512.7}}]},
        "spaces[0].policy.n_theta",
    ),
    "norm-table-boolean-alpha": (
        {"suite": "norm-table", "spaces": [{"kind": "bergman", "alpha": True}]},
        "spaces[0].alpha",
    ),
    "cocycle-check-boolean-dilation-c": (
        {"suite": "cocycle-check", "flow": {"name": "dilation", "params": {"c": True}},
         "cocycles": [{"type": "trivial"}]},
        "flow.params.c",
    ),
    "bound-table-fractional-max-test-degree": (
        {"suite": "bound-table", "max_test_degree": 2.5, "cases": []},
        "config.max_test_degree",
    ),
    "norm-table-infinite-p": (
        {"suite": "norm-table", "spaces": [{"kind": "hardy", "p": float("inf")}], "max_degree": 2},
        "spaces[0].p",
    ),
    "norm-table-nan-tolerance": (
        {"suite": "norm-table", "spaces": [_HARDY2], "tolerances": {"hardy": float("nan")}},
        "config.tolerances.hardy",
    ),
    "cocycle-check-trivial-with-g": (
        {"suite": "cocycle-check", "flow": _DILATION, "cocycles": [{"type": "trivial", "g": "z^5"}]},
        "cocycles[0].g",
    ),
    "cocycle-check-integral-with-omega": (
        {"suite": "cocycle-check", "flow": _DILATION,
         "cocycles": [{"type": "integral", "g": "z", "omega": "nonsense", "zeros": 7}]},
        "cocycles[0].omega",
    ),
    "cocycle-check-list-flow-name": (
        {"suite": "cocycle-check", "flow": {"name": ["dilation"]}, "cocycles": []},
        "flow",
    ),
    "admissibility-overflowing-literal": (
        {"suite": "admissibility", "flow": {"generator": "-z + 1e999*z^2"}, "cases": []},
        "flow.generator",
    ),
    "cocycle-check-negative-time": (
        {"suite": "cocycle-check", "flow": {"name": "attracting"}, "sweep": {"ts": [0.0, -0.5]},
         "cocycles": [{"type": "trivial"}]},
        "sweep.ts[1]",
    ),
    "reconstruct-negative-time": (
        {"suite": "reconstruct", "sweep": {"ts": [-0.5, 0.5]}, "cases": [_RECONSTRUCT]},
        "sweep.ts[0]",
    ),
    "norm-table-complex-weight": (
        {"suite": "norm-table", "spaces": [{"kind": "sup-holo", "weight": "1 + 0.9*i*z"}]},
        "spaces[0]",
    ),
    "norm-table-sup-cont-halfwidth-zero": (
        {"suite": "norm-table", "spaces": [{"kind": "sup-cont", "halfwidth": 0}]},
        "spaces[0]",
    ),
    "generator-check-radius-zero": (
        {"suite": "generator-check", "radius": 0.0,
         "cases": [{"space": _HARDY2, "flow": _DILATION, "f": "z^2"}]},
        "config.radius",
    ),
    "cocycle-check-grid-outside-the-disc": (
        {"suite": "cocycle-check", "flow": _DILATION, "sweep": {"grid_rmax": 3.0},
         "cocycles": [{"type": "trivial"}]},
        "sweep.grid_rmax",
    ),
    "norm-table-negative-max-degree": (
        {"suite": "norm-table", "spaces": [{"kind": "hardy"}], "max_degree": -3},
        "config.max_degree",
    ),
    # the RK4 step control is fixed: no flow and no suite takes an ode key
    "admissibility-ode-flow-with-ode": (
        {"suite": "admissibility", "flow": {"generator": "-z", "ode": {}},
         "cases": [{"g": "-1.0"}]},
        "flow.ode",
    ),
    "cocycle-check-catalog-flow-with-ode": (
        {"suite": "cocycle-check", "flow": {"name": "dilation", "ode": {"h0": 1e-2}},
         "cocycles": [{"type": "trivial"}]},
        "flow.ode",
    ),
    "reconstruct-ode": (
        {"suite": "reconstruct", "ode": {"h0": 1e-2}, "cases": [_RECONSTRUCT]},
        "config.ode",
    ),
    # a config that selects no case would pass vacuously
    "norm-table-no-spaces": ({"suite": "norm-table", "spaces": []}, "config"),
    "bound-table-no-cases": ({"suite": "bound-table", "ts": [1.0], "cases": []}, "config"),
    "admissibility-no-cases": (
        {"suite": "admissibility", "flow": {"name": "dilation"}, "cases": []},
        "config",
    ),
}
# A top-level value out of range, and its config error in full. A tolerance of
# 0 or less can make a verdict pass or fail whatever its check finds, and a
# negative max_test_degree would leave the witness set without monomials.
_OUT_OF_RANGE = {
    "norm-table-zero-tolerance": (
        {"suite": "norm-table", "spaces": [_HARDY2], "tolerances": {"hardy": 0}},
        "config.tolerances.hardy: must be positive, got 0.0"),
    "norm-table-negative-saks-gap-tol": (
        {"suite": "norm-table", "spaces": [_HARDY2], "saks": {"spaces": [_HARDY2],
                                                             "gap_tol": -1e-3}},
        "saks.gap_tol: must be positive, got -0.001"),
    "cocycle-check-zero-law-tolerance": (
        {"suite": "cocycle-check", "flow": _DILATION, "tolerances": {"law": 0},
         "cocycles": [{"type": "trivial"}]},
        "config.tolerances.law: must be positive, got 0.0"),
    "generator-check-zero-order-min": (
        {"suite": "generator-check", "tolerances": {"order_min": 0},
         "cases": [{"space": _HARDY2, "flow": _DILATION, "f": "z^2"}]},
        "config.tolerances.order_min: must be positive, got 0.0"),
    "reconstruct-zero-deviation": (
        {"suite": "reconstruct", "tolerances": {"deviation": 0}, "cases": [_RECONSTRUCT]},
        "config.tolerances.deviation: must be positive, got 0.0"),
    # the ratio at 0 is exactly 1: the case is admissible
    "admissibility-negative-tol": (
        {"suite": "admissibility", "flow": _DILATION, "tol": -1,
         "cases": [{"g": "-1.0", "expect_admissible": False}]},
        "config.tol: must be positive, got -1.0"),
    # tol = 0 would switch off the degenerate fixed-point guard at the double zero 0
    "admissibility-zero-tol": (
        {"suite": "admissibility", "flow": {"generator": "-z^2"}, "tol": 0,
         "cases": [{"g": "-1.0"}]},
        "config.tol: must be positive, got 0.0"),
    "bound-table-negative-max-test-degree": (
        {"suite": "bound-table", "max_test_degree": -1,
         "cases": [{"space": _HARDY2, "flow": _DILATION}]},
        "config.max_test_degree: must be >= 0, got -1"),
    "bound-table-negative-slack": (
        {"suite": "bound-table", "slack": -1e-3, "cases": [{"space": _HARDY2, "flow": _DILATION}]},
        "config.slack: must be >= 0, got -0.001"),
    # the fixed-point search seeds Newton on a grid that holds 0
    "admissibility-generator-pole-on-the-grid": (
        {"suite": "admissibility", "flow": {"generator": "1/z"}, "cases": [{"g": "-1.0"}]},
        "flow: the generator (1.0 / z) is not finite at 0j"),
    # 1/x^2 is +inf at the grid point 0, which passed "> 0"; each of its
    # norm-table cases was then an error case
    "norm-table-weight-pole-on-the-grid": (
        {"suite": "norm-table", "spaces": [{"kind": "sup-cont", "weight": "1/x^2"}]},
        "spaces[0]: weight is not finite at 0.0"),
}
_BAD_CONFIGS.update({name: (cfg, text.split(":")[0])
                     for name, (cfg, text) in _OUT_OF_RANGE.items()})

# Generators nested past exprs.MAX_DEPTH; each was a RecursionError traceback.
_BAD_CONFIGS.update({
    f"admissibility-deep-{kind}": (
        {"suite": "admissibility", "flow": {"generator": src}, "cases": []}, "flow.generator")
    for kind, src in {"sum": "z" + "+1" * 600, "parentheses": "(" * 300 + "z" + ")" * 300,
                      "minus": "-" * 600 + "z", "exp": "exp(" * 300 + "z" + ")" * 300}.items()
})


def run_cli(tmp_path, cfg, *extra):
    """``cli.main`` in-process, as ``wcsg <suite> --config FILE *extra``: the
    exit code and the captured stdout and stderr, every warning raised during
    the run written to stderr as Python would print it. An uncaught exception
    propagates and fails the test."""
    argv = [cfg["suite"], "--config", write_config(tmp_path, cfg), *extra]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_cli_subprocess(tmp_path, cfg, *extra):
    """``python -m wcsg.cli`` in a fresh interpreter, for what only a real
    start-up shows: the entry point, the imports and their warnings."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "wcsg.cli", cfg["suite"], "--config",
         write_config(tmp_path, cfg), *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )


# The first bad input of each suite, run once through a real interpreter.
_ONE_BAD_INPUT_PER_SUITE = [min(name for name, (cfg, _) in _BAD_INPUTS.items()
                                if cfg["suite"] == suite) for suite in sorted(SUITES)]


class TestErrorContract:
    @pytest.mark.parametrize("name", _ONE_BAD_INPUT_PER_SUITE)
    def test_entry_point_keeps_the_contract(self, tmp_path, name):
        cfg, expected = _BAD_INPUTS[name]
        out = tmp_path / "r.json"
        proc = run_cli_subprocess(tmp_path, cfg, "--out", str(out))
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.returncode == 1
        doc = json.loads(out.read_text())
        assert {c["id"]: c["verdict"] for c in doc["cases"]} == expected

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
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.returncode == 2
        assert f"config error: {field}:" in proc.stderr

    @pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
    def test_out_of_range_value_names_its_range(self, tmp_path, name):
        cfg, text = _OUT_OF_RANGE[name]
        assert f"config error: {text}\n" in run_cli(tmp_path, cfg).stderr


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
                   "ts": [0.1, 0.01], "radii": [0.5],
                   "expect": {"gamma": False, "norm": False}}],
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


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutated(cfg, path, mutation):
    out = json.loads(json.dumps(cfg))  # as read from a file: no entry shares an object
    parent = _at(out, path[:-1])
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

# Every object of every tiny config, the config itself included.
_OBJECTS = [pytest.param(suite, path, id=":".join([suite, *map(str, path)]))
            for suite, cfg in _TINY_CONFIGS.items()
            for path in [(), *_entry_paths(cfg)] if isinstance(_at(cfg, path), dict)]


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
    @pytest.mark.parametrize("suite, path", _OBJECTS)
    def test_unknown_key_in_any_object_is_an_error(self, suite, path):
        """An unknown key exits 2 or makes an error case of the case it sits
        in (of every case, for a section all cases read); it never leaves a
        run unchanged."""
        cfg = json.loads(json.dumps(_TINY_CONFIGS[suite]))
        _at(cfg, path)["surplus"] = 1
        try:
            report = cli.run(cfg)
        except WcsgError:
            return
        verdicts = [c.verdict for c in report.cases]
        if len(path) > 1 and path[0] in ("cases", "pairs", "cocycles"):
            verdicts = [verdicts[path[1]]]
        assert verdicts and all(v == "error" for v in verdicts)

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


def _case_lists(cfg):
    """The paths of a config's case lists: its lists of objects, at the top
    level or in an object there (``saks.spaces``)."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from ((key, *path) for path in _case_lists(value))
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            yield (key,)


def _at(cfg, path):
    return functools.reduce(lambda node, key: node[key], path, cfg)


def _entries_alone(cfg):
    """The config once per entry of its case lists, with that entry alone in
    its list and every other case list empty."""
    lists = list(_case_lists(cfg))
    for path in lists:
        for entry in _at(cfg, path):
            alone = copy.deepcopy(cfg)
            for other in lists:
                _at(alone, other[:-1])[other[-1]] = []
            _at(alone, path[:-1])[path[-1]] = [copy.deepcopy(entry)]
            yield alone


def _key_paths(node, path=()):
    """The path of every key of every object in a config."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(node, dict):
            yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, (*path, key))


def _report_or_error(cfg):
    try:
        return report_to_json(cli.run(copy.deepcopy(cfg)))
    except WcsgError as e:
        return f"error: {e}"


class TestConfigEcho:
    """Every default that a run applies appears in the report's config echo."""

    @pytest.mark.parametrize("suite", sorted(DEFAULT_CONFIGS))
    def test_built_in_configs_restate_no_default(self, suite):
        # the schema holds every default: a built-in key whose deletion leaves
        # the report as it is would be a second copy of one
        restated = []
        for alone in _entries_alone(DEFAULT_CONFIGS[suite]):
            report = _report_or_error(alone)
            for path in _key_paths(alone):
                cut = copy.deepcopy(alone)
                del _at(cut, path[:-1])[path[-1]]
                if _report_or_error(cut) == report:
                    restated.append(path)
        assert restated == []

    def test_continuity_tolerance_defaults(self):
        cfg = copy.deepcopy(DEFAULT_CONFIGS["continuity-probe"])
        cfg["cases"] = cfg["cases"][:1]
        case = report_to_dict(cli.run(cfg))["config"]["cases"][0]
        assert case["tolerances"] == {"co": 0.001, "norm": 0.001}

    def test_partial_policy_echoes_every_field(self):
        cfg = {"suite": "norm-table", "max_degree": 1,
               "spaces": [{"kind": "hardy", "policy": {"n_theta": 512}}]}
        space = report_to_dict(cli.run(cfg))["config"]["spaces"][0]
        assert space["policy"] == {"n_theta": 512, "n_radial": 128, "r_cap": 1.0 - 1e-6,
                                   "tol": 1e-8}

    @pytest.mark.parametrize("suite", sorted(DEFAULT_CONFIGS))
    def test_echo_reruns_to_the_same_report(self, suite):
        report = report_to_json(cli.run(copy.deepcopy(DEFAULT_CONFIGS[suite])))
        echo = json.loads(report)["config"]
        assert report_to_json(cli.run(echo)) == report

    def test_in_memory_echo_reruns_to_the_same_report(self):
        # the echo of a catalog flow's complex default is {re, im}, not a
        # Python complex, which the reader rejects
        cfg = {"suite": "generator-check",
               "cases": [{"space": {"kind": "hardy"}, "flow": {"name": "dilation"}, "f": "z"}]}
        report = cli.run(cfg)
        assert report.config["cases"][0]["flow"]["params"] == {"c": {"re": 1.0, "im": 0.0}}
        rerun = cli.run(copy.deepcopy(report.config))
        assert rerun.summary["all_pass"]
        assert report_to_json(rerun) == report_to_json(report)

    def test_catalog_parameter_defaults(self):
        cfg = {"suite": "semigroup-check", "sweep": {"ts": [0.5], "grid_n": 2},
               "pairs": [{"flow": {"name": "dilation"}, "cocycle": {"type": "trivial"}},
                         {"flow": {"name": "identity"}, "cocycle": {"type": "trivial"}}]}
        pairs = report_to_dict(cli.run(cfg))["config"]["pairs"]
        assert [pair["flow"]["params"] for pair in pairs] == [
            {"c": {"re": 1.0, "im": 0.0}}, {"domain": "disc"}]

    def test_every_space_echoes_its_policy(self):
        def spaces(node):
            if isinstance(node, dict):
                if "kind" in node:
                    yield node
                node = list(node.values())
            if isinstance(node, list):
                for value in node:
                    yield from spaces(value)

        echoes = [report_to_dict(cli.run(copy.deepcopy(cfg)))["config"]
                  for cfg in DEFAULT_CONFIGS.values()]
        policies = [space["policy"] for echo in echoes for space in spaces(echo)]
        assert len(policies) == 35  # every space of every default config
        assert all(set(policy) == {"n_theta", "n_radial", "r_cap", "tol"} for policy in policies)

    def test_null_norm_cap_and_missing_expect_are_error_cases(self):
        case = {"space": _HARDY2, "flow": _DILATION, "f": "e_1", "ts": [0.1, 0.01],
                "radii": [0.5], "tolerances": {"co": 1e-2, "norm": 1e-2}}
        cfg = {"suite": "continuity-probe",
               "cases": [{**case, "label": "null-cap", "norm_cap": None, "expect": _CONTINUOUS},
                         {**case, "label": "no-expect"},
                         {**case, "label": "empty-expect", "expect": {}},
                         {**case, "label": "ok", "expect": _CONTINUOUS}]}
        errors = {c.id: c.error for c in cli.run(copy.deepcopy(cfg)).cases}
        assert errors == {
            "continuity/null-cap": "cases[0].norm_cap: expected a number, got None",
            "continuity/no-expect":
                "cases[1].expect: declares no verdict: the case would pass vacuously",
            "continuity/empty-expect":
                "cases[2].expect: declares no verdict: the case would pass vacuously",
            "continuity/ok": None}


def _first_entries(suite, *keys):
    """The report of the default config of ``suite`` cut to the first entry
    of each case list ``keys`` (a path into the config, such as
    ``("saks", "spaces")``), and that report's case dicts as the JSON writes
    them."""
    cfg = copy.deepcopy(DEFAULT_CONFIGS[suite])
    for key in keys:
        _at(cfg, key[:-1])[key[-1]] = _at(cfg, key)[:1]
    report = cli.run(cfg)
    return report, report_to_dict(report)["cases"]


def _semigroup(case):
    """The semigroup of a resolved case from a report's config echo."""
    phi = build_flow(case["flow"])
    return WcSemigroup(phi, build_cocycle(case["cocycle"], phi), build_space(case["space"]))


class TestEachCaseWritesWhatItsDiagnosticReturns:
    """A case's numbers and rows are the diagnostic's return, placed in the
    report unchanged; bound-table adds the lower bound to each row."""

    def test_bound_table(self):
        report, cases = _first_entries("bound-table", ("cases",))
        echo = report.config
        sg = _semigroup(echo["cases"][0])
        fs = semigroup.default_test_functions(sg.space, max_degree=echo["max_test_degree"])
        norms = [spaces.norm(sg.space, f) for f in fs]
        rows = [{**semigroup.theoretical_bound(sg, t),
                 "empirical_lower": semigroup.operator_norm_lower_bound(sg, t, fs, norms)}
                for t in echo["ts"]]
        assert cases[0]["rows"] == sanitize(rows)

    def test_generator_check(self):
        report, cases = _first_entries("generator-check", ("cases",))
        echo = report.config
        sg = _semigroup(echo["cases"][0])
        f = build_function(echo["cases"][0]["f"], sg.phi.domain, "f")
        grid = flows.disc_sample_grid(echo["radius"], 4, 16)
        numbers, rows = semigroup.generator_residual(sg, f, tuple(echo["steps"]), grid)
        assert (cases[0]["numbers"], cases[0]["rows"]) == (sanitize(numbers), sanitize(rows))

    def test_continuity_probe(self):
        report, cases = _first_entries("continuity-probe", ("cases",))
        case = report.config["cases"][0]
        sg = _semigroup(case)
        f = build_function(case["f"], sg.phi.domain, "f")
        tols = case["tolerances"]
        numbers, rows = semigroup.continuity_probe(sg, f, case["ts"], case["radii"],
                                                   tol_co=tols["co"], tol_norm=tols["norm"],
                                                   norm_cap=case["norm_cap"])
        assert (cases[0]["numbers"], cases[0]["rows"]) == (sanitize(numbers), sanitize(rows))

    def test_saks(self):
        report, cases = _first_entries("norm-table", ("spaces",), ("saks", "spaces"))
        saks = report.config["saks"]
        space = build_space(saks["spaces"][0])
        f = spaces.default_corpus(real=space.is_real)[0]
        numbers, _ = spaces.saks_sup_check(space, f, saks["radii"], tol=saks["gap_tol"])
        case = next(c for c in cases if c["id"] == f"saks/{space.label}/{f.name}")
        assert case["numbers"] == sanitize(numbers)
        assert "rows" not in case

    def test_admissibility(self):
        report, cases = _first_entries("admissibility", ("cases",))
        echo = report.config
        phi = build_flow(echo["flow"])
        g = exprs.to_holofn(echo["cases"][0]["g"], phi.domain)
        numbers, rows = cocycles.coboundary_admissibility(
            g, phi.generator, report.cases[0].inputs["fixed_points"], tol=echo["tol"])
        assert (cases[0]["numbers"], cases[0]["rows"]) == (sanitize(numbers), sanitize(rows))


class TestOneFieldPerRadiusAndOnePointPerZero:
    @staticmethod
    def _probe(radii):
        return cli.run({"suite": "continuity-probe", "cases": [
            {"space": {"kind": "hardy"}, "flow": {"name": "dilation"}, "f": "e_1",
             "radii": radii, "expect": {"gamma": True}}]}).cases[0]

    def test_radii_that_print_alike_write_two_fields(self):
        case = self._probe([0.9, 0.90000001])
        assert case.verdict is True
        for row in case.rows:
            assert [k for k in row if k.startswith("co_")] == ["co_residual_r0.9",
                                                               "co_residual_r0.90000001"]

    def test_default_radii_keep_their_field_names(self):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS["continuity-probe"]))
        assert report.config["cases"][0]["radii"] == [0.5, 0.9]
        for row in report.cases[0].rows:
            assert [k for k in row if k.startswith("co_")] == ["co_residual_r0.5",
                                                               "co_residual_r0.9"]

    @pytest.mark.parametrize("radii", [[0.9, 0.5], [0.5, 0.5]])
    def test_the_probe_checks_its_radii_as_the_saks_check_does(self, radii):
        case = self._probe(radii)
        assert (case.verdict, case.error) == ("error", "radii must be nonempty and increase "
                                                       "toward 1")

    def test_a_double_zero_is_one_fixed_point(self):
        case = cli.run({"suite": "admissibility", "flow": {"generator": "-z^2"}, "tol": 1e-30,
                        "cases": [{"g": "-1.0"}]}).cases[0]
        assert case.inputs["fixed_points"] == [0j]
        assert [row["point"] for row in case.rows] == [0j]


class TestGeneratorTakesTheCaseDomain:
    """An ODE generator is compiled on its case's domain, so a constant
    generator rebuilds the line's flows; a flow-only suite infers the domain."""

    @pytest.mark.parametrize("generator, reference", [
        ("1.0", {"name": "translation-real"}),
        ("0", {"name": "identity", "params": {"domain": "real"}})])
    def test_a_constant_rebuilds_a_line_flow(self, generator, reference):
        case = cli.run({"suite": "reconstruct", "cases": [
            {"generator": generator, "reference": reference}]}).cases[0]
        assert case.verdict is True
        assert case.numbers["max_deviation"] < 1e-12

    @pytest.mark.parametrize("generator", ["1.0", "0"])
    def test_a_constant_acts_on_the_spaces_line(self, generator):
        case = cli.run({"suite": "semigroup-check", "pairs": [
            {"space": {"kind": "sup-cont"}, "flow": {"generator": generator},
             "cocycle": {"type": "trivial"}}]}).cases[0]
        assert case.verdict is True

    def test_a_generator_in_the_wrong_variable_is_the_compilers_error(self):
        case = cli.run({"suite": "semigroup-check", "pairs": [
            {"space": {"kind": "sup-cont"}, "flow": {"generator": "1-z"},
             "cocycle": {"type": "trivial"}}]}).cases[0]
        assert case.error == ("pairs[0].flow.generator: bad expression: real-domain "
                              "expressions use the variable x")

    def test_a_flow_only_suite_keeps_a_constant_on_the_disc(self):
        assert build_flow({"generator": "1.0"}).domain.kind == "disc"
        assert build_flow({"generator": "1.0 + 0*x"}).domain.kind == "real"


class TestEmission:
    def test_json_round_trip(self):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS["admissibility"]))
        doc = report_to_dict(report)
        assert json.loads(report_to_json(report)) == doc

    @pytest.mark.parametrize("suite", sorted(DEFAULT_CONFIGS))
    def test_a_case_writes_its_rows_when_it_has_some(self, suite):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS[suite]))
        for case, doc in zip(report.cases, json.loads(report_to_json(report))["cases"]):
            if case.rows:
                assert doc["rows"] == sanitize(case.rows), case.id
            else:
                assert "rows" not in doc, case.id

    def test_bound_rows_carry_the_factors_of_the_bound(self):
        report = cli.run(copy.deepcopy(DEFAULT_CONFIGS["bound-table"]))
        rows = [row for case in report_to_dict(report)["cases"] for row in case["rows"]]
        assert rows
        for row in rows:
            comps = row["components"]
            assert {"composition", "multiplier"} <= set(comps)
            assert row["theoretical"] == comps["composition"] * comps["multiplier"]

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


class TestArrayBoundary:
    def test_no_expression_evaluator_sees_a_0d_array(self, monkeypatch):
        """A lone point is a one-point array at the call boundary: every
        packaged default config, an ODE reconstruction and an admissibility
        search on an expression generator evaluate no expression at a 0-d
        input."""
        ndims = []
        compile_ = exprs.to_callable

        def recording(node, real=False):
            fn = compile_(node, real)
            return lambda w: ndims.append(np.ndim(w)) or fn(w)

        monkeypatch.setattr(exprs, "to_callable", recording)
        configs = [*DEFAULT_CONFIGS.values(),
                   {"suite": "reconstruct",
                    "cases": [{"generator": "-0.9*z + (0.1 + 0.2*i)*z^2",
                               "reference": {"name": "dilation", "params": {"c": 0.9}}},
                              {"generator": "1/(1+x^2)", "reference": {"name": "translation-real"}}]},
                   {"suite": "admissibility", "flow": {"generator": "-z + 0.25*z^2"},
                    "cases": [{"g": "-1.0", "expect_admissible": True},
                              {"g": "-0.5*exp(z)", "expect_admissible": False}]}]
        for cfg in configs:
            cli.run(copy.deepcopy(cfg))
        assert ndims and 0 not in ndims
