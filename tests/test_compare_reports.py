"""scripts/compare_reports.py over small report trees: output and exit codes."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def write_tree(root, reports):
    root.mkdir()
    for suite, doc in reports.items():
        (root / f"{suite}.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    return root


def report(verdict=True, config=None):
    return {
        "config": config if config is not None else {"suite": "toy", "tol": 1e-8},
        "cases": [
            {"id": "toy/a", "verdict": verdict, "numbers": {"residual": 1e-12}},
            {"id": "toy/b", "verdict": True, "numbers": {"residual": 2e-12}},
        ],
    }


def run_script(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def compare(tmp_path, left, right):
    proc = run_script(write_tree(tmp_path / "a", left), write_tree(tmp_path / "b", right))
    return proc.returncode, proc.stdout


def test_missing_directory_exits_two(tmp_path):
    a, missing = write_tree(tmp_path / "a", {"toy": report()}), tmp_path / "missing"
    for left, right in ((a, missing), (missing, a), (missing, tmp_path / "also-missing")):
        proc = run_script(left, right)
        assert proc.returncode == 2
        assert proc.stderr == f"io error: {missing}: not a directory\n"
        assert proc.stdout == ""


def test_trees_without_reports_exit_two(tmp_path):
    a, b = write_tree(tmp_path / "a", {}), write_tree(tmp_path / "b", {})
    proc = run_script(a, b)
    assert proc.returncode == 2
    assert proc.stderr == f"io error: no <suite>.json in {a} or {b}\n"
    assert "largest absolute shift" not in proc.stdout


def test_identical_trees(tmp_path):
    code, out = compare(tmp_path, {"toy": report()}, {"toy": report()})
    assert code == 0
    assert "toy.json: byte-identical" in out


def test_flipped_verdict_exits_one(tmp_path):
    code, out = compare(tmp_path, {"toy": report()}, {"toy": report(verdict=False)})
    assert code == 1
    assert "verdict toy/a: True -> False" in out


def test_config_key_on_one_side_is_structural(tmp_path):
    extra = {"suite": "toy", "tol": 1e-8, "ode": {"h0": 1e-3}}
    code, out = compare(tmp_path, {"toy": report()}, {"toy": report(config=extra)})
    assert code == 0
    assert "structural difference at .config.ode" in out


def test_only_structural_differences_say_no_float_moved(tmp_path):
    extra = {"suite": "toy", "tol": 1e-8, "label": "b"}
    code, out = compare(tmp_path, {"toy": report()}, {"toy": report(config=extra)})
    assert code == 0
    assert "toy.json: differs; no float moved\n" in out
    assert "at None" not in out


def test_suite_on_one_side_exits_one(tmp_path):
    code, out = compare(tmp_path, {"toy": report()}, {"toy": report(), "other": report()})
    assert code == 1
    assert "other.json: only in" in out


def test_moved_row_value_is_listed_by_its_path(tmp_path):
    def with_rows(last):
        doc = report()
        doc["cases"][0]["rows"] = [{"t": 0.5, "theoretical": 1.25},
                                   {"t": 1.0, "theoretical": last}]
        return doc

    code, out = compare(tmp_path, {"toy": with_rows(2.5)},
                        {"toy": with_rows(2.75)})
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("  moved ")]
    assert lines == ["  moved .cases.toy/a.rows[1].theoretical: 2.5 -> 2.75"]


def test_moved_floats_are_listed_with_both_values_largest_first(tmp_path):
    moved = report(config={"suite": "toy", "tol": 1e-8 * (1 + 1e-13)})  # below 1e-12 relative
    moved["cases"][0]["numbers"]["residual"] = 1.5e-12
    moved["cases"][1]["numbers"]["residual"] = 3e-12
    code, out = compare(tmp_path, {"toy": report()}, {"toy": moved})
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("  moved ")]
    assert lines == ["  moved .cases.toy/b.numbers.residual: 2e-12 -> 3e-12",
                     "  moved .cases.toy/a.numbers.residual: 1e-12 -> 1.5e-12"]


def test_moved_floats_are_listed_twenty_lines_at_most(tmp_path):
    many = {"config": {"suite": "toy"},
            "cases": [{"id": f"toy/{i:02d}", "verdict": True, "numbers": {"x": 1.0}}
                      for i in range(25)]}
    shifted = json.loads(json.dumps(many))
    for case in shifted["cases"]:
        case["numbers"]["x"] = 2.0
    code, out = compare(tmp_path, {"toy": many}, {"toy": shifted})
    assert code == 0
    assert out.count("  moved ") == 20
    assert "  moved .cases.toy/19.numbers.x: 1.0 -> 2.0" in out
    assert "  and 5 more moved by over 1e-12" in out
