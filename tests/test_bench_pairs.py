"""scripts/bench_pairs.py on two fake checkouts: pair order, summaries, exit codes."""

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# A stand-in for perfbench/run.py: it logs its side and flags to ../order.log
# and prints the result line, wall_s taken from its side's list by run count.
FAKE_RUN = """\
import json, pathlib, sys
here = pathlib.Path(__file__).resolve().parents[1]
log = here.parent / "order.log"
runs = log.read_text().splitlines() if log.exists() else []
side = here.name
n = sum(line.startswith(side) for line in runs)
with log.open("a") as fh:
    fh.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
walls = json.loads((here / "walls.json").read_text())
metrics = {"wall_s": walls[n], "setup_s": 0.2, "peak_rss_mb": 40.0,
           "pass_ratio": 1.0 if side == "parent" else 0.5, "headroom_decades": 0.5}
print(json.dumps({"correct": CORRECT, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
"""


def checkout(root, side, walls, correct=True):
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(FAKE_RUN.replace("CORRECT", str(correct)))
    (root / side / "walls.json").write_text(json.dumps(walls))
    return root / side


def run_script(tmp_path, parent, change, *extra):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--out",
                           str(out), "--workloads", "w", "--seconds", "1", *extra],
                          capture_output=True, text=True, timeout=60)
    return proc, out


def test_pairs_alternate_and_summaries_follow_each_metrics_direction(tmp_path):
    parent = checkout(tmp_path, "parent", [1.0, 2.0, 3.0, 4.0])
    change = checkout(tmp_path, "change", [0.5, 2.5, 1.0, 3.0])
    proc, out = run_script(tmp_path, parent, change, "--pairs", "4")
    assert proc.returncode == 0, proc.stderr
    order = [line.split()[0] for line in (tmp_path / "order.log").read_text().splitlines()]
    assert order == ["parent", "change", "change", "parent"] * 2
    doc = json.loads(out.read_text())["alternating_pairs"]["w"]
    assert (doc["pairs"], doc["all_correct"], doc["failed"]) == (4, True, 0)
    wall = doc["wall_s"]
    assert wall["parent"] == [1.0, 2.0, 3.0, 4.0] and wall["change"] == [0.5, 2.5, 1.0, 3.0]
    assert wall["parent_median_q1_q3"] == [2.5, 1.75, 3.25]
    assert wall["change_better_in_pairs"] == 3
    # pass_ratio is better higher: the change's 0.5 loses every pair; ties count for neither
    assert doc["pass_ratio"]["change_better_in_pairs"] == 0
    assert doc["setup_s"]["change_better_in_pairs"] == 0
    assert "w " in proc.stdout and "3/4 pairs" in proc.stdout


def test_a_run_that_is_not_correct_exits_one(tmp_path):
    parent = checkout(tmp_path, "parent", [1.0, 1.0])
    change = checkout(tmp_path, "change", [1.0, 1.0], correct=False)
    proc, out = run_script(tmp_path, parent, change, "--pairs", "2")
    assert proc.returncode == 1
    assert json.loads(out.read_text())["alternating_pairs"]["w"]["all_correct"] is False


def test_a_checkout_without_the_benchmark_exits_two(tmp_path):
    parent = checkout(tmp_path, "parent", [1.0, 1.0])
    proc, out = run_script(tmp_path, parent, tmp_path / "nothing")
    assert proc.returncode == 2 and "change checkout" in proc.stderr
    assert not out.exists()
