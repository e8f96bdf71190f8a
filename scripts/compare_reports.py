#!/usr/bin/env python3
"""Compare two report trees written by run_all_suites.py.

    python3 scripts/compare_reports.py DIR_A DIR_B

For each <suite>.json found in either directory, prints whether the two
reports are byte-identical, every case whose verdict changed, and the
largest absolute and relative shift of any reported float (relative to the
larger magnitude of the pair) or "no float moved", and each float that moved by more than 1e-12
relative with its two values, largest absolute shift first (at most 20
lines per suite); a case's rows are walked like its numbers. Differences
that are not numeric shifts (a missing key, a changed string) are counted
as structural. Exit code 1 if any verdict changed or a suite's JSON is
missing on one side; 2 if a directory is missing or neither holds a JSON
report, so that a comparison of nothing never passes; 0 otherwise.
"""

import argparse
import json
import pathlib
import sys

# A float that moves by more than this, relative, is listed with both values.
MOVED_REL = 1e-12
MOVED_LINES = 20


def _walk(a, b, path, out):
    """Accumulate numeric shifts and structural differences between a and b."""
    if isinstance(a, bool) or isinstance(b, bool):
        if a != b:
            out["structural"].append(path)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        shift = abs(a - b)
        scale = max(abs(a), abs(b))
        if shift > out["abs"][0]:
            out["abs"] = (shift, path)
        rel = shift / scale if scale else 0.0
        if rel > out["rel"][0]:
            out["rel"] = (rel, path)
        if rel > MOVED_REL:
            out["moved"].append((path, a, b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                _walk(a[key], b[key], f"{path}.{key}", out)
            else:
                out["structural"].append(f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out["structural"].append(f"{path}[len]")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out)
    elif a != b:
        out["structural"].append(path)


def compare_suite(path_a: pathlib.Path, path_b: pathlib.Path) -> dict:
    raw_a, raw_b = path_a.read_bytes(), path_b.read_bytes()
    doc_a, doc_b = json.loads(raw_a), json.loads(raw_b)
    for doc in (doc_a, doc_b):  # key cases by id so paths name them
        doc["cases"] = {c["id"]: c for c in doc["cases"]}
    verdicts_a = {cid: c["verdict"] for cid, c in doc_a["cases"].items()}
    verdicts_b = {cid: c["verdict"] for cid, c in doc_b["cases"].items()}
    changed = [
        (cid, verdicts_a.get(cid, "absent"), verdicts_b.get(cid, "absent"))
        for cid in sorted(set(verdicts_a) | set(verdicts_b))
        if verdicts_a.get(cid, "absent") != verdicts_b.get(cid, "absent")
    ]
    out = {"abs": (0.0, None), "rel": (0.0, None), "structural": [], "moved": []}
    _walk(doc_a, doc_b, "", out)
    return {"identical": raw_a == raw_b, "verdicts": changed, **out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir_a", type=pathlib.Path)
    parser.add_argument("dir_b", type=pathlib.Path)
    args = parser.parse_args(argv)

    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"io error: {d}: not a directory", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (args.dir_a, args.dir_b) for p in d.glob("*.json")})
    if not names:
        print(f"io error: no <suite>.json in {args.dir_a} or {args.dir_b}", file=sys.stderr)
        return 2
    bad = False
    overall = (0.0, None)
    for name in names:
        path_a, path_b = args.dir_a / name, args.dir_b / name
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: only in {args.dir_a if path_a.exists() else args.dir_b}")
            bad = True
            continue
        res = compare_suite(path_a, path_b)
        overall = max(overall, res["abs"], key=lambda x: x[0])
        if res["identical"]:
            print(f"{name}: byte-identical")
            continue
        shifts = "no float moved" if res["abs"][1] is None else (
            f"max abs shift {res['abs'][0]:.3g} at {res['abs'][1]}, "
            f"max rel shift {res['rel'][0]:.3g} at {res['rel'][1]}")
        print(f"{name}: differs; {shifts}")
        for cid, va, vb in res["verdicts"]:
            print(f"  verdict {cid}: {va} -> {vb}")
        moved = sorted(res["moved"], key=lambda m: -abs(m[1] - m[2]))
        for path, va, vb in moved[:MOVED_LINES]:
            print(f"  moved {path}: {va!r} -> {vb!r}")
        if len(res["moved"]) > MOVED_LINES:
            print(f"  and {len(res['moved']) - MOVED_LINES} more moved by over {MOVED_REL:g}")
        for path in res["structural"]:
            print(f"  structural difference at {path}")
        bad = bad or bool(res["verdicts"])
    print(f"largest absolute shift over all suites: {overall[0]:.3g}"
          + (f" at {overall[1]}" if overall[1] else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
