#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

It runs each workload on a small population (the benchmark's neural config
trains one epoch), untraced and traced, and asserts that

  * the last line is the result object, with every end-to-end metric of
    BENCHMARK.json (untraced) or every per-layer metric (traced), each
    with the unit BENCHMARK.json gives it, and no failed item;
  * a reference file whose digest for the item does not match is counted
    as one failed item (`failed`, and `correct` false).

Takes about five minutes on 4 cores. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_DIR = os.path.join(HERE, ".build", "smoke")
TINY = ["--matchers", "40", "--seconds", "1", "--seed", "7"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--trace", str(trace)] + TINY + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
        raise AssertionError(f"{workload} trace={trace}: exit code {p.returncode}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), p.stdout


def check_metrics(workload, trace, result, stdout, bench):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == {w["name"] for w in wanted}, \
        f"{workload}: metric names differ from BENCHMARK.json"
    for w in wanted:
        got = result["metrics"][w["name"]]
        assert got["unit"] == w["unit"], f"{workload}: {w['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{workload}: {w['name']} not a number"
    if not trace:
        for w in wanted:
            assert f"[perfbench] metric {w['name']} = " in stdout, f"{workload}: no line for {w['name']}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result


def corrupt_reference(workload):
    """Writes a reference file whose digest for cycle 0 is wrong."""
    with open(os.path.join(HERE, ".build", "results", f"{workload}-seed7-trace0.json")) as fh:
        rec = json.load(fh)
    digest = rec["items"][0]["digest"]
    bad = ("0" if digest[0] != "0" else "1") + digest[1:]
    nn = rec["env"]["nn_config"]
    path = os.path.join(SMOKE_DIR, f"{workload}-corrupt.json")
    with open(path, "w") as fh:
        json.dump({"references": [{"workload": workload, "seed": 7, "matchers": 40,
                                   "nn_config": nn, "digests": [bad] * 5}]}, fh)
    return path


def main():
    os.makedirs(SMOKE_DIR, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            result, out = run(w, trace)
            check_metrics(w, trace, result, out, bench)
            print(f"ok: {w} trace={trace} prints every metric with its unit", flush=True)
        result, _ = run(w, 0, ["--references", corrupt_reference(w)])
        assert result["failed"] == result["attempted"] == 1 and not result["correct"], result
        print(f"ok: {w} counts a corrupted digest in failed", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
