#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 perfbench/test_perfbench.py

For each workload in BENCHMARK.json, an untraced and a traced one-second run
at tiny sizes must
  - end with a JSON result whose keys are exactly correct/attempted/failed/
    metrics, with correct == true and failed == 0 (ops_failed_ratio == 0);
  - report exactly the metrics BENCHMARK.json names for that mode
    (end_to_end untraced, per_layer traced), each with its unit, and print
    each of them by name on a human-readable line;
  - print repair_traffic_ratio, which must be exactly 2 for (12,6,10,10).
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (cmd, out.returncode,
                                                   out.stderr[-2000:]))
    return out.stdout.strip().splitlines()


def check(workload, trace, spec):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], (list(got), wanted)
    human = "\n".join(lines[:-1])
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
        assert isinstance(got[m["name"]]["value"], (int, float)), m
        assert m["name"] in human, "not printed: " + m["name"]
    if not trace:
        ratio = next(l for l in lines if "repair_traffic_ratio" in l)
        assert float(ratio.split()[1]) == 2.0, ratio
        failed = next(l for l in lines if "ops_failed_ratio" in l)
        assert float(failed.split()[1]) == 0.0, failed
    else:
        assert "trace.overhead_pct" in got


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)
            print("ok  %s trace=%d" % (w["name"], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
