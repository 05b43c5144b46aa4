#!/usr/bin/env python3
"""Appends perfbench rows to the committed perf trajectory.

    python3 tools/bench_trajectory.py RUNS_DIR \\
        --commit parent=<sha> --commit change=<sha or description> \\
        [--note change="what the change did"] [--out BENCH_perfbench.json]

RUNS_DIR holds the JSON result lines of perfbench runs, as run.py prints
them last on stdout, one line per run, in files named

    <label>.<workload>.seed<N>[.trace1].jsonl

(the command each file's runs used is `python3 perfbench/run.py --workload
<workload> --seed <N> --seconds 20`, plus `--trace 1` for a .trace1 file).
For each label given by --commit, in that order, one row is appended to
the output (created when missing): the commit, this host's CPU model,
vCPU count and kernel ISA extensions, and per workload, seed and trace
setting the command and every metric's median
and quartiles over the runs, plus the per-run values and how many runs
were correct.  Rows already in the file are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FILE_NAME = re.compile(
    r"^(?P<label>[\w-]+)\.(?P<workload>\w+)\.seed(?P<seed>\d+)"
    r"(?:\.trace(?P<trace>\d+))?\.jsonl$")
SECONDS = 20


# The instruction-set extensions the GF and CRC kernels dispatch on.
KERNEL_ISA = ("avx2", "avx512f", "gfni", "pclmulqdq", "vpclmulqdq")


def host() -> dict:
    cpu, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "isa": [f for f in KERNEL_ISA if f in flags]}


def command(workload: str, seed: int, trace: int) -> str:
    cmd = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
           f"--seconds {SECONDS}")
    return cmd + (f" --trace {trace}" if trace else "")


def significant(x: float) -> float:
    """x to the 9 significant digits perfbench prints."""
    return float(f"{x:.9g}")


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and per-run values of every metric of the runs."""
    names: list[str] = []
    for r in results:
        names += [n for n in r["metrics"] if n not in names]
    metrics = {}
    for name in names:
        runs = [r["metrics"][name] for r in results if name in r["metrics"]]
        values = [m["value"] for m in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else (values[0],) * 3)
        metrics[name] = {
            "unit": runs[0]["unit"],
            "median": significant(statistics.median(values)),
            "q1": significant(q1),
            "q3": significant(q3),
            "values": values,
        }
    return {
        "runs": len(results),
        "correct_runs": sum(1 for r in results if r["correct"]),
        "failed_ops": sum(r["failed"] for r in results),
        "attempted_ops": sum(r["attempted"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", type=Path)
    ap.add_argument("--commit", action="append", default=[],
                    metavar="LABEL=COMMIT", required=True)
    ap.add_argument("--note", action="append", default=[],
                    metavar="LABEL=TEXT")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_perfbench.json")
    args = ap.parse_args()

    def pairs(items: list[str]) -> dict[str, str]:
        out = {}
        for item in items:
            label, sep, value = item.partition("=")
            if not sep:
                sys.exit(f"bench_trajectory: expected LABEL=VALUE, got {item!r}")
            out[label] = value
        return out

    commits, notes = pairs(args.commit), pairs(args.note)
    groups: dict[str, list[tuple[str, int, int, list[dict]]]] = {}
    for path in sorted(args.runs.iterdir()):
        m = FILE_NAME.match(path.name)
        if not m or m["label"] not in commits:
            continue
        results = [json.loads(line) for line in path.read_text().splitlines()
                   if line.strip()]
        if results:
            groups.setdefault(m["label"], []).append(
                (m["workload"], int(m["seed"]), int(m["trace"] or 0), results))

    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"benchmark": "perfbench", "rows": []})
    for label, commit in commits.items():
        if label not in groups:
            sys.exit(f"bench_trajectory: no runs for label {label!r} in "
                     f"{args.runs}")
        row = {"label": label, "commit": commit, "host": host()}
        if label in notes:
            row["note"] = notes[label]
        row["results"] = [
            {"workload": w, "seed": s, "trace": t,
             "command": command(w, s, t), **summarize(results)}
            for w, s, t, results in groups[label]]
        doc["rows"].append(row)
    # One line per list of numbers: a metric's runs read across.
    text = re.sub(r"\[\s*([-+0-9.eE,\s]+?)\s*\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m[1].split(","))
                  + "]", json.dumps(doc, indent=1))
    args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
