"""Run a workload on several seeds and report each end-to-end metric's
median and spread (inter-quartile distance over the median).

    python3 perfbench/stability.py --workload tpch-dense --seeds 1-10 \\
        --seconds 15

A metric is steady enough when its spread is below a third of the
``bound`` that ``BENCHMARK.json`` gives it (``setup_s`` excepted: its
spread is only reported).  Runs are sequential; each run's result line is
kept in ``.perfbench_out/stability-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    """Inter-quartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench_out",
                       "stability-%s.jsonl" % args.workload)
    values = {name: [] for name in bounds}
    ok = True
    with open(log, "w") as out:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            last = proc.stdout.strip().splitlines()[-1]
            out.write(last + "\n")
            line = json.loads(last)
            ok = ok and proc.returncode == 0 and line["correct"]
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print("seed %d: exit %d, correct %s" % (
                seed, proc.returncode, line["correct"]), flush=True)
    for name, bound in bounds.items():
        width = spread(values[name])
        verdict = ("" if name == "setup_s" else
                   "ok" if width < bound / 3 else
                   "WITHIN BOUND" if width <= bound else "TOO WIDE")
        print("%-20s median %-14.6g spread %.4f bound %.2f %s" % (
            name, statistics.median(values[name]), width, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
