"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-dense --seed 1 --seconds 15 \\
        --trace 0

Workloads: ``tpch-dense`` and ``server-mixed`` (see
``BENCHMARK.json`` for why each exists).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that reports per-layer metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any correctness check failed.

The program is imported from ``src/`` of the checkout this file sits in;
the run stops with exit code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: spans of traced runs are written here (inside the checkout)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("tpch-dense", "server-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: tiny data, one set-up")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    sys.stdout.flush()
    if args.workload == "server-mixed":
        from perfbench import server

        output = server.run(args.seed, args.seconds, bool(args.trace),
                            tiny=args.tiny, out_dir=OUT_DIR)
    else:
        from perfbench import tpch

        output = tpch.run(args.seed, args.seconds, bool(args.trace),
                          scale=0.002 if args.tiny else tpch.SCALE,
                          setups=1 if args.tiny else tpch.SETUPS,
                          out_dir=OUT_DIR)
    print(json.dumps(output))
    return 0 if output["correct"] and output["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
