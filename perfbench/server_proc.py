"""The server process of the server-mixed workload.

    python3 perfbench/server_proc.py --seed 1 --scale 0.01 --trace 0

Generates TPC-H at skew 2 from the seed, starts a ``ReproServer`` with its
default configuration (thread backend) on an ephemeral port and prints one
JSON line ``{"port": ..., "setup_s": ...}``.  It then obeys one command per
line on standard input:

``trace on`` / ``trace off``
    install / remove the layer wrappers (only with ``--trace 1``, where
    they are also installed before data generation and server start);
``reset``
    forget the spans recorded so far;
``stop``
    stop the server and print one JSON line with the process's peak RSS
    and, when tracing, its per-layer totals and per-query boundary times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="file to write the spans to at stop")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench import inputs
    from perfbench.metrics import peak_rss_mb
    from perfbench.tracing import (
        Tracer, clock, install_layers, layer_metrics, query_marks,
    )

    tracer = Tracer()
    if args.trace:
        install_layers(tracer)
        tracer.enabled = True
    started = clock()
    from repro.server import ReproServer
    from repro.stats.manager import StatisticsManager
    from repro.workloads.tpch import generate_tpch

    db = generate_tpch(scale=args.scale, skew=inputs.SKEW, seed=args.seed,
                       build_statistics=False)
    StatisticsManager(db.catalog).analyze_all()
    server = ReproServer(db.catalog)
    server.start_background()
    setup_layers = layer_metrics(tracer)
    print(json.dumps({"port": server.port, "setup_s": clock() - started}),
          flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if args.trace and command == "trace on":
                install_layers(tracer)
                tracer.enabled = True
            elif args.trace and command == "trace off":
                tracer.uninstall()
            elif command == "reset":
                tracer.reset()
            print(json.dumps({"ok": command}), flush=True)
    finally:
        server.stop_background()
    report = {"rss_mb": peak_rss_mb()}
    if args.trace:
        tracer.enabled = False
        layers = layer_metrics(tracer)
        layers["stats.analyze_s"] = setup_layers["stats.analyze_s"]
        report["layers"] = layers
        report["marks"] = query_marks(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
