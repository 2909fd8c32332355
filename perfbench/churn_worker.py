"""Warm-start worker of compile-churn, run in a fresh process.

Usage::

    python3 perfbench/churn_worker.py --cache-dir DIR --seed N [--trace 1]

Calls each function of ``churn_fns.ORDER`` on its seeded inputs with
the disk cache at DIR until the call runs as a graph, and prints one
JSON line: per function, the time from its first call to that graph
run (measured in here, so interpreter start-up is not part of it), the
warm starts it took and its output; with ``--trace 1`` also the
diskcache span totals.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro import janus
    import churn_fns
    from layers import until_graph

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        tracer.phase = "window"
    config = janus.JanusConfig(cache_dir=args.cache_dir)
    out = {"functions": {}}
    for name in churn_fns.ORDER:
        feeds = churn_fns.inputs(name, args.seed)
        fn = janus.function(churn_fns.FUNCTIONS[name], config=config)
        start = time.perf_counter()
        result, _ran = until_graph(fn, lambda: fn(*feeds))
        elapsed = time.perf_counter() - start
        out["functions"][name] = {
            "first_graph_ms": elapsed * 1e3,
            "graph_runs": fn.stats["graph_runs"],
            "warm_starts": fn.stats["warm_starts"],
            "output": result.numpy().tolist(),
        }
    if tracer:
        from spans import by_name
        totals = by_name(tracer.totals({"window"}))
        out["spans"] = {k: v for k, v in totals.items()
                        if k.startswith("diskcache.")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
