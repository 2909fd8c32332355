"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-cnn --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the program's layer boundaries (``spans.py``) and
reports the per-layer metrics (``layers.py``).  The last line of
standard output is the result object; lines before it name every
metric with its unit, the host shape and the execution path each model
took.  The full record, spans included, is written under
``.perfbench/`` in the repository root.  The exit code is 1 when any
operation failed or returned a wrong output.

``setup_s`` is what a user's process pays before its first timed
operation: imports plus one set-up, in a fresh process.  The untraced
run takes it from itself and from SETUP_SAMPLES - 1 more fresh
processes that only import and set up (``--setup-only``), and reports
the median, so every sample includes the costs only a process's first
set-up pays (cold code and AST caches, first compiles).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from stats import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh processes timed per untraced run (this one included);
#: ``setup_s`` is the median of their imports-plus-set-up times.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
#: Untraced/traced alternations of the trace-overhead probe.
OVERHEAD_ROUNDS = 4

WORKLOADS = ("train-cnn", "train-dynamic", "serve-open", "compile-churn")

#: Units of the end-to-end metrics every workload reports (README.md
#: maps each onto the workload's own operation).
HEADLINE_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


class Outcome:
    """Operations attempted and failed, with the first failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def fail(self, detail):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = detail
            print("MISMATCH: %s" % detail, flush=True)


def _import_program():
    """Import the program from this checkout's ``src``, nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit("perfbench: no program at %s" % SRC)
    sys.path.insert(0, SRC)
    import repro
    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if origin != os.path.join(SRC, "repro"):
        raise SystemExit("perfbench: imported repro from %s" % origin)
    # Import every layer the trace may wrap before anything is built.
    import repro.janus  # noqa: F401
    import repro.graph.lowering  # noqa: F401
    import repro.models  # noqa: F401
    import repro.serving  # noqa: F401


def _make_workload(name):
    if name == "train-cnn":
        from models import CNN_MODELS
        from train import TrainWorkload
        return TrainWorkload(CNN_MODELS)
    if name == "train-dynamic":
        from models import DYNAMIC_MODELS
        from train import TrainWorkload
        return TrainWorkload(DYNAMIC_MODELS)
    if name == "serve-open":
        from serve import ServeWorkload
        return ServeWorkload()
    from churn import ChurnWorkload
    return ChurnWorkload(OUT_DIR)


def blas_record():
    """BLAS library and its thread count, as this process runs it."""
    import ctypes
    import glob
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def host_record():
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "janus_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("JANUS_")},
    }


def _set_up(workload, seed, outcome):
    start = time.perf_counter()
    workload.setup(seed, outcome)
    return time.perf_counter() - start


def _fresh_set_ups(args, outcome):
    """Imports-plus-set-up seconds of SETUP_SAMPLES - 1 fresh processes,
    run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        outcome.attempted += 1
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            outcome.fail("set-up process exited %d: %s" % (
                proc.returncode, (proc.stdout + proc.stderr)[-2000:]))
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _trace_overhead(workload, tracer):
    """Traced over untraced wall time of one fixed chunk of work.

    Its spans go to a phase of their own, which no metric reads.
    """
    tracer.phase = "probe"
    timings = {False: [], True: []}
    for round_ in range(OVERHEAD_ROUNDS):
        for enabled in (round_ % 2 == 1, round_ % 2 == 0):
            tracer.enabled = enabled
            start = time.perf_counter()
            workload.probe()
            timings[enabled].append(time.perf_counter() - start)
    tracer.enabled = True
    return median(timings[True]) / median(timings[False])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up once, print the seconds "
                        "that took, and exit")
    args = parser.parse_args(argv)

    _import_program()
    import_s = time.perf_counter() - _T0

    if args.setup_only:
        outcome = Outcome()
        workload = _make_workload(args.workload)
        try:
            setup_s = import_s + _set_up(workload, args.seed, outcome)
        finally:
            workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0 if outcome.failed == 0 else 1

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    outcome = Outcome()
    workload = _make_workload(args.workload)
    workload.tracer = tracer
    try:
        setups = [import_s + _set_up(workload, args.seed, outcome)]
        overhead = _trace_overhead(workload, tracer) if tracer else None
        before = workload.stats()
        if tracer:
            tracer.phase = "window"
        window_s = workload.measure(args.seconds)
        if tracer:
            tracer.phase = "after"
        after = workload.stats()
        workload.check()
        headline, named, detail = workload.results()
        paths = workload.paths()
        layer_detail = None
        if tracer:
            import layers
            before += [{}] * (len(after) - len(before))
            per_layer, layer_detail = layers.compute(
                tracer, before, after,
                sum(path["bailouts"] for path in paths.values()),
                extra=workload.layer_extras(tracer, window_s),
                disk=getattr(workload, "worker_disk_totals", None))
            per_layer["bench.trace_overhead"] = overhead
            layer_detail["absent_layers"] = tracer.absent
    finally:
        workload.teardown()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tracer:
        setups += _fresh_set_ups(args, outcome)
    headline["setup_s"] = median(setups)
    headline["peak_rss_mb"] = peak_rss_mb
    named["setup_s"] = (headline["setup_s"], "s")
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["error_rate"] = (outcome.failed / max(1, outcome.attempted),
                           "ratio")

    if tracer:
        from layers import UNITS
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": headline[k], "unit": unit}
                   for k, unit in HEADLINE_UNITS.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_record(), "paths": paths,
        "setup_samples_s": setups, "import_s": import_s,
        "window_s": window_s,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "detail": detail, "metrics": metrics,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "first_failure": outcome.first_failure,
    }
    if tracer:
        record["layers"] = layer_detail
        record["kernels_bytes_note"] = (
            "kernels.bytes_per_step is computed from the sizes of each "
            "kernel's input and output arrays, not measured traffic")
        record["spans"] = tracer.raw_spans()
    _write_record(record)

    for name, (value, unit) in sorted(named.items()):
        print("%-28s %14.4f %s" % (name, value, unit))
    print("host %s" % json.dumps(record["host"], sort_keys=True))
    for name, path in sorted(paths.items()):
        print("path %-10s %s" % (name, json.dumps(path, sort_keys=True)))
    if tracer:
        print("top kernels %s; absent layers %s"
              % (layer_detail["kernel_top_ops"], tracer.absent or "none"))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def _write_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
        record["workload"], record["seed"], record["trace"]))
    with open(path, "w") as fh:
        json.dump(record, fh, default=str)


if __name__ == "__main__":
    sys.exit(main())
