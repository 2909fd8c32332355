"""Per-layer metrics of the traced run, named after the program's modules.

Window metrics (dispatch, execute, kernels, imperative, serving) cover
the measured window only; compile and diskcache cover set-up and window
together, because the training and serving workloads compile only in
set-up.  A layer whose functions are absent, or that did no work in a
workload, reports 0.
"""

from spans import accumulate, by_name

#: Calls a fresh janus function may take before one must run as a graph.
MAX_COLD_CALLS = 20

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("dispatch.calls", "count", "higher"),
    ("dispatch.self_us", "us", "lower"),
    ("dispatch.signature_us", "us", "lower"),
    ("dispatch.precheck_us", "us", "lower"),
    ("dispatch.bind_us", "us", "lower"),
    ("dispatch.repack_us", "us", "lower"),
    ("dispatch.graph_run_ratio", "ratio", "higher"),
    ("dispatch.cache_hit_ratio", "ratio", "higher"),
    ("dispatch.fallbacks", "count", "lower"),
    ("dispatch.stampede_fallbacks", "count", "lower"),
    ("dispatch.post_warmup_compiles", "count", "lower"),
    ("execute.run_us", "us", "lower"),
    ("execute.self_us", "us", "lower"),
    ("execute.lowered_share", "ratio", "higher"),
    ("execute.nested_runs_per_call", "count", "lower"),
    ("execute.bailouts", "count", "lower"),
    ("kernels.calls_per_step", "count", "lower"),
    ("kernels.ms_per_step", "ms", "lower"),
    ("kernels.bytes_per_step", "bytes", "lower"),
    ("kernels.top1.ms", "ms", "lower"),
    ("kernels.top2.ms", "ms", "lower"),
    ("kernels.top3.ms", "ms", "lower"),
    ("kernels.top4.ms", "ms", "lower"),
    ("kernels.top5.ms", "ms", "lower"),
    ("imperative.runs", "count", "lower"),
    ("imperative.ms_per_run", "ms", "lower"),
    ("compile.graphs", "count", "lower"),
    ("compile.graphgen_ms", "ms", "lower"),
    ("compile.passes_ms", "ms", "lower"),
    ("compile.fuse_ms", "ms", "lower"),
    ("compile.lower_ms", "ms", "lower"),
    ("compile.total_ms", "ms", "lower"),
    ("compile.nodes", "count", "lower"),
    ("compile.fused_ops", "count", "higher"),
    ("compile.fragment_hit_ratio", "ratio", "higher"),
    ("diskcache.load_ms", "ms", "lower"),
    ("diskcache.store_ms", "ms", "lower"),
    ("diskcache.hit_ratio", "ratio", "higher"),
    ("diskcache.bytes", "bytes", "lower"),
    ("serving.queue_wait_ms_p50", "ms", "lower"),
    ("serving.queue_wait_ms_p99", "ms", "lower"),
    ("serving.batches", "count", "higher"),
    ("serving.batch_rows_mean", "count", "higher"),
    ("serving.endpoint_ms_per_batch", "ms", "lower"),
    ("serving.rejected", "count", "lower"),
    ("bench.generator_lag_ms_p99", "ms", "lower"),
    ("bench.outstanding_max", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def _stat_delta(before, after, key):
    return sum(a.get(key, 0) - b.get(key, 0) for b, a in zip(before, after))


def compute(tracer, stats_before, stats_after, bailouts, extra=None,
            disk=None):
    """Every PER_LAYER metric from the tracer's totals.

    *stats_before*/*stats_after* are ``cache_stats()`` of the workload's
    janus functions at the window's edges, *bailouts* how many of its
    graphs have a ``lowering_bailout``, *extra* the workload's own
    serving/bench numbers, *disk* diskcache totals merged in from worker
    processes.
    """
    win_pairs = tracer.totals({"window"})
    win = by_name(win_pairs)
    run = by_name(tracer.totals({"setup", "window"}))
    for name, vals in (disk or {}).items():
        accumulate(run, name, vals)
    zero = [0, 0.0, 0.0, 0.0]

    def count(table, name):
        return table.get(name, zero)[0]

    def per_call_us(name):
        c, total, _s, _x = win.get(name, zero)
        return _ratio(total, c) * 1e6

    out = {}
    calls = count(win, "dispatch.call")
    steps = sum(vals[0] for (name, parent), vals in win_pairs.items()
                if name == "dispatch.call" and parent != "dispatch.call")
    out["dispatch.calls"] = calls
    out["dispatch.self_us"] = _ratio(win.get("dispatch.call", zero)[2],
                                     calls) * 1e6
    for short in ("signature", "precheck", "bind", "repack"):
        out["dispatch.%s_us" % short] = per_call_us("dispatch." + short)
    delta = lambda key: _stat_delta(stats_before, stats_after, key)
    out["dispatch.graph_run_ratio"] = _ratio(delta("graph_runs"),
                                             delta("calls"))
    out["dispatch.cache_hit_ratio"] = _ratio(
        delta("hits"), delta("hits") + delta("misses"))
    out["dispatch.fallbacks"] = delta("fallbacks")
    out["dispatch.stampede_fallbacks"] = delta("stampede_fallbacks")
    out["dispatch.post_warmup_compiles"] = delta("graphs_generated")

    runs = count(win, "execute.run_flat")
    out["execute.run_us"] = per_call_us("execute.run_flat")
    exec_self = sum(win.get(n, zero)[2] for n in (
        "execute.run_flat", "execute.lowered", "execute.walk"))
    out["execute.self_us"] = _ratio(exec_self, runs) * 1e6
    top_lowered = win_pairs.get(("execute.lowered", "execute.run_flat"),
                                zero)[0]
    top_walked = win_pairs.get(("execute.walk", "execute.run_flat"),
                               zero)[0]
    nested = count(win, "execute.lowered") + count(win, "execute.walk") \
        - top_lowered - top_walked
    out["execute.lowered_share"] = _ratio(top_lowered, runs)
    out["execute.nested_runs_per_call"] = _ratio(nested, runs)
    out["execute.bailouts"] = bailouts

    kernels = {name[len("kernels."):]: vals for name, vals in win.items()
               if name.startswith("kernels.")}
    out["kernels.calls_per_step"] = _ratio(
        sum(v[0] for v in kernels.values()), steps)
    out["kernels.ms_per_step"] = _ratio(
        sum(v[2] for v in kernels.values()), steps) * 1e3
    out["kernels.bytes_per_step"] = _ratio(
        sum(v[3] for v in kernels.values()), steps)
    ranked = sorted(kernels.items(), key=lambda kv: -kv[1][2])
    top_ops = []
    for rank in range(5):
        if rank < len(ranked):
            op, vals = ranked[rank]
            top_ops.append(op)
            out["kernels.top%d.ms" % (rank + 1)] = _ratio(vals[2],
                                                          steps) * 1e3
        else:
            out["kernels.top%d.ms" % (rank + 1)] = 0.0

    imp = win.get("imperative.run", zero)
    out["imperative.runs"] = imp[0]
    out["imperative.ms_per_run"] = _ratio(imp[1], imp[0]) * 1e3

    graphs_compiled = count(run, "compile.compile")

    def per_graph_ms(name, field=2):
        return _ratio(run.get(name, zero)[field], graphs_compiled) * 1e3

    out["compile.graphs"] = graphs_compiled
    out["compile.graphgen_ms"] = per_graph_ms("compile.graphgen")
    out["compile.passes_ms"] = per_graph_ms("compile.passes")
    out["compile.fuse_ms"] = per_graph_ms("compile.fuse")
    out["compile.lower_ms"] = per_graph_ms("compile.lower")
    out["compile.total_ms"] = per_graph_ms("compile.graphgen", 1) \
        + per_graph_ms("compile.compile", 1)
    out["compile.nodes"] = _ratio(run.get("compile.compile", zero)[3],
                                  graphs_compiled)
    out["compile.fused_ops"] = _ratio(run.get("compile.fuse", zero)[3],
                                      graphs_compiled)
    hits = count(run, "compile.fragment_hit")
    out["compile.fragment_hit_ratio"] = _ratio(
        hits, hits + count(run, "compile.fragment_miss"))

    load = run.get("diskcache.load", zero)
    store = run.get("diskcache.store", zero)
    out["diskcache.load_ms"] = _ratio(load[1], load[0]) * 1e3
    out["diskcache.store_ms"] = _ratio(store[1], store[0]) * 1e3
    out["diskcache.hit_ratio"] = _ratio(load[3], load[0])
    out["diskcache.bytes"] = store[3]

    for name, _unit, _better in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra or {})
    return out, {"kernel_top_ops": top_ops, "window_steps": steps}


def execution_path(fn, warm_stats=None):
    """Which path a janus function's graphs took, for the run record:
    graphs, how many were lowered, why the others were not, fallbacks,
    and graphs generated after *warm_stats* was taken."""
    stats = fn.cache_stats()
    graphs = [entry.compiled for _sig, entry in fn.cache.entries()]
    path = {
        "graphs": len(graphs),
        "lowered": sum(1 for c in graphs if c.lowered is not None),
        "bailouts": sum(1 for c in graphs if c.lowering_bailout),
        "lowering_bailouts": sorted({c.lowering_bailout for c in graphs
                                     if c.lowering_bailout}),
        "fallbacks": stats["fallbacks"],
    }
    if warm_stats is not None:
        path["graphs_after_warmup"] = stats["graphs_generated"] \
            - warm_stats["graphs_generated"]
    return path


def until_graph(fn, call):
    """Call ``call()`` until janus function *fn* runs a graph, at most
    MAX_COLD_CALLS times; returns the last result and whether it did."""
    runs = fn.stats["graph_runs"]
    result = None
    for _ in range(MAX_COLD_CALLS):
        result = call()
        if fn.stats["graph_runs"] > runs:
            return result, True
    return result, False


def unattributed_share(tracer, wall_seconds, thread="MainThread"):
    """Share of *thread*'s wall time in the window outside its
    top-level spans."""
    covered = sum(vals[1] for (name, parent), vals
                  in tracer.totals({"window"}, thread).items()
                  if parent is None)
    return max(0.0, 1.0 - _ratio(covered, wall_seconds))
