"""Span recording for the traced run, from outside the program.

The traced run times each layer by wrapping public functions of the
program, looked up by module and qualified name at install time.  A
name that no longer exists is reported as an absent layer instead of
failing the run, so refactors that delete or rename a function change
what the trace can see, never whether the benchmark runs.

Each wrapper records a span (name, start, end, depth) on a per-thread
stack.  A span's self time is its duration minus the time its child
spans on the same thread cover (``stats.self_time``); totals are kept
per ``(phase, name, parent)`` as the spans close, and the first spans
of each thread are also kept verbatim and written out when the run
ends.  While the tracer is disabled every wrapper is a pass-through.
"""

import importlib
import sys
import threading
import time

from stats import self_time

#: (span name, module, qualified name) of every layer boundary timed.
TARGETS = (
    ("dispatch.call", "repro.janus.api", "JanusFunction.__call__"),
    ("dispatch.signature", "repro.janus.cache", "GraphCache.signature_of"),
    ("dispatch.precheck", "repro.janus.compiled",
     "CompiledGraph.check_preconditions"),
    ("dispatch.bind", "repro.janus.compiled", "CompiledGraph.bind_feeds"),
    ("dispatch.repack", "repro.janus.compiled",
     "CompiledGraph.repack_outputs"),
    ("execute.run_flat", "repro.janus.compiled", "CompiledGraph.run_flat"),
    ("execute.lowered", "repro.graph.lowering", "LoweredExecutor.run"),
    ("execute.walk", "repro.graph.executor", "GraphExecutor.run"),
    ("imperative.run", "repro.janus.api", "JanusFunction._run_imperative"),
    ("imperative.profile", "repro.janus.profiler", "Profiler.profile_call"),
    ("compile.graphgen", "repro.janus.graphgen", "GraphGenerator.generate"),
    ("compile.passes", "repro.graph.passes", "PassManager.run"),
    ("compile.fuse", "repro.graph.lowering", "fuse_graph"),
    ("compile.lower", "repro.graph.lowering", "lower_executor"),
    ("compile.compile", "repro.janus.compiled", "compile_generated"),
    ("compile.fragment_lookup", "repro.janus.fragments",
     "FragmentCache.lookup"),
    ("compile.fragment_hit", "repro.janus.fragments", "FragmentCache.touch"),
    ("compile.fragment_miss", "repro.janus.fragments", "FragmentCache.miss"),
    ("diskcache.load", "repro.janus.diskcache", "DiskGraphStore.load"),
    ("diskcache.store", "repro.janus.diskcache", "DiskGraphStore.store"),
)

#: Where op kernels live and where fused kernels are generated.
REGISTRY = ("repro.ops.registry", "all_ops")
FUSED = ("repro.graph.lowering", "fused_kernel_opdef")

#: Raw spans kept per thread for the written-out trace.
RAW_SPANS_PER_THREAD = 20000


class _ThreadState:
    __slots__ = ("stack", "totals", "raw", "name")

    def __init__(self, name):
        #: One (name, start, child intervals) frame per open span.
        self.stack = []
        #: (phase, name, parent) -> [count, seconds, self_seconds, extra]
        self.totals = {}
        self.raw = []
        self.name = name


class Tracer:
    """Per-thread span stacks with online self-time totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.phase = "setup"
        self.installed = []
        self.absent = []
        #: (owner, attribute, original) of every patch, for uninstall.
        self._patches = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- recording ----------------------------------------------------------

    def enter(self, name):
        self._state().stack.append((name, self.clock(), []))

    def exit(self, on_exit=None, args=(), result=None):
        """Close the innermost span.

        ``on_exit(args, result)`` may return a number that is summed per
        span (bytes moved, hits, nodes).
        """
        end = self.clock()
        state = self._state()
        name, start, children = state.stack.pop()
        duration = end - start
        parent = state.stack[-1][0] if state.stack else None
        if state.stack:
            state.stack[-1][2].append((start, end))
        key = (self.phase, name, parent)
        total = state.totals.get(key)
        if total is None:
            total = state.totals[key] = [0, 0.0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += self_time(start, end, children)
        if on_exit is not None:
            total[3] += on_exit(args, result) or 0
        if len(state.raw) < RAW_SPANS_PER_THREAD:
            state.raw.append((name, start, end, len(state.stack)))

    def wrap(self, name, fn, on_exit=None):
        """*fn* timed as span *name* while the tracer is enabled."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(on_exit, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------

    def install(self, extra_targets=()):
        """Wrap every target that still exists; note the ones that don't."""
        for span, module_name, qualname in TARGETS + tuple(extra_targets):
            owner, attr, original = _lookup(module_name, qualname)
            if original is None:
                self.absent.append("%s (%s.%s)" % (span, module_name,
                                                   qualname))
                continue
            on_exit = _RESULT_TALLIES.get(span)
            wrapped = self.wrap(span, original, on_exit)
            self._patch(owner, attr, wrapped)
            if not isinstance(owner, type):
                # A module-level function: rebind it wherever the
                # package imported it by name too.
                for module in list(sys.modules.values()):
                    if module is not owner and getattr(
                            module, "__name__", "").startswith("repro") \
                            and getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)
            self.installed.append(span)
        self._install_kernels()

    def _install_kernels(self):
        _owner, _attr, all_ops = _lookup(*REGISTRY)
        if all_ops is None:
            self.absent.append("kernels (%s.%s)" % REGISTRY)
            return
        for op_name, op_def in all_ops().items():
            self._patch(op_def, "kernel", self.wrap(
                "kernels." + op_name, op_def.kernel, _kernel_bytes))
        self.installed.append("kernels")
        owner, attr, fused = _lookup(*FUSED)
        if fused is None:
            self.absent.append("kernels.fused (%s.%s)" % FUSED)
            return
        tracer = self

        def fused_opdef(*args, **kwargs):
            made = fused(*args, **kwargs)
            # The OpDef comes alone or first in a tuple.
            op_def = made[0] if isinstance(made, tuple) else made
            op_def.kernel = tracer.wrap("kernels.fused", op_def.kernel,
                                        _kernel_bytes)
            return made

        self._patch(owner, attr, fused_opdef)
        self.installed.append("kernels.fused")

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every original (kernels of fused ops built while
        installed stay wrapped)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------------

    def totals(self, phases, thread=None):
        """{(name, parent): [count, seconds, self_seconds, extra]},
        over every thread or only the one named *thread*."""
        merged = {}
        with self._lock:
            threads = [state for state in self._threads
                       if thread is None or state.name == thread]
        for state in threads:
            for (phase, name, parent), vals in list(state.totals.items()):
                if phase not in phases:
                    continue
                accumulate(merged, (name, parent), vals)
        return merged

    def raw_spans(self):
        with self._lock:
            threads = list(self._threads)
        return {state.name: state.raw for state in threads}


def by_name(totals):
    """Collapse ``(name, parent)`` totals onto span names."""
    out = {}
    for (name, _parent), vals in totals.items():
        accumulate(out, name, vals)
    return out


def accumulate(table, key, vals):
    """Add one ``[count, seconds, self_seconds, extra]`` row into
    ``table[key]``."""
    slot = table.setdefault(key, [0, 0.0, 0.0, 0.0])
    for i in range(4):
        slot[i] += vals[i]


def _lookup(module_name, qualname):
    """(owner, attribute, current value) or (None, None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None, None, None
    return owner, parts[-1], value


def _nbytes(value):
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return getattr(value, "nbytes", 0)


def _kernel_bytes(args, result):
    # Kernels take (attrs, *arrays): bytes read plus bytes written,
    # computed from array sizes, not measured traffic.
    return _nbytes(args[1:]) + _nbytes(result)


def _disk_hit(args, result):
    return 1 if result is not None else 0


def _stored_bytes(args, result):
    # DiskGraphStore.store(self, key, payload, ...)
    return len(args[2]) if result and len(args) > 2 else 0


def _compiled_nodes(args, result):
    return getattr(result, "node_count", 0)


def _returned_count(args, result):
    return result if isinstance(result, int) else 0


_RESULT_TALLIES = {
    "compile.fuse": _returned_count,
    "diskcache.load": _disk_hit,
    "diskcache.store": _stored_bytes,
    "compile.compile": _compiled_nodes,
}
