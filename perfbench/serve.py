"""serve-open: an open loop of seeded Poisson arrivals into a Server.

Two endpoints share the traffic on a ``repro.serving.Server`` with its
default config: ``classify`` (LeNet forward, batchable, 1-4 rows per
request, so batch shapes vary) and ``sentiment`` (TreeRNN forward on a
parse tree, not batchable), half the requests each.  One generator
thread submits through the endpoints ``Server.register`` returns.  A
request's latency runs from when it was *due*, so a stalled generator
or server charges every request queued behind it, to when the endpoint
call that served it returned (the server's split of a batch result and
the hand-off to the waiting handle come after that and are not in it).

Completions are recorded without a collector thread: each endpoint
serves its queue in order, so the callable registered for it (a thin
wrapper around the janus function) walks the endpoint's accepted
requests in submission order and marks as many of them done as the
rows it was just called with, noting the input of the call each one
was charged to and the row it starts at.  The drain after each phase
checks that every accepted request was matched, and the output check
that each request's own input is at that place in that call's input,
so a server that completes requests out of that order fails the run
instead of skewing its latencies.

The run keeps as few objects as it can for the garbage collector to
scan: in its idle time before the next request is due, the generator
collects completed requests, keeps each response as an array and lets
go of the handle, and the inputs a request is charged to are arrays or
pool items.  Otherwise the benchmark's own records (some ten objects
per request in flight or done) would make each full collection, which
stalls every thread, grow with the run: 50-100 ms stalls were measured
on a 2-core host, enough to fill the endpoint queues at the high rate.

The window first alternates the fixed ``low`` and ``high`` rates in
one-second segments, then climbs a ladder of rising rates that stops at
the first rung missing the p99 limit, then measures the server's
capacity in a closed loop that keeps a fixed number of requests in
flight (see README.md for the rates and the reasons).
"""

import collections
import threading
import time

import numpy as np

import repro as R
from repro import data, janus, models
from repro.serving import Server, ServerOverloaded

from layers import execution_path
from stats import geomean, median, percentile

#: Offered rates (requests/s).  The saturation phase completes ~1800
#: req/s on a 2-core host.  LOW (~1/6 of that) keeps latency at dispatch
#: plus one short batch, so it moves with per-call overhead; HIGH (~1/3)
#: doubles the arrivals per batch, so more requests wait behind a
#: running batch and its tail moves with kernels and batching.
LOW_RPS = 300.0
HIGH_RPS = 600.0
#: The window is cut into equal units (one second each in a 20 s
#: window).  LOW and HIGH alternate one unit at a time, PAIRS of each,
#: so both see the same stretch of host time (over a thousand requests
#: each); the gated latencies are medians over their units.  Then come
#: LADDER_RUNGS rungs of one unit, each LADDER_STEP x the last (reaching
#: ~3x HIGH), and SATURATION_UNITS of the closed-loop saturation phase.
PAIRS = 5
LADDER_STEP, LADDER_RUNGS = 1.25, 5
SATURATION_UNITS = 5
UNITS = 2 * PAIRS + LADDER_RUNGS + SATURATION_UNITS
#: Requests the saturation phase keeps in flight at each endpoint: a
#: quarter of the default queue bound, so no request is rejected, and
#: the same at both, so each dispatcher always has work whatever the
#: other is doing.  Its rate is the median over SATURATION_SLICES slices.
SATURATION_PER_ENDPOINT = 16
SATURATION_SLICES = 10
#: p99 latency a rung must meet: about ten classify batches of the
#: largest size the default config forms (8 requests x 4 rows).
P99_LIMIT_MS = 100.0
#: Share of classify requests in the mix: an even split, which weights
#: neither endpoint's path over the other's.
CLASSIFY_SHARE = 0.5
#: Request pools: every seed gets the same mix of classify heights
#: (1-4 rows, a quarter each) and of tree sizes (3-9 leaves, 8 each).
CLASSIFY_ROWS = (1, 2, 3, 4)
TREE_LEAVES = range(3, 10)
POOL_SIZE = 56
#: A rung is abandoned once this many requests are outstanding: it has
#: missed the limit, and stopping keeps the endpoint queues (64 deep by
#: default) from rejecting requests.
ABORT_OUTSTANDING = 48
#: A rung's backlog grows when the mean outstanding count over its last
#: quarter exceeds GROWTH_FACTOR x that of its first quarter plus
#: GROWTH_SLACK requests.
GROWTH_FACTOR, GROWTH_SLACK = 2.0, 4.0
DRAIN_TIMEOUT_S = 10.0
#: Completed requests are collected while the next one is due no sooner
#: than this, so collecting never delays a send.
HARVEST_MARGIN_S = 0.0005
RTOL, ATOL = 1e-3, 1e-4


def ladder(seconds):
    """The open-loop phases of a window: lists of (label, offered rate,
    seconds) segments run back to back."""
    unit = seconds / UNITS
    phases = [[("low", LOW_RPS, unit), ("high", HIGH_RPS, unit)] * PAIRS]
    for i in range(1, LADDER_RUNGS + 1):
        phases.append([("rung%d" % i, HIGH_RPS * LADDER_STEP ** i, unit)])
    return phases


class _Request:
    __slots__ = ("endpoint", "index", "rows", "due", "sent", "started",
                 "done", "status", "handle", "result", "segment",
                 "outstanding", "call_arg", "call_row")

    def __init__(self, endpoint, index, rows, due):
        self.endpoint = endpoint
        self.index = index
        self.rows = rows
        self.due = due
        self.sent = None
        #: Start of the endpoint call that served it (traced run only).
        self.started = None
        self.done = None
        self.status = "pending"
        self.handle = None
        self.result = None
        self.segment = 0
        self.outstanding = 0
        #: Input of the endpoint call charged with it, and its first row
        #: there.
        self.call_arg = None
        self.call_row = 0


class _Completions:
    """One endpoint's accepted requests, in submission order, and how
    far its calls have served them."""

    def __init__(self):
        self.accepted = []
        self.served = 0
        #: Called once per completed request (the saturation phase's
        #: in-flight slots).
        self.on_done = None

    def serve(self, arg, rows, now, started=None):
        """Mark the next requests holding *rows* rows done at *now*, by
        a call on *arg* that *started* then."""
        taken = 0
        while taken < rows and self.served < len(self.accepted):
            req = self.accepted[self.served]
            self.served += 1
            req.started = started
            req.done = now
            req.call_arg = arg
            req.call_row = taken
            taken += req.rows
            if self.on_done is not None:
                self.on_done()


def _draw(rng, due, rows, endpoint=None):
    """A request for a seeded pool item, at *endpoint* or at one drawn
    by CLASSIFY_SHARE."""
    index = int(rng.integers(POOL_SIZE))
    if endpoint is None:
        endpoint = "classify" if rng.random() < CLASSIFY_SHARE \
            else "sentiment"
    return _Request(endpoint, index,
                    rows[index] if endpoint == "classify" else 1, due)


def _schedule(rng, rate, seconds, rows):
    """Seeded Poisson arrivals, each with an endpoint and a pool index."""
    reqs = []
    t = rng.exponential(1.0 / rate)
    while t < seconds:
        reqs.append(_draw(rng, t, rows))
        t += rng.exponential(1.0 / rate)
    return reqs


def _summarise(label, rate, seconds, sent, aborted):
    ok = [r for r in sent if r.status == "ok"]
    latencies = [(r.done - r.due) * 1e3 for r in ok]
    failed = len(sent) - len(ok)
    lags = [r.sent - r.due for r in sent]
    outstanding = [r.outstanding for r in sent]
    # Per-segment percentiles, over all requests and per endpoint: their
    # median is what a host stall over a fraction of the window cannot
    # move.
    segments = {}
    for r, ms in zip(ok, latencies):
        for group in ("all", r.endpoint):
            segments.setdefault((group, r.segment), []).append(ms)
    record = {
        "label": label, "offered_rps": rate, "seconds": seconds,
        "requests": len(sent), "aborted": aborted,
        "failed_or_rejected": failed,
        "achieved_rps": len(ok) / seconds,
        "generator_lag_ms_p99": percentile(lags, 99) * 1e3 if lags else 0.0,
        "outstanding_max": max(outstanding) if outstanding else 0,
        "backlog_growing": _growing(outstanding) if outstanding else False,
    }
    for q in (50, 90, 99):
        record["p%d_ms" % q] = percentile(latencies, q) if ok else None
    for q in (50, 90):
        per_group = {}
        for (group, _segment), seg in segments.items():
            per_group.setdefault(group, []).append(percentile(seg, q))
        record["segment_median_p%d_ms" % q] = {
            group: median(values) for group, values in per_group.items()}
    record["meets_limit"] = (failed == 0 and not aborted and ok != []
                             and record["p99_ms"] <= P99_LIMIT_MS
                             and not record["backlog_growing"])
    return record


def _array(value):
    return value.numpy() if hasattr(value, "numpy") else np.asarray(value)


def _growing(outstanding):
    quarter = max(1, len(outstanding) // 4)
    first = sum(outstanding[:quarter]) / quarter
    last = sum(outstanding[-quarter:]) / quarter
    return last > GROWTH_FACTOR * first + GROWTH_SLACK


class ServeWorkload:
    def __init__(self):
        self.tracer = None
        self.server = None
        self.fns = {}
        self.phases = []
        #: (start, end, rows) of every endpoint call in the traced window.
        self.endpoint_calls = {"classify": [], "sentiment": []}

    # -- set-up ---------------------------------------------------------------

    def setup(self, seed, outcome):
        self.seed = seed
        self.outcome = outcome
        lenet = models.lenet.LeNet(seed=seed)
        treernn = models.treernn.TreeRNN(seed=seed)

        @janus.function
        def classify(images):
            return lenet(images)

        @janus.function
        def sentiment(tree):
            return treernn(tree)

        rng = np.random.default_rng([seed, 7])
        images = data.mnist_like(n=256, batch_size=256, seed=seed).images
        heights = rng.permutation(
            np.resize(CLASSIFY_ROWS, POOL_SIZE)).tolist()
        trees = []
        per_size = POOL_SIZE // len(TREE_LEAVES)
        for leaves in TREE_LEAVES:
            trees += data.sst_like(n_trees=per_size, min_leaves=leaves,
                                   max_leaves=leaves,
                                   seed=seed * 16 + leaves)
        self.pools = {
            "classify": [np.ascontiguousarray(images[rng.choice(
                len(images), size=rows, replace=False)])
                for rows in heights],
            "sentiment": [trees[i] for i in rng.permutation(len(trees))],
        }
        self.rows = heights
        # Expected outputs: the imperative models on the same inputs.
        self.expected = {
            "classify": [lenet(R.constant(x)).numpy()
                         for x in self.pools["classify"]],
            "sentiment": [treernn(t).numpy()
                          for t in self.pools["sentiment"]],
        }
        # Cold start, then every batch height the server can form, so
        # the window runs on settled graphs.
        stacked = np.concatenate(self.pools["classify"] * 8)
        for rows in list(range(1, 8 * max(CLASSIFY_ROWS) + 1)) * 2:
            classify(stacked[:rows])
        for tree in self.pools["sentiment"][:8]:
            sentiment(tree)
        self.fns = {"classify": classify, "sentiment": sentiment}
        self.warm_stats = {k: f.cache_stats() for k, f in self.fns.items()}
        self.completions = {"classify": _Completions(),
                            "sentiment": _Completions()}
        self.server = Server()
        self.endpoints = {
            "classify": self.server.register(
                "classify", self._endpoint_fn("classify")),
            "sentiment": self.server.register(
                "sentiment", self._endpoint_fn("sentiment"),
                batchable=False),
        }

    def _endpoint_fn(self, name):
        """The callable registered for endpoint *name*: the janus
        function, recording completions, and timed in the traced run."""
        fn = self.fns[name]
        completions = self.completions[name]
        tracer = self.tracer
        calls = self.endpoint_calls[name]
        perf = time.perf_counter
        classify = name == "classify"

        def endpoint(arg):
            rows = len(arg) if classify else 1
            if tracer is None or not tracer.enabled:
                result = fn(arg)
                completions.serve(arg, rows, perf())
                return result
            start = perf()
            tracer.enter("serving.endpoint")
            try:
                result = fn(arg)
            finally:
                tracer.exit()
            end = perf()
            completions.serve(arg, rows, end, start)
            if tracer.phase == "window":
                calls.append((start, end, rows))
            return result

        return endpoint

    def teardown(self):
        if self.server is not None:
            self.server.close()
            self.server = None

    def stats(self):
        """``cache_stats()`` of every janus function."""
        return [fn.cache_stats() for fn in self.fns.values()]

    def probe(self):
        """Direct calls over a fixed slice of both pools."""
        for x in self.pools["classify"][:16]:
            self.fns["classify"](x)
        for tree in self.pools["sentiment"][:16]:
            self.fns["sentiment"](tree)

    # -- the open loop --------------------------------------------------------

    def _completed(self):
        return sum(c.served for c in self.completions.values())

    def _submit(self, req):
        """Submit *req*; returns whether the server accepted it."""
        completions = self.completions[req.endpoint]
        # Listed before submitting, so the endpoint can never serve a
        # request it has not been told about.
        completions.accepted.append(req)
        req.sent = time.perf_counter()
        self.outcome.attempted += 1
        try:
            req.handle = self.endpoints[req.endpoint].submit(
                (self.pools[req.endpoint][req.index],))
        except ServerOverloaded:
            completions.accepted.pop()
            req.status = "rejected"
            req.done = req.sent
            return False
        return True

    def _drain(self, label, reqs):
        """Wait for every accepted request and collect its outcome."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for req in reqs:
            if req.handle is None:
                continue
            if not req.handle.done.wait(max(0.0, deadline
                                            - time.perf_counter())):
                self.outcome.fail("%s: a %s request never completed"
                                  % (label, req.endpoint))
                req.status = "lost"
                continue
            self._collect(req)

    def _collect(self, req):
        """Record the outcome of a request whose handle has resolved, and
        let go of the handle."""
        handle, req.handle = req.handle, None
        if handle.error is not None:
            req.status = "error"
            req.result = repr(handle.error)
        elif req.done is None:
            self.outcome.fail("a %s request completed without an endpoint "
                              "call serving it" % req.endpoint)
            req.status = "unmatched"
        else:
            req.status = "ok"
            req.result = _array(handle.result)

    def _harvest_one(self, pending):
        """Collect the oldest request in *pending* if it has completed;
        returns whether it had."""
        if not pending or not pending[0].handle.done.is_set():
            return False
        self._collect(pending.popleft())
        return True

    def _run_open(self, segments, rng):
        """Run *segments* back to back in one open loop; returns a record
        per label."""
        reqs = []
        offset = 0.0
        for index, (_label, rate, seconds) in enumerate(segments):
            for req in _schedule(rng, rate, seconds, self.rows):
                req.due += offset
                req.segment = index
                reqs.append(req)
            offset += seconds
        perf = time.perf_counter
        sleep = time.sleep
        # Counted from the completions so far, which earlier phases left.
        accepted = self._completed()
        sent = []
        pending = collections.deque()
        t0 = perf() + 0.005
        for req in reqs:
            if accepted - self._completed() >= ABORT_OUTSTANDING:
                break
            sent.append(req)
            req.due += t0
            # Idle time before a request is due collects completed ones.
            while perf() < req.due - HARVEST_MARGIN_S \
                    and self._harvest_one(pending):
                pass
            wait = req.due - perf()
            if wait > 0:
                sleep(wait)
            if self._submit(req):
                accepted += 1
                pending.append(req)
            req.outstanding = accepted - self._completed()
        self._drain(segments[0][0], sent)
        records = {}
        for label in dict.fromkeys(seg[0] for seg in segments):
            indices = {i for i, seg in enumerate(segments) if seg[0] == label}
            mine = [r for r in reqs if r.segment in indices]
            mine_sent = [r for r in sent if r.segment in indices]
            record = _summarise(label, segments[min(indices)][1],
                                sum(segments[i][2] for i in indices),
                                mine_sent, aborted=len(mine_sent) < len(mine))
            self.phases.append((record, mine_sent))
            records[label] = record
        return records

    def _run_saturation(self, seconds, rng):
        """Closed loop with SATURATION_PER_ENDPOINT requests in flight at
        each endpoint: the completion rate is the server's capacity."""
        slots = {name: threading.Semaphore(SATURATION_PER_ENDPOINT)
                 for name in self.completions}
        freed = threading.Event()

        def releaser(slot):
            def release():
                slot.release()
                freed.set()
            return release

        for name, completions in self.completions.items():
            completions.on_done = releaser(slots[name])
        perf = time.perf_counter
        reqs = []
        pending = collections.deque()
        start = perf()
        end = start + seconds
        try:
            while perf() < end:
                # Cleared before the slots are tried, so a release
                # after the tries sets it again.
                freed.clear()
                submitted = False
                for name, slot in slots.items():
                    while slot.acquire(blocking=False):
                        req = _draw(rng, perf(), self.rows, name)
                        reqs.append(req)
                        submitted = True
                        if not self._submit(req):
                            slot.release()
                            break
                        pending.append(req)
                if not submitted and not self._harvest_one(pending):
                    freed.wait(max(0.0, end - perf()))
        finally:
            for completions in self.completions.values():
                completions.on_done = None
        self._drain("saturation", reqs)
        # The median over slices keeps one host stall from setting it.
        slices = [0] * SATURATION_SLICES
        width = seconds / SATURATION_SLICES
        for req in reqs:
            if req.status == "ok" and start <= req.done < end:
                slices[int((req.done - start) / width)] += 1
        phase = {"label": "saturation", "seconds": seconds,
                 "outstanding_per_endpoint": SATURATION_PER_ENDPOINT,
                 "requests": len(reqs),
                 "completed_rps": median(slices) / width,
                 "slice_rps": [n / width for n in slices],
                 "failed_or_rejected": sum(1 for r in reqs
                                           if r.status != "ok")}
        self.phases.append((phase, reqs))
        return phase

    def measure(self, seconds):
        self.phases = []
        start = time.perf_counter()
        for index, segments in enumerate(ladder(seconds)):
            rng = np.random.default_rng([self.seed, index])
            records = self._run_open(segments, rng)
            if not records[segments[-1][0]]["meets_limit"]:
                break
        self._run_saturation(seconds * SATURATION_UNITS / UNITS,
                             np.random.default_rng([self.seed, 99]))
        return time.perf_counter() - start

    # -- results --------------------------------------------------------------

    def check(self):
        for _phase, reqs in self.phases:
            for req in reqs:
                if req.status != "ok":
                    self.outcome.fail("%s request %s: %s" % (
                        req.endpoint, req.status, req.result))
                    continue
                got = req.result
                want = self.expected[req.endpoint][req.index]
                if got.shape != want.shape or not np.allclose(
                        got, want, rtol=RTOL, atol=ATOL):
                    self.outcome.fail("%s request on pool item %d: output "
                                      "differs from the imperative model"
                                      % (req.endpoint, req.index))
                    continue
                item = self.pools[req.endpoint][req.index]
                if req.endpoint == "classify":
                    charged = np.array_equal(item, req.call_arg[
                        req.call_row:req.call_row + req.rows])
                else:
                    charged = req.call_arg is item
                if not charged:
                    self.outcome.fail("%s request on pool item %d: served "
                                      "by another endpoint call than the "
                                      "one its latency ends at"
                                      % (req.endpoint, req.index))

    def results(self):
        phases = [phase for phase, _reqs in self.phases]
        rungs = [p for p in phases if p["label"] != "saturation"]
        saturation = phases[-1]
        low, high = rungs[0], rungs[1]
        passing = [r for r in rungs if r["meets_limit"]]
        max_rps = max(r["achieved_rps"] for r in passing) if passing \
            else 0.0
        named = {
            "serve_p50_ms.low": (low["p50_ms"], "ms"),
            "serve_p99_ms.low": (low["p99_ms"], "ms"),
            "serve_p50_ms.high": (high["p50_ms"], "ms"),
            "serve_p99_ms.high": (high["p99_ms"], "ms"),
            "serve_max_rps": (max_rps, "1/s"),
            "serve_saturation_rps": (saturation["completed_rps"], "1/s"),
        }
        headline = {
            "throughput_per_s": saturation["completed_rps"],
            # Half the requests are classify at ~3 ms and half sentiment
            # at under 1 ms, so a p50 over both falls in the gap between
            # them and jumps with the exact share; it is taken per
            # endpoint.  The p90 lies inside classify's latencies.
            "latency_p50_ms": geomean(
                [v for k, v in low["segment_median_p50_ms"].items()
                 if k != "all"]),
            "latency_p90_ms": high["segment_median_p90_ms"]["all"],
        }
        detail = {"phases": phases, "p99_limit_ms": P99_LIMIT_MS,
                  "classify_share": CLASSIFY_SHARE}
        return headline, named, detail

    def paths(self):
        return {name: execution_path(fn, self.warm_stats[name])
                for name, fn in self.fns.items()}

    def layer_extras(self, tracer, window_s):
        """serving.* and bench.* from the endpoint calls and the loop.

        A request's queue wait runs from the generator's submit to the
        start of the endpoint call that served it.
        """
        served = [req for _phase, reqs in self.phases for req in reqs
                  if req.status == "ok" and req.started is not None]
        waits = [(req.started - req.sent) * 1e3 for req in served]
        all_calls = [c for calls in self.endpoint_calls.values()
                     for c in calls]
        classify_rows = [rows for _s, _e, rows
                         in self.endpoint_calls["classify"]]
        rungs = [phase for phase, _reqs in self.phases
                 if phase["label"] != "saturation"]
        latency = sum(req.done - req.due for req in served)
        return {
            "serving.queue_wait_ms_p50": percentile(waits, 50)
            if waits else 0.0,
            "serving.queue_wait_ms_p99": percentile(waits, 99)
            if waits else 0.0,
            "serving.batches": len(all_calls),
            "serving.batch_rows_mean": sum(classify_rows)
            / max(1, len(classify_rows)),
            "serving.endpoint_ms_per_batch": sum(
                e - s for s, e, _r in all_calls) * 1e3
            / max(1, len(all_calls)),
            "serving.rejected": sum(1 for _phase, reqs in self.phases
                                    for r in reqs
                                    if r.status == "rejected"),
            "bench.generator_lag_ms_p99": max(
                r["generator_lag_ms_p99"] for r in rungs),
            "bench.outstanding_max": max(r["outstanding_max"]
                                         for r in rungs),
            # Latency runs from due to the end of the serving call; what
            # queue wait and that call do not cover is generator lag.
            "bench.unattributed_share": sum(
                req.sent - req.due for req in served) / latency
            if latency else 0.0,
        }
