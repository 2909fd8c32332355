"""train-cnn and train-dynamic: steady-state JANUS training.

Each model gets a fresh ``janus.function`` training step at the default
``JanusConfig``.  Set-up runs every step until its first graph run and
two more (cold start plus settling); the measured window then goes
round-robin over the models in timed blocks, with the garbage collector
left on as users run it.  Losses of the first steps are checked against
an imperative replay of the same seeded steps after the window.
"""

import math
import time

import numpy as np

import repro as R
from repro import janus

from layers import (MAX_COLD_CALLS, execution_path, unattributed_share,
                    until_graph)
from models import SPECS, make_optimizer
from stats import geomean, median, percentile

#: Steps compared against the imperative replay, per model.
REPLAY_STEPS = 8
#: Tolerance of the replay comparison (tests/test_models.py uses it).
RTOL, ATOL = 1e-3, 1e-4
#: Target length of one timed block of one model.
BLOCK_SECONDS = 0.25
#: Step-time percentile reported as the tail: with ~100 steps per model
#: in a 20 s window, p90 is the highest with ten samples beyond it.
TAIL_Q = 90


def loss_value(out):
    target = out[0] if isinstance(out, (tuple, list)) else out
    return float(np.asarray(target.numpy() if hasattr(target, "numpy")
                            else target))


def check_losses(spec, seed, batches, losses, outcome, label):
    """Replay *batches* imperatively on a model built from *seed* and
    compare each loss with the JANUS loss recorded for it."""
    model, loss_fn = spec.build(seed)
    optimizer = make_optimizer(spec)
    for i, (batch, expected) in enumerate(zip(batches, losses)):
        args = [R.constant(a) if isinstance(a, np.ndarray) else a
                for a in batch]
        with R.GradientTape() as tape:
            out = loss_fn(*args)
        target = out[0] if isinstance(out, (tuple, list)) else out
        variables = model.trainable_variables
        grads = tape.gradient(target, variables)
        optimizer.apply_gradients(
            [(g, v) for g, v in zip(grads, variables) if g is not None])
        got = loss_value(out)
        if expected is None or not np.isclose(expected, got, rtol=RTOL,
                                              atol=ATOL):
            outcome.fail("%s step %d: janus loss %s, imperative %.6g"
                         % (label, i + 1, expected, got))


class ModelRun:
    """One model's JANUS step, its batch cycle and its recorded losses."""

    def __init__(self, spec, seed, outcome):
        self.spec = spec
        self.seed = seed
        self.outcome = outcome
        self.batches = spec.batches(seed)
        self.model, loss_fn = spec.build(seed)
        self.step = janus.function(loss_fn, optimizer=make_optimizer(spec))
        self.calls = 0
        self.losses = []
        self.step_times = []
        #: items/s of every timed block.
        self.block_rates = []
        self.first_graph_ms = None
        self.warm_stats = None

    def run_once(self):
        batch = self.batches[self.calls % len(self.batches)]
        self.calls += 1
        self.outcome.attempted += 1
        try:
            loss = loss_value(self.step(*batch))
        except Exception as exc:   # counted, reported, run continues
            self.outcome.fail("%s step %d raised %r"
                              % (self.spec.name, self.calls, exc))
            return batch, None
        if not math.isfinite(loss):
            self.outcome.fail("%s step %d loss %r"
                              % (self.spec.name, self.calls, loss))
        if len(self.losses) < REPLAY_STEPS:
            self.losses.append(loss)
        return batch, loss

    def warm_up(self):
        start = time.perf_counter()
        if not until_graph(self.step, self.run_once)[1]:
            self.outcome.fail("%s never ran as a graph in %d calls"
                              % (self.spec.name, MAX_COLD_CALLS))
        self.first_graph_ms = (time.perf_counter() - start) * 1e3
        for _ in range(2):
            self.run_once()
        self.warm_stats = self.step.cache_stats()

    def timed_block(self, seconds):
        perf = time.perf_counter
        items = 0
        busy = 0.0
        deadline = perf() + seconds
        while True:
            start = perf()
            batch, _loss = self.run_once()
            took = perf() - start
            self.step_times.append(took)
            busy += took
            items += self.spec.items(batch)
            if perf() >= deadline:
                self.block_rates.append(items / busy)
                return

    def replay(self):
        """Imperative steps from the same seed; compare the losses."""
        batches = [self.batches[i % len(self.batches)]
                   for i in range(len(self.losses))]
        check_losses(self.spec, self.seed, batches, self.losses,
                     self.outcome, self.spec.name)


class TrainWorkload:
    """A set of models trained round-robin."""

    def __init__(self, names):
        self.names = names
        self.runs = []

    def setup(self, seed, outcome):
        runs = [ModelRun(SPECS[name], seed, outcome) for name in self.names]
        for run in runs:
            run.warm_up()
        self.runs = runs

    def stats(self):
        """``cache_stats()`` of every janus function."""
        return [run.step.cache_stats() for run in self.runs]

    def probe(self):
        """A fixed chunk of work: four steps of every model."""
        for run in self.runs:
            for _ in range(4):
                run.run_once()

    def measure(self, seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for run in self.runs:
                run.timed_block(BLOCK_SECONDS)
        return time.perf_counter() - start

    def check(self):
        for run in self.runs:
            run.replay()

    def results(self):
        per_model = {}
        for run in self.runs:
            per_model[run.spec.name] = {
                "items_per_s": median(run.block_rates),
                "unit": run.spec.unit + "/s",
                "steps": len(run.step_times),
                "step_ms_p50": percentile(run.step_times, 50) * 1e3,
                "step_ms_p%d" % TAIL_Q:
                    percentile(run.step_times, TAIL_Q) * 1e3,
                "first_graph_ms": run.first_graph_ms,
            }
        rows = per_model.values()
        named = {
            "train_items_per_s": (geomean([r["items_per_s"] for r in rows]),
                                  "1/s"),
        }
        headline = {
            "throughput_per_s": named["train_items_per_s"][0],
            "latency_p50_ms": geomean([r["step_ms_p50"] for r in rows]),
            "latency_p90_ms": geomean([r["step_ms_p%d" % TAIL_Q]
                                       for r in rows]),
        }
        return headline, named, {"models": per_model}

    def paths(self):
        return {run.spec.name: execution_path(run.step, run.warm_stats)
                for run in self.runs}

    def layer_extras(self, tracer, window_s):
        busy = sum(sum(run.step_times) for run in self.runs)
        return {"bench.unattributed_share": unattributed_share(tracer, busy)}

    def teardown(self):
        self.runs = []
