"""compile-churn: a seeded stream of short jobs that compile.

The window runs whole cycles of jobs until the time is up, so every
run holds the same mix.  A cycle is

* one *training job* per model of ``CHURN_MODELS``, in seeded order:
  a fresh model and a fresh ``janus.function`` run until the first
  graph run (cold), then called with the leading dimension halved (the
  partial last batch every epoch ends with) until a graph runs again
  (regeneration), then ``STEADY_STEPS`` full-batch steps;
* one *warm-start job*: the pure-tensor functions of ``churn_fns`` are
  compiled here with a fresh cache directory, which publishes them,
  and then warm-started by a fresh worker process.

So each of the stream's seven kinds of job comes once per cycle: no
kind is weighted over another.

Set-up runs one training job per model first, so what only a process's
first compile of a model costs lands in ``setup_s``, not in the cycles.

Training losses are replayed imperatively after the window and the
warm-started outputs are compared with the functions run imperatively.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import repro as R
from repro import janus

import churn_fns
from layers import (MAX_COLD_CALLS, execution_path, unattributed_share,
                    until_graph)
from models import SPECS, make_optimizer
from spans import accumulate
from stats import median, percentile
from train import loss_value, check_losses

#: Models with a leading batch dimension to halve.  LSTM and LM carry
#: state shaped by the batch size, the TreeNNs take one tree and A3C's
#: episode loop already accepts any length, so none of them regenerate.
CHURN_MODELS = ("LeNet", "ResNet", "Inception", "pix2pix", "PPO", "AN")
STEADY_STEPS = 3
WORKER_TIMEOUT_S = 120
RTOL, ATOL = 1e-4, 1e-5

HERE = os.path.dirname(os.path.abspath(__file__))


class ChurnWorkload:
    def __init__(self, out_dir):
        self.tracer = None
        self.work_dir = os.path.join(out_dir, "churn-%d" % os.getpid())
        #: (job label, execution path, cache_stats()) of every janus
        #: function of the window, taken when its job ends: the function
        #: itself is let go, as a job stream would, so the collector does
        #: not scan ever more graphs as the run goes on.
        self.retired = []
        self.jobs = []
        self.warm = []
        self.worker_disk_totals = {}

    def setup(self, seed, outcome):
        self.seed = seed
        self.outcome = outcome
        self.batches = {name: SPECS[name].batches(seed)[0]
                        for name in CHURN_MODELS}
        self.oracle = {name: np.asarray(fn(*[R.constant(a) for a in
                                             churn_fns.inputs(name, seed)])
                                        .numpy())
                       for name, fn in churn_fns.FUNCTIONS.items()}
        # One training job per model pays what only a process's first
        # compile of each model costs, so every measured cycle is alike.
        for index, name in enumerate(CHURN_MODELS):
            self.train_job(name, seed * 1000 + 900 + index)
        self.retired = []
        self.cycle = 0

    def teardown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def stats(self):
        """``cache_stats()`` of every janus function of the window."""
        return [stats for _label, _path, stats in self.retired]

    def _retire(self, fn, label):
        self.retired.append((label, execution_path(fn), fn.cache_stats()))

    # -- jobs -----------------------------------------------------------------

    def _call(self, fn, batch, record):
        self.outcome.attempted += 1
        try:
            loss = loss_value(fn(*batch))
        except Exception as exc:   # counted, reported, stream continues
            self.outcome.fail("%s call raised %r" % (record["model"], exc))
            loss = None
        record["batches"].append(batch)
        record["losses"].append(loss)
        return loss

    def _until_graph(self, fn, batch, record):
        if not until_graph(fn, lambda: self._call(fn, batch, record))[1]:
            self.outcome.fail("%s: no graph run within %d calls"
                              % (record["model"], MAX_COLD_CALLS))

    def train_job(self, name, job_seed):
        spec = SPECS[name]
        full = self.batches[name]
        half = tuple(a[:len(a) // 2] for a in full)
        _model, loss_fn = spec.build(job_seed)
        record = {"model": name, "seed": job_seed, "batches": [],
                  "losses": []}
        perf = time.perf_counter
        start = perf()
        fn = janus.function(loss_fn, optimizer=make_optimizer(spec))
        self._until_graph(fn, full, record)
        cold_end = perf()
        self._until_graph(fn, half, record)
        regen_end = perf()
        for _ in range(STEADY_STEPS):
            self._call(fn, full, record)
        end = perf()
        self._retire(fn, name)
        record.update(first_graph_ms=(cold_end - start) * 1e3,
                      regen_ms=(regen_end - cold_end) * 1e3,
                      seconds=end - start, calls=len(record["losses"]))
        return record

    def warm_job(self, cycle):
        """Compile and publish here, then warm-start in a fresh worker."""
        cache_dir = os.path.join(self.work_dir, "cycle%d" % cycle)
        config = janus.JanusConfig(cache_dir=cache_dir)
        start = time.perf_counter()
        calls = 0
        local = {}
        fns = {}
        for name in churn_fns.ORDER:
            fn = fns[name] = janus.function(churn_fns.FUNCTIONS[name],
                                            config=config)
            feeds = churn_fns.inputs(name, self.seed)
            out, _ran = until_graph(fn, lambda: fn(*feeds))
            calls += fn.stats["calls"]
            self.outcome.attempted += fn.stats["calls"]
            local[name] = {"graph_runs": fn.stats["graph_runs"],
                           "output": out.numpy()}
        publish_s = time.perf_counter() - start
        for name, fn in fns.items():
            self._retire(fn, name)
        cmd = [sys.executable, os.path.join(HERE, "churn_worker.py"),
               "--cache-dir", cache_dir, "--seed", str(self.seed),
               "--trace", "1" if self.tracer else "0"]
        self.outcome.attempted += 1
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            self.outcome.fail("warm-start worker exited %d: %s"
                              % (proc.returncode, proc.stderr[-2000:]))
            return {"calls": calls, "seconds": publish_s, "local": local,
                    "functions": {}}
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, vals in report.get("spans", {}).items():
            accumulate(self.worker_disk_totals, name, vals)
        return {"calls": calls, "seconds": publish_s, "local": local,
                "functions": report["functions"]}

    def _cycle(self):
        rng = np.random.default_rng([self.seed, self.cycle])
        order = [CHURN_MODELS[i] for i in rng.permutation(len(CHURN_MODELS))]
        jobs = [self.train_job(name, self.seed * 1000 + self.cycle * 16 + i)
                for i, name in enumerate(order)]
        warm = self.warm_job(self.cycle)
        self.jobs += jobs
        self.warm.append(warm)
        self.cycle_rates.append(
            (sum(j["calls"] for j in jobs) + warm["calls"])
            / (sum(j["seconds"] for j in jobs) + warm["seconds"]))
        self.cycle += 1

    def probe(self):
        """One training job of the cheapest model."""
        self.train_job("PPO", self.seed * 1000 + 999)
        del self.retired[-1]

    def measure(self, seconds):
        self.jobs, self.warm, self.retired = [], [], []
        #: janus calls per second of in-process job time, per cycle.
        self.cycle_rates = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self._cycle()
        return time.perf_counter() - start

    # -- results --------------------------------------------------------------

    def check(self):
        for job in self.jobs:
            check_losses(SPECS[job["model"]], job["seed"], job["batches"],
                         job["losses"], self.outcome,
                         "%s job seed %d" % (job["model"], job["seed"]))
        for job in self.warm:
            for where, outputs in (("compiled here", job["local"]),
                                   ("warm-started", job["functions"])):
                for name, got in outputs.items():
                    if got["graph_runs"] < 1 or not np.allclose(
                            np.asarray(got["output"], np.float32),
                            self.oracle[name], rtol=RTOL, atol=ATOL):
                        self.outcome.fail("%s %s: output differs from the "
                                          "imperative function"
                                          % (where, name))
            for name, got in job["functions"].items():
                if got["warm_starts"] < 1:
                    self.outcome.fail("worker %s: compiled again instead of "
                                      "warm-starting from the disk cache"
                                      % name)

    def results(self):
        first = [job["first_graph_ms"] for job in self.jobs]
        regen = [job["regen_ms"] for job in self.jobs]
        warm = [f["first_graph_ms"] for job in self.warm
                for f in job["functions"].values()]
        named = {
            "first_graph_ms_p50": (percentile(first, 50), "ms"),
            "first_graph_ms_p90": (percentile(first, 90), "ms"),
            "regen_ms_p50": (percentile(regen, 50), "ms"),
            "warm_start_ms_p50": (percentile(warm, 50) if warm else 0.0,
                                  "ms"),
            "churn_calls_per_s": (median(self.cycle_rates), "1/s"),
        }
        headline = {
            "throughput_per_s": named["churn_calls_per_s"][0],
            "latency_p50_ms": named["first_graph_ms_p50"][0],
            "latency_p90_ms": named["first_graph_ms_p90"][0],
        }
        detail = {
            "cycles": self.cycle, "training_jobs": len(self.jobs),
            "warm_samples": len(warm),
            "per_model_first_graph_ms": {
                name: [j["first_graph_ms"] for j in self.jobs
                       if j["model"] == name] for name in CHURN_MODELS},
        }
        return headline, named, detail

    def paths(self):
        """Per model or function: its paths summed over every job."""
        out = {}
        for label, path, _stats in self.retired:
            row = out.setdefault(label, {"functions": 0, "graphs": 0,
                                         "lowered": 0, "bailouts": 0,
                                         "fallbacks": 0,
                                         "lowering_bailouts": []})
            row["functions"] += 1
            for key in ("graphs", "lowered", "bailouts", "fallbacks"):
                row[key] += path[key]
            row["lowering_bailouts"] = sorted(
                set(row["lowering_bailouts"]) | set(path["lowering_bailouts"]))
        return out

    def layer_extras(self, tracer, window_s):
        """Unattributed time within the in-process jobs; the wait for
        the warm-start workers is not this process's work."""
        busy = sum(job["seconds"] for job in self.jobs + self.warm)
        return {"bench.unattributed_share": unattributed_share(tracer,
                                                               busy)}
