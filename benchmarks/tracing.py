"""Spans around calls into hqreg's modules, recorded from the benchmark's side.

Nothing in the package is edited: the tracer replaces module attributes
that the package looks up at call time (``run_chain`` finds ``update_*``,
``gig_rvs`` and ``mvn_from_precision`` through ``hqreg.sampler``'s globals,
the eta refinement calls ``hqreg.specfun`` through the module, and so on).
A span is (name, id, parent id, start ns, end ns, value), where value is a
count the layer metrics need, such as the variates a GIG call drew.  A call
that raises records no span.

Pool workers forked by ``run_study`` inherit the wrappers and the open
span stack.  Each worker writes its spans to the spool directory when a
replication ends, and the parent reads them back after every operation.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

SAMPLER_BLOCKS = {
    "beta": ("update_beta",),
    "sigma": ("update_sigma",),
    "v": ("update_v",),
    "penalty": ("update_s", "update_lambda1_sq", "update_t", "update_lambda4",
                "mh_update_lambda3_tilde"),
    "rho2": ("update_rho2",),
    "eta": ("update_eta_approx",),
}
SPECFUN = ("log_k1_deriv", "log_k1_deriv2", "log_upper_gamma_half")


class Tracer:
    """In-memory span recorder for one process and the workers it forks."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.root_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.installed = []

    def call(self, name, fn, args, kwargs, value=None):
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked worker: start its own buffer
            self.pid, self.spans, self.next_id = pid, [], 0
        self.next_id += 1
        sid = (pid << 32) | self.next_id
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
        # tuples of numbers drop out of the garbage collector's tracking
        self.spans.append((name, sid, parent, start, end,
                           None if value is None else value(args, result)))
        return result

    def wrap(self, name, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value)
        return traced

    def install(self, owner, attr, name, value=None):
        original = getattr(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, value))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def hand_off(self, fn):
        """Outermost wrapper of a function run in pool workers: after each call a
        worker writes its spans to the spool."""
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != self.root_pid and self.spans:
                    path = self.spool / f"spans-{os.getpid()}-{self.next_id}.json"
                    path.write_text(json.dumps(self.spans))
                    self.spans = []
        return run

    def collect(self):
        """Take in the spans that workers left in the spool."""
        for path in sorted(self.spool.glob("spans-*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "id", "parent", "start_ns", "end_ns", "value"],
                       "spans": self.spans}, fh)


def _chain_value(args, samples):
    h = samples.health
    return (args[1].n_iter, h.positivity_clamps, h.eta_update_skips,
            h.mh_proposals, h.mh_accepts)


def install(tracer: Tracer, cli, simbench, sampler, specfun):
    """Wrap the public entry points of every layer that a fit or a study calls."""
    for fns in SAMPLER_BLOCKS.values():
        for fn in fns:
            tracer.install(sampler, fn, f"sampler.{fn}")
    tracer.install(sampler, "refine_eta_gamma_params", "sampler.refine_eta_gamma_params",
                   value=lambda args, res: len(res[2]))
    tracer.install(sampler, "gig_rvs", "randist.gig_rvs", value=lambda args, res: int(np.size(res)))
    tracer.install(sampler, "mvn_from_precision", "randist.mvn_from_precision",
                   value=lambda args, res: int(np.size(res)))
    for fn in SPECFUN:
        tracer.install(specfun, fn, f"specfun.{fn}")
    tracer.install(cli, "run_chain", "sampler.run_chain", value=_chain_value)
    tracer.install(simbench, "run_chain", "sampler.run_chain", value=_chain_value)
    tracer.install(cli, "ingest_csv", "cli.ingest_csv")
    # private, but the only place where output files are written
    tracer.install(cli, "_write_csv", "cli.write_csv")
    tracer.install(cli, "_write_manifest", "cli.write_manifest")
    tracer.install(simbench, "run_study", "simbench.run_study")
    tracer.install(simbench, "generate_scenario", "simbench.generate_scenario")
    tracer.install(simbench, "_one_replication_guarded", "simbench.replication")
    simbench._one_replication_guarded = tracer.hand_off(simbench._one_replication_guarded)

    class TracedPool(ProcessPoolExecutor):
        # with the fork start method the workers are launched from here on
        # the first submit
        def _start_executor_manager_thread(self):
            tracer.call("simbench.pool_start", super()._start_executor_manager_thread, (), {})

        def shutdown(self, *args, **kwargs):
            tracer.call("simbench.pool_shutdown", super().shutdown, args, kwargs,
                        value=lambda a, r: self._max_workers)

    tracer.installed.append((simbench, "ProcessPoolExecutor", simbench.ProcessPoolExecutor))
    simbench.ProcessPoolExecutor = TracedPool


def layer_metrics(spans, n_ops: int, output_bytes: int) -> dict:
    """Per-layer figures from the spans of a run of n_ops operations.

    Times are per Gibbs scan unless their unit says otherwise; guard
    counters are totals over the run.
    """
    n_ops = max(n_ops, 1)
    total = defaultdict(int)  # ns
    calls = defaultdict(int)
    values = defaultdict(list)
    for name, _, _, start, end, value in spans:
        total[name] += end - start
        calls[name] += 1
        if value is not None:
            values[name].append(value)
    chains = np.array(values["sampler.run_chain"], dtype=float).reshape(-1, 5)
    scans = chains[:, 0].sum()

    def per_scan_us(*names):
        return sum(total[n] for n in names) / 1e3 / scans if scans else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    gig_draws = sum(values["randist.gig_rvs"])
    mvn_flops = sum(k**3 / 3.0 + 3.0 * k * k for k in values["randist.mvn_from_precision"])
    specfun = [f"specfun.{fn}" for fn in SPECFUN]
    reps = total["simbench.replication"]
    pools = calls["simbench.pool_shutdown"]
    workers = max(values["simbench.pool_shutdown"], default=1)
    out = {
        "sampler.scan_us": (per_scan_us("sampler.run_chain"), "us"),
    }
    for block, fns in SAMPLER_BLOCKS.items():
        out[f"sampler.{block}_us"] = (per_scan_us(*(f"sampler.{fn}" for fn in fns)), "us")
    out.update({
        "sampler.eta_refine_iters": (
            ratio(sum(values["sampler.refine_eta_gamma_params"]),
                  calls["sampler.refine_eta_gamma_params"]), "iter/update"),
        "sampler.mh_accept_ratio": (ratio(chains[:, 4].sum(), chains[:, 3].sum()), "ratio"),
        "sampler.positivity_clamps": (float(chains[:, 1].sum()), "count"),
        "sampler.eta_update_skips": (float(chains[:, 2].sum()), "count"),
        "randist.gig_us": (per_scan_us("randist.gig_rvs"), "us"),
        "randist.gig_calls": (ratio(calls["randist.gig_rvs"], scans), "call/scan"),
        "randist.gig_draws": (ratio(gig_draws, scans), "variate/scan"),
        "randist.gig_ns_per_draw": (ratio(total["randist.gig_rvs"], gig_draws), "ns"),
        "randist.mvn_us": (per_scan_us("randist.mvn_from_precision"), "us"),
        "randist.mvn_gflop_s": (ratio(mvn_flops, total["randist.mvn_from_precision"]), "GFLOP/s"),
        "specfun.calls": (ratio(sum(calls[n] for n in specfun), scans), "call/scan"),
        "specfun.us": (per_scan_us(*specfun), "us"),
        "simbench.rep_s": (ratio(reps, calls["simbench.replication"]) / 1e9, "s"),
        "simbench.pools": (pools / n_ops, "pool/op"),
        "simbench.pool_s": (
            (total["simbench.pool_start"] + total["simbench.pool_shutdown"]) / 1e9 / n_ops, "s/op"),
        "simbench.worker_busy_ratio": (
            ratio(reps, workers * total["simbench.run_study"]) if pools else 0.0, "ratio"),
        "cli.ingest_s": (total["cli.ingest_csv"] / 1e9 / n_ops, "s/op"),
        "cli.output_s": (
            (total["cli.write_csv"] + total["cli.write_manifest"]) / 1e9 / n_ops, "s/op"),
        "cli.output_bytes": (output_bytes / n_ops, "byte/op"),
    })
    return out
