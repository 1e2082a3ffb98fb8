"""Benchmark of hqreg's Gibbs sampler, its fit command and its simulation study.

    python3 benchmarks/run.py --workload fit-tall --seed 1 --seconds 30 --trace 0

Runs one workload in this process through ``hqreg.cli.main``, checks the
outputs against computations made apart from the program, and prints as
the last line of standard output one JSON object with the number of
operations attempted and failed and every metric by name and unit:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run
with ``--trace 1``.  End-to-end times are scaled to the speed the machine
had while they were taken (``clock.py``).  The package is imported from ``src/`` of the checkout
that holds this file; outputs go to ``.bench_runs/`` at its root.  See
README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, so that the figures measure the program, not the scheduler;
# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# no more study workers than the cores this process may run on
os.environ["HQREG_THREADS"] = str(len(os.sched_getaffinity(0)))

SETUP_ROUNDS = 3


def import_package():
    """Import hqreg from the checkout's src/ and return (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "hqreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no hqreg package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import hqreg.cli as cli
    import hqreg.sampler as sampler
    import hqreg.simbench as simbench
    import hqreg.specfun as specfun
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != src / "hqreg":
        raise SystemExit(f"error: imported hqreg from {cli.__file__}, not from {src}")
    return (cli, simbench, sampler, specfun), seconds


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hqreg.cli, hqreg.sampler, hqreg.simbench, hqreg.specfun
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Seconds that importing hqreg takes in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1])


def run_op(cli, clock, op) -> None:
    """Run one operation; ``op.seconds`` is its wall time, ``op.scaled_s`` that
    time scaled by ``clock`` to the machine's nominal speed."""
    start = time.perf_counter()
    code = cli.main(op.argv)
    op.seconds = time.perf_counter() - start
    op.scaled_s = clock.scaled(op.seconds)
    op.ok = code == 0
    if op.ok:
        op.output_bytes = sum(p.stat().st_size for p in op.outdir.iterdir() if p.is_file())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules, import_s = import_package()
    cli = modules[0]
    # these import numpy, which must come after the BLAS settings above
    import tracing
    from clock import Clock
    from workloads import workloads

    catalogue = workloads()
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    workload = catalogue[args.workload]
    rundir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spool = rundir / "spool"

    try:
        clock = Clock()
        # set-up, SETUP_ROUNDS times: make and write the inputs, then one short
        # warm-up call; the import is timed after the operations (see below)
        rounds, scaled_rounds = [], []
        for _ in range(SETUP_ROUNDS):
            shutil.rmtree(rundir, ignore_errors=True)
            start = time.perf_counter()
            spool.mkdir(parents=True)
            workload.prepare(rundir, args.seed)
            warm = workload.warmup_op(rundir / "warmup")
            warm_ok = cli.main(warm.argv) == 0
            rounds.append(time.perf_counter() - start)
            scaled_rounds.append(clock.scaled(rounds[-1]))
            if not warm_ok:
                raise SystemExit(f"error: warm-up call failed: hqreg {' '.join(warm.argv)}")
        print(f"set-up: first import {import_s:.3f} s, rounds " +
              " ".join(f"{r:.3f}" for r in rounds) + " s (wall)", file=sys.stderr)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(spool)
            tracing.install(tracer, *modules)

        # the reference round, then seeded operations until the time is up
        ops = []
        loop_start = time.perf_counter()
        reference = workload.reference_ops(lambda i: rundir / f"ref-{i}")
        with workload.capture(spool):
            for op in reference:
                run_op(cli, clock, op)
                ops.append(op)
        seeded = 0
        seeded_start_ns = time.perf_counter_ns()
        # at least workload.min_seeded_ops, however short --seconds is: the
        # medians need a few operations, the study's checks a dozen replications
        while seeded < workload.min_seeded_ops or \
                time.perf_counter() - loop_start < args.seconds:
            op = workload.seeded_op(seeded, rundir / f"op-{len(ops)}")
            seeded += 1
            run_op(cli, clock, op)
            ops.append(op)
        rss = peak_rss_mb()
        # the import's share of set-up, timed in fresh interpreters once the
        # peak memory has been read, so that theirs does not count in it
        imports = [import_seconds() for _ in range(SETUP_ROUNDS)]
        scaled_imports = [clock.scaled(s) for s in imports]
        setup_s = statistics.median(scaled_imports) + statistics.median(scaled_rounds)
        print("import in fresh interpreters: " + " ".join(f"{s:.3f}" for s in imports) +
              " s (wall)", file=sys.stderr)
        print("operations: " + " ".join(f"{op.seconds:.3f}" for op in ops) + " s (wall); " +
              " ".join(f"{op.scaled_s:.3f}" for op in ops) + " s (scaled)", file=sys.stderr)
        print("calibration kernel: " + " ".join(f"{1000 * k:.1f}" for k in clock.kernels) +
              " ms", file=sys.stderr)
        if tracer is not None:
            tracer.collect()
            tracer.uninstall()

        done = [op for op in ops if op.ok]
        failed = len(ops) - len(done)
        problems = workload.check(done)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        ess = workload.ess(reference, spool) if all(op.ok for op in reference) else {}

        # the timings and the layer metrics are those of the seeded operations,
        # which are all of one size; the reference round is there for the ESS
        seeded_done = [op for op in done if op.role == "seeded"]
        op_s = statistics.median(op.scaled_s for op in seeded_done) \
            if seeded_done else float("nan")
        scans_per_s = sum(op.scans for op in seeded_done) / \
            sum(op.scaled_s for op in seeded_done) if seeded_done else 0.0
        # ESS per scan of the reference round, which repeats exactly, times the
        # seeded operations' scan rate, which the machine's noise moves less
        # than it moves the reference round's few operations
        ess_per_s = min(ess.values()) * scans_per_s / sum(op.scans for op in reference) \
            if ess else 0.0
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (op_s, "s"),
                "scans_per_s": (scans_per_s, "scan/s"),
                "ess_per_s": (ess_per_s, "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            spans = [span for span in tracer.spans if span[3] >= seeded_start_ns]
            metrics = tracing.layer_metrics(spans, len(seeded_done),
                                            sum(op.output_bytes for op in seeded_done))
            for name, value in ess.items():
                metrics[f"sampler.ess_{name}"] = (value, "draws")
            trace_path = ROOT / ".bench_runs" / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
            tracer.write(trace_path)
            wall_op_s = statistics.median(op.seconds for op in seeded_done) \
                if seeded_done else float("nan")
            print(f"traced op_s={op_s:.4f} (wall {wall_op_s:.4f}) over {len(seeded_done)} "
                  f"seeded operations; "
                  f"spans in {trace_path}", file=sys.stderr)
        result = {
            "correct": not problems and bool(ess),
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
