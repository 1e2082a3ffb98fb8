"""Seed-to-seed spread of the reference round's effective sample sizes.

    python3 benchmarks/ess_spread.py --workload fit-tall --seeds 1 2 3 4 5 6 7 8

The benchmark's reference round always uses reference seed 0, so its ESS
repeats exactly.  This runs the same round with other reference seeds
(its data and chain seeds change with them) and prints each seed's ESS
and the median and quartiles of the minimum, so that a change to the draw
stream can be told from chance.
"""

from __future__ import annotations

import argparse
import shutil
import statistics

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    modules, _ = run.import_package()
    from clock import Clock
    from workloads import workloads

    clock = Clock()
    lowest = []
    for seed in args.seeds:
        workload = workloads()[args.workload]
        rundir = run.ROOT / ".bench_runs" / f"ess-spread-{args.workload}-{seed}"
        spool = rundir / "spool"
        shutil.rmtree(rundir, ignore_errors=True)
        spool.mkdir(parents=True)
        try:
            workload.prepare(rundir, seed, reference_seed=seed)
            reference = workload.reference_ops(lambda i: rundir / f"ref-{i}")
            with workload.capture(spool):
                for op in reference:
                    run.run_op(modules[0], clock, op)
            ess = workload.ess(reference, spool)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        lowest.append(min(ess.values()))
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.1f}" for k, v in ess.items()), flush=True)
    q1, q2, q3 = statistics.quantiles(lowest, n=4)
    print(f"min ESS: median {q2:.1f}, quartiles {q1:.1f} .. {q3:.1f}, "
          f"spread (q3 - q1) / median {(q3 - q1) / q2:.2f}")


if __name__ == "__main__":
    main()
