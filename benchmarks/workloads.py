"""The three workloads: their inputs, their operations and their checks.

A run of a workload performs operations, each one ``hqreg.cli.main`` call.
The first operations of every run form the *reference round*: inputs fixed
by the workload (reference seed 0), so that the draws, and with them the
effective sample sizes, repeat exactly from run to run.  The run then
repeats *seeded* operations, whose data and chain seeds come from
``--seed``, until its time is up.  Every operation is timed and checked.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

import checks
from ess import bulk_ess

REFERENCE_SEED = 0
ESS_PARAMETERS = ("beta_1", "rho2", "eta")

# intercept 1 and the five active slopes of the package's simulation design
ACTIVE = {0: 1.0, 1: 3.0, 2: 0.5, 4: 1.0, 7: 1.5, 11: 1.0}


def stream(seed: int, workload: int, role: int) -> np.random.Generator:
    """role 0: reference inputs; role 1: inputs made from --seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(workload, role)))


@dataclass(frozen=True)
class LinearLaw:
    """y = x'beta + sigma e, e ~ N(0, 1), with a leading intercept column and
    standard normal predictors whose correlation is r^|i-j|."""

    n: int
    k: int
    r: float
    sigma: float
    tau: float

    @property
    def beta(self) -> np.ndarray:
        beta = np.zeros(self.k + 1)
        for j, value in ACTIVE.items():
            beta[j] = value
        return beta

    def sample(self, gen: np.random.Generator, n: int):
        z = gen.standard_normal((n, self.k))
        x = z.copy()
        for j in range(1, self.k):
            x[:, j] = self.r * x[:, j - 1] + math.sqrt(1.0 - self.r**2) * z[:, j]
        X = np.column_stack([np.ones(n), x])
        return X, X @ self.beta + self.sigma * gen.standard_normal(n)

    def quantile(self, X) -> np.ndarray:
        return X @ self.beta + self.sigma * special.ndtri(self.tau)

    @property
    def density_at_quantile(self) -> float:
        q = special.ndtri(self.tau)
        return math.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi) / self.sigma


@dataclass
class Op:
    """One timed hqreg call."""

    argv: list
    outdir: Path
    scans: int
    role: str = ""  # "reference" or "seeded"
    kept: int = 0  # draws written after burn-in (fit)
    reps: int = 0  # replications per cell (simulate)
    seconds: float = float("nan")
    scaled_s: float = float("nan")
    ok: bool = False
    output_bytes: int = 0


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_csv(path: Path, X, y):
    header = ",".join([f"x{j}" for j in range(1, X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X[:, 1:], y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


# --- fit-tall and fit-wide ----------------------------------------------------------


@dataclass
class Inputs:
    X: np.ndarray
    y: np.ndarray
    csv: Path
    chain_seeds: list
    X_test: np.ndarray = None
    y_test: np.ndarray = None
    lp_beta: np.ndarray = None


@dataclass
class FitWorkload:
    """Repeated ``hqreg fit`` calls on one simulated CSV per input set.

    The reference round's chains are long enough for their ESS; the seeded
    operations are shorter, so that a run holds a dozen of them.
    """

    index: int
    law: LinearLaw
    penalty: str
    iters: int
    burnin: int
    reference_fits: int
    seeded_iters: int
    seeded_burnin: int
    test_rows: int = 0
    min_seeded_ops: int = 2
    inputs: dict = field(default_factory=dict)

    def prepare(self, rundir: Path, seed: int, reference_seed: int = REFERENCE_SEED):
        """Make and write the reference and seeded data sets."""
        for role, s in (("reference", reference_seed), ("seeded", seed)):
            gen = stream(s, self.index, 0 if role == "reference" else 1)
            X, y = self.law.sample(gen, self.law.n)
            path = rundir / f"{role}.csv"
            write_csv(path, X, y)
            if role == "reference":
                seeds = [1000 * s + i for i in range(1, self.reference_fits + 1)]
            else:
                seeds = [int(v) for v in gen.integers(1, 2**31, size=1000)]
            inputs = Inputs(X, y, path, seeds)
            if self.test_rows:
                inputs.X_test, inputs.y_test = self.law.sample(gen, self.test_rows)
            self.inputs[role] = inputs

    def _op(self, role: str, i: int, outdir: Path, iters: int, burnin: int) -> Op:
        inputs = self.inputs[role]
        argv = ["fit", "--input", str(inputs.csv), "--out", str(outdir),
                "--tau", repr(self.law.tau), "--penalty", self.penalty,
                "--iters", str(iters), "--burnin", str(burnin),
                "--seed", str(inputs.chain_seeds[i % len(inputs.chain_seeds)]),
                "--no-standardise"]
        return Op(argv, outdir, iters, role, iters - burnin)

    def warmup_op(self, outdir: Path) -> Op:
        return self._op("seeded", 0, outdir, 20, 10)

    def reference_ops(self, outdir_for) -> list:
        return [self._op("reference", i, outdir_for(i), self.iters, self.burnin)
                for i in range(self.reference_fits)]

    def seeded_op(self, i: int, outdir: Path) -> Op:
        return self._op("seeded", i, outdir, self.seeded_iters, self.seeded_burnin)

    def draws(self, op: Op):
        header, rows = read_csv(op.outdir / "samples.csv")
        columns = [c.split(":")[0] for c in header]
        return np.array(rows, dtype=float), columns

    def check(self, ops: list) -> list:
        problems = []
        for op in ops:
            inputs = self.inputs[op.role]
            draws, columns = self.draws(op)
            found = checks.check_draws(draws, columns, op.kept)
            _, rows = read_csv(op.outdir / "summary.csv")
            medians = np.array([float(r[1]) for r in rows if r[0].startswith("beta_")])
            if medians.size != self.law.k + 1:
                found.append(f"{medians.size} coefficients in summary.csv, expected {self.law.k + 1}")
            elif self.test_rows:
                found += checks.check_held_out(
                    medians, inputs.X, inputs.y, inputs.X_test, inputs.y_test,
                    self.law.quantile(inputs.X_test), self.law.tau)
            else:
                if inputs.lp_beta is None:
                    inputs.lp_beta = checks.quantile_regression_lp(inputs.X, inputs.y, self.law.tau)
                found += checks.check_against_lp(
                    inputs.X, inputs.y, self.law.tau, self.law.density_at_quantile,
                    medians, inputs.lp_beta)
            problems += [f"{op.outdir.name}: {p}" for p in found]
        return problems

    def ess(self, reference: list, spool: Path) -> dict:
        """Bulk ESS of each parameter, pooled over the reference chains."""
        pooled = []
        for op in reference:
            draws, columns = self.draws(op)
            pooled.append([draws[:, columns.index(p)] for p in ESS_PARAMETERS])
        pooled = np.array(pooled)  # (chains, parameters, draws)
        return {p: bulk_ess(pooled[:, j, :]) for j, p in enumerate(ESS_PARAMETERS)}

    def capture(self, spool: Path):
        return contextlib.nullcontext()


# --- simulate-study ------------------------------------------------------------------


class DrawCapture:
    """Saves the ESS columns of every chain that ``run_study`` runs, from
    whichever process runs it, so that the parent can compute their ESS.

    ``hqreg simulate`` writes no draws; this wraps ``hqreg.simbench.run_chain``
    for the reference operation only.  Installed before the pool forks, the
    wrapper is inherited by the workers.
    """

    def __init__(self, spool: Path):
        import hqreg.simbench as simbench

        self.spool = spool
        self.simbench = simbench
        self.original = simbench.run_chain

    def __enter__(self):
        original, spool = self.original, self.spool
        counter = itertools.count()

        @functools.wraps(original)
        def run_chain(*args, **kwargs):
            samples = original(*args, **kwargs)
            cols = [samples.columns.index(p) for p in ESS_PARAMETERS]
            np.save(spool / f"draws-{os.getpid()}-{next(counter)}.npy", samples.draws[:, cols])
            return samples

        self.simbench.run_chain = run_chain
        return self

    def __exit__(self, *exc):
        self.simbench.run_chain = self.original


@dataclass
class StudyWorkload:
    """Repeated ``hqreg simulate`` calls over the symmetric-noise scenarios.

    The reference call runs ``reps`` replications per cell, for its ESS; the
    seeded calls run ``seeded_reps``, one per pool worker, so that each is
    short.  A run makes at least ``min_seeded_ops`` seeded calls, which gives
    the checks a dozen replications per cell.
    """

    index: int
    scenarios: tuple
    tau: float
    reps: int
    seeded_reps: int
    min_seeded_ops: int
    iters: int
    burnin: int
    n: int = 100
    config: Path = None
    master_seeds: list = field(default_factory=list)

    def prepare(self, rundir: Path, seed: int, reference_seed: int = REFERENCE_SEED):
        self.config = rundir / "study.cfg"
        self.config.write_text(
            f"scenarios={','.join(map(str, self.scenarios))}\nn={self.n}\n")
        gen = stream(seed, self.index, 1)
        self.master_seeds = [reference_seed] + [int(v) for v in gen.integers(1, 2**31, size=1000)]

    def _op(self, i: int, outdir: Path, reps: int, iters: int, burnin: int, role: str) -> Op:
        argv = ["simulate", "--config", str(self.config), "--out", str(outdir),
                "--tau", repr(self.tau), "--penalty", "lasso", "--reps", str(reps),
                "--iters", str(iters), "--burnin", str(burnin),
                "--seed", str(self.master_seeds[i % len(self.master_seeds)])]
        return Op(argv, outdir, len(self.scenarios) * reps * iters, role, reps=reps)

    def warmup_op(self, outdir: Path) -> Op:
        return self._op(1, outdir, self.seeded_reps, 20, 10, "seeded")

    def reference_ops(self, outdir_for) -> list:
        return [self._op(0, outdir_for(0), self.reps, self.iters, self.burnin, "reference")]

    def seeded_op(self, i: int, outdir: Path) -> Op:
        return self._op(1 + i, outdir, self.seeded_reps, self.iters, self.burnin, "seeded")

    def check(self, ops: list) -> list:
        problems = []
        cells, etas = {}, {}
        for op in ops:
            header, rows = read_csv(op.outdir / "tables.csv")
            table = [dict(zip(header, r)) for r in rows]
            ids = [int(r["scenario"]) for r in table]
            if ids != list(self.scenarios):
                problems.append(f"{op.outdir.name}: cells {ids}, expected {list(self.scenarios)}")
                continue
            for r in table:
                sid = int(r["scenario"])
                if r["failures"] != "0" or r["complete"] != "true":
                    problems.append(f"{op.outdir.name}: scenario {sid} has "
                                    f"{r['failures']} failed replications")
                # a row per replication, so that the means weigh each one alike
                cells.setdefault(sid, []).extend([(float(r["rmse"]), float(r["cp"]))] * op.reps)
            _, rows = read_csv(op.outdir / "eta-medians.csv")
            for r in rows:
                etas.setdefault(int(r[0]), []).append(float(r[4]))
            for sid in self.scenarios:
                if len(etas.get(sid, ())) != len(cells[sid]):
                    problems.append(f"{op.outdir.name}: scenario {sid} lacks eta medians")
        return problems + checks.check_study(cells, etas)

    def capture(self, spool: Path):
        return DrawCapture(spool)

    def ess(self, reference: list, spool: Path) -> dict:
        """Sum over the reference operation's chains of each chain's bulk ESS.

        Every replication fits its own data set, so the chains share no
        target and are not pooled.
        """
        chains = [np.load(p) for p in sorted(spool.glob("draws-*.npy"))]
        per_chain = np.array([[bulk_ess(c[:, j]) for j in range(len(ESS_PARAMETERS))]
                              for c in chains])
        return {p: float(np.sum(np.sort(per_chain[:, j])))
                for j, p in enumerate(ESS_PARAMETERS)}


def workloads() -> dict:
    """Sizes and settings; the README gives the reasons."""
    return {
        "fit-tall": FitWorkload(
            1, LinearLaw(n=2000, k=20, r=0.5, sigma=2.0, tau=0.25),
            penalty="en", iters=700, burnin=200, reference_fits=3,
            seeded_iters=300, seeded_burnin=100),
        "fit-wide": FitWorkload(
            2, LinearLaw(n=100, k=300, r=0.0, sigma=1.0, tau=0.5),
            penalty="lasso", iters=600, burnin=200, reference_fits=3,
            seeded_iters=300, seeded_burnin=100, test_rows=4000),
        "simulate-study": StudyWorkload(
            3, scenarios=(1, 2, 3, 5), tau=0.5, reps=4, seeded_reps=2, min_seeded_ops=4,
            iters=400, burnin=100),
    }
