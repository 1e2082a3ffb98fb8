"""The benchmark's tracer wraps package functions by name: a traced fit must
record spans for the blocks it times, and uninstalling must restore every
module attribute."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

from hqreg import cli, sampler, simbench, specfun  # noqa: E402


def test_traced_fit_records_blocks_and_uninstall_restores(tmp_path):
    modules = (cli, simbench, sampler, specfun)
    before = [dict(vars(m)) for m in modules]
    gen = np.random.default_rng(0)
    X = gen.standard_normal((40, 3))
    y = X @ [1.0, -0.5, 0.0] + gen.standard_normal(40)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",", header="x1,x2,x3,y",
               comments="")

    tracer = tracing.Tracer(tmp_path)
    tracing.install(tracer, *modules)
    try:
        assert cli.main(["fit", "--input", str(data), "--out", str(tmp_path / "out"),
                         "--penalty", "en", "--iters", "20", "--burnin", "5"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1, 0)
    assert metrics["sampler.beta_us"][0] > 0
    assert metrics["sampler.penalty_us"][0] > 0
    for module, attrs in zip(modules, before):
        now = vars(module)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items()), module.__name__
