"""Check that a change keeps every output byte of ``hqreg``.

    python3 tools/same_bytes.py BASE_REV

Unpacks BASE_REV's ``src/`` with ``git archive`` into a temporary
directory, runs a fixed list of ``hqreg`` commands once against that tree
and once against this checkout's ``src/``, each in a fresh interpreter,
and compares every output file byte for byte.  A second list of commands
must fail: each of those is compared by its exit code, its standard error
and whether it left its output directory behind.
The inputs are CSV files written here with 17 significant digits, and
one malformed file for each error class of the input dialect.  Manifest
lines that begin with ``#`` (the wall time) are ignored.  No command
reaches ``gig_rvs`` at orders other than +-1/2 on arrays, or its limit
laws, so this checkout's ``tools/gig_sweep.py`` also runs against each
tree, and their digest lines are compared: the overall digest and one
per input form.  Prints one line per output file, per failing command
and per sweep digest, and exits 1 on any difference, on a command or
sweep that fails where it should succeed, or on a command that succeeds
where it should fail.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (n, predictors) of each input; an intercept column makes k = predictors + 1
SHAPES = {"small": (15, 3), "study": (100, 20), "tall": (2000, 20), "wide": (100, 300)}


def _fit(shape: str, penalty: str, tau: str, *extra: str) -> list:
    # commands run one level below the inputs directory
    return ["fit", "--input", f"../inputs/{shape}.csv", "--penalty", penalty, "--tau", tau,
            "--iters", "300", "--burnin", "100", *extra]


# (name, subcommand arguments, config lines or None); between them the
# commands pass every flag, so a flag that stops reaching its key shows
COMMANDS = [
    ("fit-study-lasso", _fit("study", "lasso", "0.5"), None),
    ("fit-tall-en", _fit("tall", "en", "0.25"), None),
    ("fit-wide-lasso", _fit("wide", "lasso", "0.5", "--no-standardise"), None),
    ("fit-wide-en", _fit("wide", "en", "0.5", "--no-standardise"), None),
    ("fit-study-en-seed-thin", _fit("study", "en", "0.5", "--seed", "7", "--thin", "2"), None),
    # no intercept column: unstandardised, X is a view of the ingested matrix
    ("fit-study-en-no-intercept", _fit("study", "en", "0.5", "--no-standardise"),
     ["intercept=false"]),
    ("fit-study-lasso-no-intercept", _fit("study", "lasso", "0.5"), ["intercept=false"]),
    *((f"fit-{shape}-{pen}-q25", _fit(shape, pen, "0.25"), None)
      for shape in ("small", "study") for pen in ("lasso", "en")),
    ("simulate", ["simulate", "--tau", "0.25,0.5", "--reps", "2", "--iters", "200",
                  "--burnin", "50", "--seed", "3"], ["scenarios=1,2,3,4,5,6"]),
    ("cv", ["cv", *_fit("study", "lasso", "0.5", "--folds", "3")[1:]], None),
    ("sensitivity", ["sensitivity", "--iters", "300", "--burnin", "100", "--seed", "5"], None),
    *((f"contour-{pen}-{style}", ["contour", "--penalty", pen], [f"prior_style={style}"])
      for pen in ("lasso", "en") for style in ("unconditional", "conditional")),
    # rates off the defaults, through each family's map from the contour keys
    ("contour-lasso-rates", ["contour", "--penalty", "lasso", "--tau", "0.3"],
     ["lambda1=0.7", "eta=1.3", "prior_style=conditional"]),
    ("contour-en-rates", ["contour", "--penalty", "en"],
     ["lambda3=0.7", "lambda4=1.3", "prior_style=conditional"]),
]

# commands that must fail, one per error class: config-error, data-error,
# each CSV error of the input dialect and chain-error; the sensitivity run
# overflows a numpy sum in the penalty block, the k > n fit near 1e200
# keeps the beta block's own line for a Gram product that overflows, a
# constant column's warning is not printed by a run that fails, and the
# eta refinement budget of old manifests is an unknown key
FAILING = [
    ("fail-negative-seed", _fit("study", "lasso", "0.5", "--seed", "-1"), None),
    ("fail-retired-eta-key", _fit("study", "lasso", "0.5"), ["eta_iters=10"]),
    ("fail-constant-column", ["fit", "--input", "../inputs/constant.csv", "--iters", "0"], None),
    ("fail-cv-folds", ["cv", *_fit("study", "lasso", "0.5", "--folds", "1000")[1:]], None),
    *((f"fail-{name}", _fit(name, "lasso", "0.5"), None)
      for name in ("ragged", "non-numeric", "non-finite", "header-only", "long-cell")),
    ("fail-sensitivity-overflow", ["sensitivity", "--iters", "20", "--burnin", "5"],
     ["vary=b", "values=1e308"]),
    ("fail-wide-overflow", ["fit", "--input", "../inputs/overflow-wide.csv", "--no-standardise",
                            "--iters", "20", "--burnin", "5"], None),
]


def write_inputs(directory: Path) -> None:
    gen = np.random.Generator(np.random.PCG64(20240501))
    for name, (n, p) in SHAPES.items():
        x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        beta[: min(p, 5)] = (3.0, -1.5, 0.0, 2.0, 0.5)[: min(p, 5)]
        y = 1.0 + x @ beta + gen.standard_t(3, size=n)
        header = ",".join([f"x{j}" for j in range(1, p + 1)] + ["y"])
        np.savetxt(directory / f"{name}.csv", np.column_stack([x, y]), fmt="%.17g",
                   delimiter=",", header=header, comments="")
    # k = 41 > n = 30, with every value near 1e200
    np.savetxt(directory / "overflow-wide.csv", gen.standard_normal((30, 41)) * 1e200,
               fmt="%.17g", delimiter=",",
               header=",".join([f"x{j}" for j in range(1, 41)] + ["y"]), comments="")
    # one input for each CSV error class: ragged-row, non-numeric-cell,
    # non-finite-rows, empty-dataset and parse-error
    (directory / "ragged.csv").write_text("x1,y\n1,2\n3\n")
    (directory / "non-numeric.csv").write_text("x1,y\n1,2\nNA,4\n")
    (directory / "non-finite.csv").write_text("x1,y\n1,2\nnan,4\n")
    (directory / "header-only.csv").write_text("x1,y\n")
    (directory / "long-cell.csv").write_text(f"x1,y\n1,{'1' * (csv.field_size_limit() + 1)}\n")
    (directory / "constant.csv").write_text("c,x1,y\n1,0.5,1\n1,1.5,2\n1,2.5,4\n")


def unpack(rev: str, directory: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run(src: Path, work: Path, name: str, args: list, config) -> subprocess.CompletedProcess:
    """Run one command with ``src`` on the path; paths are relative to
    ``work``, so both trees write the same manifest and error text."""
    argv = [sys.executable, "-m", "hqreg.cli", *args, "--out", f"out/{name}"]
    if config:
        path = work / f"{name}.cfg"
        path.write_text("\n".join(config) + "\n")
        argv += ["--config", path.name]
    return subprocess.run(argv, cwd=work, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)


def run_all(src: Path, work: Path) -> tuple:
    """Run every command of both lists.  Returns the names of the
    COMMANDS that failed and each FAILING command's (exit code, stderr,
    whether its output directory exists)."""
    failed = []
    for name, args, config in COMMANDS:
        done = run(src, work, name, args, config)
        if done.returncode:
            failed.append(name)
            print(f"{src}: {name} failed: {done.stderr.strip()}", file=sys.stderr)
    errors = {}
    for name, args, config in FAILING:
        done = run(src, work, name, args, config)
        errors[name] = (done.returncode, done.stderr, (work / "out" / name).exists())
    return failed, errors


def sweep_digests(src: Path):
    """The digest lines of this checkout's GIG sweep run against ``src``,
    the overall one first and then one ``form N: ...`` line per input
    form, or None if the sweep fails."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "gig_sweep.py")],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True)
    if done.returncode:
        print(f"{src}: gig_sweep failed: {done.stderr.strip()}", file=sys.stderr)
        return None
    first, *rest = done.stdout.splitlines()
    return [first] + [line for line in rest if line.startswith("form ")]


def content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"#"))
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        write_inputs(tmp / "inputs")
        (tmp / "base-tree").mkdir()
        unpack(args.base_rev, tmp / "base-tree")
        failed, errors, digests = [], [], []
        for side, src in (("base", tmp / "base-tree" / "src"), ("change", ROOT / "src")):
            (tmp / side).mkdir()
            side_failed, side_errors = run_all(src, tmp / side)
            failed += side_failed
            errors.append(side_errors)
            digests.append(sweep_digests(src))
        base, change = tmp / "base" / "out", tmp / "change" / "out"
        files = sorted({p.relative_to(root) for root in (base, change) if root.exists()
                        for p in root.rglob("*") if p.is_file()})
        differ = 0
        for rel in files:
            a, b = base / rel, change / rel
            if not (a.exists() and b.exists()):
                verdict = "only in " + ("base" if a.exists() else "change")
            else:
                verdict = "identical" if content(a) == content(b) else "DIFFERENT"
            differ += verdict != "identical"
            print(f"{verdict:>14}  {rel}")
        errors_differ = 0
        for name, _, _ in FAILING:
            base_run, change_run = errors[0][name], errors[1][name]
            code_b, err_b, left_b = change_run
            if not (base_run[0] and code_b):
                verdict = "did not fail"
            else:
                verdict = "identical" if base_run == change_run else "DIFFERENT"
            errors_differ += verdict != "identical"
            left = "leaves" if left_b else "no"
            print(f"{verdict:>14}  {name}: exit {code_b}, {left} out/{name}, {err_b.strip()}")
        if None in digests:
            sweep = "failed"
            print(f"{sweep:>14}  gig_sweep")
        else:
            forms = []
            for a, b in zip(*digests):
                verdict = "identical" if a == b else "DIFFERENT"
                if a != b and b.startswith("form "):
                    forms.append(b.partition(":")[0])
                print(f"{verdict:>14}  gig_sweep {b}")
            sweep = "identical" if digests[0] == digests[1] else "DIFFERENT"
            if forms:
                sweep += " in " + ", ".join(forms)
        print(f"{len(files)} files, {differ} not identical, {len(failed)} failed commands; "
              f"{len(FAILING)} failing commands, {errors_differ} not identical; "
              f"GIG sweep {sweep}")
        return 1 if differ or failed or errors_differ or sweep != "identical" else 0


if __name__ == "__main__":
    sys.exit(main())
