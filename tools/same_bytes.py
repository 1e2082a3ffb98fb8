"""Check that a change keeps every output byte of ``hqreg``.

    python3 tools/same_bytes.py BASE_REV

Unpacks BASE_REV's ``src/`` with ``git archive`` into a temporary
directory, runs a fixed list of ``hqreg`` commands once against that tree
and once against this checkout's ``src/``, each in a fresh interpreter,
and compares every output file byte for byte.  The inputs are CSV files
written here with 17 significant digits.  Manifest lines that begin with
``#`` (the wall time) are ignored.  Prints one line per output file and
exits 1 on any difference or failed command.
"""

from __future__ import annotations

import argparse
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


# (name, subcommand arguments, config lines or None)
COMMANDS = [
    ("fit-study-lasso", _fit("study", "lasso", "0.5"), None),
    ("fit-tall-en", _fit("tall", "en", "0.25"), None),
    ("fit-wide-lasso", _fit("wide", "lasso", "0.5", "--no-standardise"), None),
    *((f"fit-{shape}-{pen}-q25", _fit(shape, pen, "0.25"), None)
      for shape in ("small", "study") for pen in ("lasso", "en")),
    ("simulate", ["simulate", "--tau", "0.25,0.5", "--reps", "2", "--iters", "200",
                  "--burnin", "50"], ["scenarios=1,2,3,4,5,6"]),
    ("cv", ["cv", *_fit("study", "lasso", "0.5", "--folds", "3")[1:]], None),
    ("sensitivity", ["sensitivity", "--iters", "300", "--burnin", "100"], None),
    *((f"contour-{pen}-{style}", ["contour", "--penalty", pen], [f"prior_style={style}"])
      for pen in ("lasso", "en") for style in ("unconditional", "conditional")),
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


def unpack(rev: str, directory: Path) -> None:
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_all(src: Path, work: Path) -> list:
    """Run every command with ``src`` on the path; paths are relative to
    ``work``, so both trees write the same manifest.  Returns the names of
    the commands that failed."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    failed = []
    for name, args, config in COMMANDS:
        argv = [sys.executable, "-m", "hqreg.cli", *args, "--out", f"out/{name}"]
        if config:
            path = work / f"{name}.cfg"
            path.write_text("\n".join(config) + "\n")
            argv += ["--config", path.name]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode:
            failed.append(name)
            print(f"{src}: {name} failed: {done.stderr.strip()}", file=sys.stderr)
    return failed


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
        failed = []
        for side, src in (("base", tmp / "base-tree" / "src"), ("change", ROOT / "src")):
            (tmp / side).mkdir()
            failed += run_all(src, tmp / side)
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
        print(f"{len(files)} files, {differ} not identical, {len(failed)} failed commands")
        return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
