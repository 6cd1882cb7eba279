"""Verdict, wall time and peak RSS of ``ident`` and ``local`` at DSGE-like
sizes, every B coefficient restricted.

For each shape (n, m, lam, kappa) in SHAPES the script draws a valid model
(:func:`conftest.make_valid_model`, seed 0) and writes three files: the
model, a pin file fixing every B coefficient at its value, and the same
restrictions as expressions ``B[lag][row][col] - value``.  It then runs
``ident`` on the pin file and ``local`` on the expressions, each in a fresh
interpreter, and prints one line per run: the exit code, the payload's
verdict, the wall time of ``ratex.cli.main`` alone, and the interpreter's
``ru_maxrss`` at exit.  Not a test (pytest collects only ``test_*.py``):

    PYTHONPATH=src:tests python3 tests/scale_probe.py [--dir DIR]

The files go to DIR (default: a temporary directory, removed at the end).
Linux keeps a process's peak RSS across fork and exec, so the files are
written by a child of their own, and this process, which imports neither
numpy nor ratex, starts each command.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

SHAPES = ((16, 8, 1, 2), (32, 16, 1, 2))

# run in the child: main() on argv, then one JSON line of what it measured
CHILD = """
import contextlib, io, json, resource, sys, time
from ratex.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
wall = time.perf_counter() - start
verdict = json.loads(out.getvalue() or "{}").get("verdict")
print(json.dumps({"exit_code": code, "verdict": verdict, "wall_s": round(wall, 3),
                  "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def write_files(directory: str, n: int, m: int, lam: int, kappa: int) -> list:
    """The model, all-B pin and all-B expression files of one shape."""
    import numpy as np

    from conftest import make_valid_model

    model, *_ = make_valid_model(np.random.default_rng(0), n=n, m=m, lam=lam, kappa=kappa)

    def blocks(lm, lo):
        return {str(lag): lm.coefficient(lag).tolist() for lag in range(lo, kappa + 1)}

    spec = {"n": n, "m": m, "lambda": lam, "kappa": kappa,
            "B": blocks(model.B, -lam), "A": blocks(model.A, 0)}
    pins = [{"block": "B", "lag": lag, "row": r + 1, "col": c + 1,
             "value": float(model.B.coefficient(lag)[r, c])}
            for lag in range(-lam, kappa + 1) for c in range(n) for r in range(n)]
    exprs = [f"B[{p['lag']}][{p['row']}][{p['col']}] - {p['value']!r}" for p in pins]
    tag = f"{n}_{m}_{lam}_{kappa}"
    paths = []
    for name, content in (("model", spec), ("pins", {"pins": pins}),
                          ("exprs", {"nonlinear": exprs})):
        path = os.path.join(directory, f"{name}_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        paths.append(path)
    return paths


def run(argv: list) -> dict:
    """One ``ratex`` command in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None, help="where to write the files")
    parser.add_argument("--write-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write_only:         # the child that writes the files
        print(json.dumps([write_files(args.dir, *shape) for shape in SHAPES]))
        return
    with tempfile.TemporaryDirectory() as scratch:
        directory = args.dir or scratch
        os.makedirs(directory, exist_ok=True)
        written = subprocess.run([sys.executable, __file__, "--dir", directory, "--write-only"],
                                 capture_output=True, text=True, check=True)
        for shape, (model, pins, exprs) in zip(SHAPES, json.loads(written.stdout)):
            for command, restrictions in (("ident", pins), ("local", exprs)):
                result = run([command, model, restrictions, "--format", "json-report"])
                print(json.dumps({"shape": list(shape), "command": command,
                                  "restrictions": os.path.basename(restrictions), **result}))


if __name__ == "__main__":
    main()
