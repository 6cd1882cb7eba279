"""The commands that take no seed load neither numpy.random nor numpy.ma.

numpy.random (about 5.6 MB of resident memory) serves only the
user-seeded streams of ``generic`` and ``simulate``; numpy.ma (0.3-0.4 MB),
which a plain ``np.unique`` loads, serves no command.  The pytest process
has both loaded already, so the commands run in one fresh interpreter.
"""

import json
import os
import subprocess
import sys

from test_cli import ident_point_model, mixed_lag_model, write

SCRIPT = """
import contextlib, io, json, sys
from ratex import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]}))
"""


def test_unseeded_commands_load_neither_numpy_random_nor_numpy_ma(tmp_path):
    model = write(tmp_path / "m.json", mixed_lag_model())
    # z B(z) = (z - 1)(z - 0.5): a zero on the circle, found by a split whose
    # counts need grouping
    unit_root = write(tmp_path / "u.json", {"n": 1, "m": 1, "lambda": 1, "kappa": 1,
                                            "B": {"-1": 0.5, "0": -1.5, "1": 1.0},
                                            "A": {"0": 1.0}})
    varma = write(tmp_path / "v.json", {
        "n": 2, "m": 2, "lambda": 0, "kappa": 1,
        "B": {"0": [[1, 0], [0, 1]], "1": [[-0.5, 0.1], [0.2, -0.3]]},
        "A": {"0": [[1, 0], [0.5, 1]]}})
    # one row joins B_0[1,1] and B_0[2,2], so equations 1 and 2 share a block
    row = [0.0] * 16
    row[0] = row[3] = 1.0
    cross = write(tmp_path / "cross.json", {"R": [row], "u": [2.0]})
    point = write(tmp_path / "p.json", ident_point_model())
    identifying = write(tmp_path / "id.json", {"nonlinear": ["B[-1][1][1]^2 - 0.04",
                                                             "A[0][1][1] - 1.0"]})
    deficient = write(tmp_path / "def.json", {"nonlinear": ["B[-1][1][1]^2 - 0.04"]})
    argvs = [["factorize", model], ["factorize", unit_root], ["solve", model],
             ["equiv", model, model], ["ident", varma, cross],
             ["local", point, identifying], ["local", point, deficient],
             ["spectrum", model, "--grid", "8", "--out", str(tmp_path / "s.csv")]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 2, 0, 0, 3, 0, 3, 0]
    assert result["loaded"] == []
