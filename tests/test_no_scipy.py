"""Commands run on numpy alone: scipy is a test oracle, not a dependency.

A clean interpreter imports ratex.cli, runs every numerical command on
small model and restriction files, and must end with no scipy module
loaded.  A stray import would put scipy.linalg back on every command-line
call, where it was most of the start-up time and a third of the memory.
"""

import json
import os
import subprocess
import sys

import ratex
from test_cli import employment_model, mixed_lag_model, write

SCRIPT = """
import json, sys
from ratex.cli import main
codes = {" ".join(argv[:1]): main(argv) for argv in json.loads(sys.argv[1])}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_never_import_scipy(tmp_path):
    model = write(tmp_path / "m.json", mixed_lag_model())
    varma = write(tmp_path / "v.json", {"n": 1, "m": 1, "lambda": 0, "kappa": 1,
                                        "B": {"0": [[1.0]], "1": [[-0.5]]},
                                        "A": {"0": [[1.0]], "1": [[0.3]]}})
    employment = write(tmp_path / "e.json", employment_model())
    pins = write(tmp_path / "p.json", {"pins": [
        {"block": "B", "lag": -1, "row": 1, "col": 1, "value": 1 / 3},
        {"block": "A", "lag": 0, "row": 1, "col": 1, "value": 1.0}]})
    b_pin = write(tmp_path / "b.json", {"pins": [
        {"block": "B", "lag": 1, "row": 1, "col": 1, "value": 1.0}]})
    nonlinear = write(tmp_path / "q.json", {"nonlinear": [
        "B[-1][1][1]^2 - 1/9", "A[0][1][1] - 1"]})
    runs = [["factorize", model], ["solve", varma], ["equiv", model, model],
            ["ident", model, pins], ["generic", employment, b_pin, "--samples", "8"],
            ["local", model, nonlinear],
            ["spectrum", model, "--grid", "8", "--out", str(tmp_path / "s.csv")],
            ["simulate", model, "--T", "20", "--out", str(tmp_path / "y.csv")]]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ratex.__file__))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["codes"]) == {argv[0] for argv in runs}
    assert all(code in (0, 3, 4) for code in result["codes"].values()), result["codes"]
    assert result["scipy"] == []
