"""Output checks for benchmark jobs against the generator's ground truth.

``check`` returns a ``Verdict``: whether the job passed, why not, the
relative error of its numbers against the factored construction (B_minus,
transfer coefficients, spectral density), and for EU failures whether the
reported reason names the right failure mode.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# numbers further than this from the ground truth fail the job
REL_TOL = 1e-6


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    rel_err: float | None = None
    reason_ok: bool | None = None


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rel_err(got, truth):
    got, truth = np.asarray(got), np.asarray(truth)
    _require(got.shape == truth.shape, f"shape {got.shape} != {truth.shape}")
    return float(np.max(np.abs(got - truth)) / max(float(np.max(np.abs(truth))), 1e-300))


def _laurent(payload):
    lags = sorted(int(k) for k in payload)
    return lags[0], np.array([payload[str(k)] for k in range(lags[0], lags[-1] + 1)])


def _poly_product(lo_a, a, lo_b, b):
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[2]))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] @ b[j]
    return lo_a + lo_b, out


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 2, f"{path}: no data rows")
    return rows[0], np.array(rows[1:], dtype=float)


def _check_factorize(job, payload, workdir):
    zeros = np.array(payload["zeros"]).reshape(-1, 2)
    inside = int(np.sum(np.hypot(zeros[:, 0], zeros[:, 1]) < 1.0))
    _require(inside == job["stable"], f"{inside} zeros inside, expected {job['stable']}")
    with open(os.path.join(workdir, job["argv"][1]), encoding="utf-8") as fh:
        spec = json.load(fh)
    lo, prod = _poly_product(*_laurent(payload["b_minus"]), *_laurent(payload["b_plus"]))
    B = {int(k): np.array(v) for k, v in spec["B"].items()}
    scale = max(float(np.max(np.abs(v))) for v in B.values())
    resid = max(float(np.max(np.abs(prod[k] - B.get(lo + k, 0.0)))) for k in range(len(prod)))
    _require(resid <= 1e-8 * max(scale, 1.0), f"B_minus B_plus misses B by {resid:.3e}")
    lags = sorted(job["b_minus"], key=int)
    err = _rel_err([payload["b_minus"].get(lag, np.zeros_like(job["b_minus"][lag]))
                    for lag in lags], [job["b_minus"][lag] for lag in lags])
    _require(err <= REL_TOL, f"B_minus relative error {err:.3e}")
    return err


def _check_solve(job, payload, workdir):
    _require(payload["cf_canonical_input"], "generated model is canonical but was rotated")
    err = _rel_err(payload["transfer"], job["transfer"])
    _require(err <= REL_TOL, f"transfer relative error {err:.3e}")
    return err


def _check_spectrum(job, payload, workdir):
    header, data = _read_csv(os.path.join(workdir, job["out"]))
    re, im = np.array(job["re"]), np.array(job["im"])
    grid, n = re.shape[0], re.shape[1]
    _require(len(header) == 1 + 2 * n * n and data.shape == (grid, len(header)),
             f"spectrum table shape {data.shape}")
    _require(np.allclose(data[:, 0], 2 * np.pi * np.arange(grid) / grid, rtol=1e-11),
             "spectrum frequency column")
    got = data[:, 1::2] + 1j * data[:, 2::2]
    err = _rel_err(got, (re + 1j * im).reshape(grid, n * n))
    _require(err <= REL_TOL, f"spectral density relative error {err:.3e}")
    return err


def _check_simulate(job, payload, workdir):
    header, data = _read_csv(os.path.join(workdir, job["out"]))
    _require(header == ["t"] + [f"y_{i + 1}" for i in range(job["n"])], "simulate header")
    _require(data.shape == (job["T"], job["n"] + 1), f"simulate table shape {data.shape}")
    _require(np.all(np.isfinite(data)), "non-finite simulated values")
    _require(np.array_equal(data[:, 0], np.arange(job["T"])), "simulate time column")
    return None


def _check_equiv(job, payload, workdir):
    oracles = payload["oracles"]
    _require(oracles["kernel"]["equivalent"] == oracles["spectral"]["equivalent"],
             "kernel and spectral oracles disagree")
    return None


def _check_ident(job, payload, workdir):
    if job["verdict"] == "not_identified" and payload["mode"] == "system":
        _require(job["pins"] < payload["equivalence_class_dim"],
                 "fewer pins than the class dimension were expected")
    if job["ds"]:
        _require(payload["ds_agrees"] and payload["ds"]["verdict"] == payload["verdict"],
                 "DS criterion disagrees with the impulse-response test")
    return None


def _check_local(job, payload, workdir):
    _require(payload["rank_locally_constant"] == job["locally_constant"],
             f"rank_locally_constant = {payload['rank_locally_constant']}")
    return None


def _check_generic(job, payload, workdir):
    _require(payload["samples_drawn"] == job["drawn"],
             f"{payload['samples_drawn']} samples drawn, expected {job['drawn']}")
    if job["verdict"] == "evidence_not_identified":
        _require(payload["deficient_count"] == payload["samples_valid"], "non-deficient samples")
    else:
        _require(payload["witness"] is not None, "no witness")
    return None


_KIND_CHECKS = {"factorize": _check_factorize, "solve": _check_solve,
                "spectrum": _check_spectrum, "simulate": _check_simulate,
                "equiv": _check_equiv, "ident": _check_ident, "local": _check_local,
                "generic": _check_generic}


def check(job: dict, code, stdout: str, workdir: str) -> Verdict:
    """Compare one job's exit code and output with what the construction implies."""
    try:
        _require(code == job["exit"], f"exit code {code}, expected {job['exit']}")
        payload = None
        if "json-report" in job["argv"]:
            payload = json.loads(stdout)
            _require(payload["exit_code"] == code, "payload exit_code differs from exit code")
            _require(payload["verdict"] == job["verdict"],
                     f"verdict {payload['verdict']!r}, expected {job['verdict']!r}")
        if code == 2:
            # the reason must name the failure mode; not part of pass/fail
            return Verdict(True, reason_ok=job["reason"] in payload["reason"])
        err = _KIND_CHECKS[job["kind"]](job, payload, workdir)
        _require(err is None or math.isfinite(err), "non-finite error")
        return Verdict(True, rel_err=err)
    except CheckFailed as exc:
        return Verdict(False, str(exc))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")


def read_output(job: dict, stdout: str, workdir: str) -> bytes:
    """Everything a job produced, for byte comparison across repetitions."""
    out = io.BytesIO()
    out.write(stdout.encode())
    if "out" in job:
        with open(os.path.join(workdir, job["out"]), "rb") as fh:
            out.write(fh.read())
    return out.getvalue()
