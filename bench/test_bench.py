"""Tests of the benchmark itself: metric coverage, checks, failure accounting.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from ratex import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric(workload, trace, section):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_generator_is_deterministic_in_the_seed():
    a, b, c = (json.dumps(gen.build("ident_mix", s).jobs) for s in (5, 5, 6))
    assert a == b != c


def _client(tmp_path, monkeypatch, workload, main=None):
    inputs = gen.build(workload, 4)
    gen.write(inputs, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    fake = cli if main is None else type("FakeCli", (), {"main": staticmethod(main)})
    return run.Client(fake, inputs.jobs, str(tmp_path))


def test_wrong_expected_verdict_counts_as_failed(tmp_path, monkeypatch):
    client = _client(tmp_path, monkeypatch, "ident_mix")
    job = next(j for j in client.jobs if j["verdict"] == "identified")
    job["verdict"] = "not_identified"
    client.one_pass()
    assert client.failed == 1 and client.attempted == len(client.jobs)
    assert "verdict" in client.failures[0]


def test_exception_in_a_job_is_a_failure_not_an_abort(tmp_path, monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")

    client = _client(tmp_path, monkeypatch, "generic_scan", main=boom)
    client.one_pass()
    assert client.failed == client.attempted == len(client.jobs)


def test_wrong_spectrum_numbers_fail(tmp_path, monkeypatch):
    client = _client(tmp_path, monkeypatch, "solve_mix")
    job = next(j for j in client.jobs if j["kind"] == "spectrum")
    job["re"][0][0][0] += 1.0
    client.one_pass()
    assert client.failed == 1 and "spectral density" in client.failures[0]


def test_eu_reason_is_checked_apart_from_pass_fail(tmp_path, monkeypatch):
    client = _client(tmp_path, monkeypatch, "solve_mix")
    job = next(j for j in client.jobs if j.get("case") == "origin_zero")
    payload = {"exit_code": 2, "verdict": job["verdict"]}
    right = checks.check(job, 2, json.dumps({**payload, "reason": "found 2 zero(s) inside "
                                             "the unit circle, need exactly 0"}), str(tmp_path))
    wrong = checks.check(job, 2, json.dumps({**payload, "reason": "lag-0 coefficient of "
                                             "B_plus is singular"}), str(tmp_path))
    assert right.ok and right.reason_ok
    assert wrong.ok and wrong.reason_ok is False
    client.one_pass()
    assert client.failed == 0
    # zeros at the origin are dropped (ROADMAP "Now"); a fix brings this to 0
    assert client.reason_mismatch in (0, 2)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "solve_mix", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
