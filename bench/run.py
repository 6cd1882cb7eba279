"""Benchmark for ratex: closed-loop CLI jobs over seeded, ground-truthed inputs.

    python3 bench/run.py --workload solve_mix --seed 1 --seconds 35 --trace 0

One process acts as a single closed-loop client: each job is one in-process
``ratex.cli.main([...])`` call, issued as soon as the previous one returns.
Inputs come from ``bench/gen.py`` (run as a child process, which is the
measured set-up) and every job's output is checked against the generator's
ground truth.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports per-layer metrics from a traced run and the tracing overhead.
The last line of standard output is the JSON result.  See bench/README.md.
"""

import os

# BLAS threads are pinned before numpy loads: OpenBLAS's own threading
# turns millisecond rank tests into occasional 0.7 s stalls on small hosts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
                    "rel_err_digits": "digits"}


class Client:
    """Runs jobs through the CLI and checks them; never lets a job abort the run."""

    def __init__(self, cli, jobs, workdir):
        self.cli, self.jobs, self.workdir = cli, jobs, workdir
        self.reference = {}       # job id -> output bytes that passed the full check
        self.attempted = self.failed = self.reason_mismatch = 0
        self.failures = []
        self.rel_errs = []

    def run_job(self, job):
        """One CLI call; returns (seconds, exit code or None, stdout)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(job["argv"])
        except (Exception, SystemExit):
            code = None
            out.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue()

    def verify(self, job, code, stdout, full):
        """Full check on the first run of a job; later runs must repeat its bytes."""
        self.attempted += 1
        try:
            produced = checks.read_output(job, stdout, self.workdir)
        except OSError as exc:
            produced, full = None, True
            stdout += f"\n{exc}"
        if not full and code == job["exit"] and produced == self.reference.get(job["id"]):
            return
        verdict = checks.check(job, code, stdout, self.workdir)
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job['id']} {' '.join(job['argv'][:2])}: {verdict.message}")
        elif full:
            self.reference[job["id"]] = produced
            if verdict.rel_err is not None:
                self.rel_errs.append(verdict.rel_err)
            if verdict.reason_ok is False:
                self.reason_mismatch += 1

    def one_pass(self, tracer=None):
        """Every job once, with the full check (the warm-up pass)."""
        for job in self.jobs:
            if tracer is not None:
                tracer.begin_job(job["argv"][0])
            _, code, stdout = self.run_job(job)
            self.verify(job, code, stdout, full=tracer is None)

    def timed(self, seconds, tracer=None, between=None, count=0):
        """Whole passes over the jobs until ``seconds`` have elapsed.

        Stopping only between passes keeps the job mix of every run the
        same.  ``between`` is called ``count`` times, spread evenly over
        the phase at pass boundaries (set-up repetitions).  Returns a
        ``Timing`` of every job's repeated latencies.
        """
        latencies = [[] for _ in self.jobs]
        interval, done, paused = seconds / (count + 1), 0, 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for job, lat in zip(self.jobs, latencies):
                if tracer is not None:
                    tracer.begin_job(job["argv"][0])
                dt, code, stdout = self.run_job(job)
                lat.append(dt)
                self.verify(job, code, stdout, full=False)
            if done < count and time.perf_counter() - start >= (done + 1) * interval:
                pause = time.perf_counter()
                between()
                paused += time.perf_counter() - pause
                done += 1
        wall = time.perf_counter() - start - paused
        for _ in range(done, count):
            between()
        return Timing(latencies, wall)


class Timing:
    """Latencies of a timed phase, one list per job of the mix.

    The host's speed drops by up to half for seconds at a time, so a job's
    cost is its fastest repetition, and the pass built from those costs
    gives the reported throughput and latency percentiles.  Wall-clock figures over
    all repetitions are kept alongside for reference.
    """

    def __init__(self, latencies, wall):
        self.latencies, self.wall = latencies, wall
        self.jobs = sum(len(lat) for lat in latencies)
        self.best_ms = sorted(1e3 * min(lat) for lat in latencies)

    @property
    def jobs_per_s(self):
        return 1e3 * len(self.best_ms) / sum(self.best_ms)

    def best_ms_q(self, q):
        return statistics.quantiles(self.best_ms, n=100, method="inclusive")[q - 1]

    def wall_figures(self):
        ms = [1e3 * x for lat in self.latencies for x in lat]
        q = statistics.quantiles(ms, n=100, method="inclusive")
        return {"jobs": self.jobs, "wall_s": self.wall, "wall_jobs_per_s": self.jobs / self.wall,
                "wall_ms_p50": q[49], "wall_ms_p90": q[89]}


class Setup:
    """Set-up runs: a fresh interpreter imports numpy, scipy and ratex and
    writes the inputs.  The first run's files are the ones the jobs use;
    every later run must write the same bytes."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times, self.outputs = [], []
        self.jobdir = self.run()

    def run(self):
        target = os.path.join(self.workdir, f"setup{len(self.times)}")
        start = time.perf_counter()
        # a piped stdout makes the wait end at the child's exit; a bare
        # wait with a timeout polls in 50 ms steps
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload",
                        self.workload, "--seed", str(self.seed), "--out", target],
                       check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE)
        self.times.append(time.perf_counter() - start)
        with open(os.path.join(target, "expected.json"), "rb") as fh:
            self.outputs.append(fh.read())
        return target

    @property
    def repeatable(self):
        return all(o == self.outputs[0] for o in self.outputs)


def _environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description="ratex benchmark")
    parser.add_argument("--workload", choices=list(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ratex", "cli.py")):
        print(f"error: ratex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ratex import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported ratex from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    try:
        setup = Setup(args.workload, args.seed, workdir)
        jobdir = setup.jobdir
        with open(os.path.join(jobdir, "expected.json"), encoding="utf-8") as fh:
            jobs = json.load(fh)
        # job files are named relative to the input directory
        os.chdir(jobdir)
        client = Client(cli, jobs, jobdir)
        client.one_pass()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace == 0:
            # the host's speed drifts over seconds, so the set-up repetitions
            # are spread over the timed phase rather than run back to back
            timing = client.timed(args.seconds, between=setup.run, count=SETUP_REPEATS - 1)
            max_err = max(client.rel_errs) if client.rel_errs else 0.0
            metrics = {
                "jobs_per_s": timing.jobs_per_s,
                "job_ms_p50": timing.best_ms_q(50),
                "job_ms_p90": timing.best_ms_q(90),
                "setup_s": statistics.median(setup.times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": (client.attempted - client.failed) / client.attempted,
                "rel_err_digits": -np.log10(max(max_err, 1e-17)),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            extra = {**timing.wall_figures(), "max_rel_err": max_err,
                     "setup_times_s": setup.times}
        else:
            untraced = client.timed(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                client.one_pass(tracer)
                pass_counts = tracer.counts()
                tracer.record = False
                traced = client.timed(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            jps_u, jps_t = untraced.jobs_per_s, traced.jobs_per_s
            layer = tracer.metrics(pass_counts)
            layer["trace.jobs_per_s_untraced"] = (jps_u, "1/s")
            layer["trace.jobs_per_s_traced"] = (jps_t, "1/s")
            layer["trace.overhead_pct"] = (100.0 * (jps_u / jps_t - 1.0), "%")
            layer["check.reason_mismatch"] = (client.reason_mismatch, "count")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            tracer.write_spans(os.path.join(results, f"spans-{tag}.json"))
            print(f"self time per job by layer ({args.workload}, seed {args.seed}, "
                  f"{tracer.jobs} traced jobs)")
            for name, calls, self_ms, share in tracer.self_table():
                print(f"  {name:42s} calls {calls:8d}  self {self_ms:9.3f} ms  {share:6.1%}")
            print(f"tracing overhead: {jps_u:.2f} jobs/s untraced, {jps_t:.2f} traced")
            extra = {"traced_jobs": tracer.jobs, "untraced_jobs": untraced.jobs}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    correct = client.failed == 0 and setup.repeatable
    for line in client.failures:
        print(f"FAILED {line}")
    if not setup.repeatable:
        print("FAILED set-up runs wrote different inputs for the same seed")
    if client.reason_mismatch:
        print(f"known defect: {client.reason_mismatch} EU failure(s) reported with the wrong "
              "reason (see bench/README.md)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": client.attempted, "failed": client.failed,
              "metrics": metrics}
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": _environment(),
                   "reason_mismatch": client.reason_mismatch, "failures": client.failures,
                   **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
