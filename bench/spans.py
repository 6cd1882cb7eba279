"""Span tracer that wraps ratex layer functions from outside the package.

Callers bind layer functions by name (``from .resolve import solve_model``),
so a function is wrapped at every ``ratex`` module attribute that holds it.
Each wrapped call records a span (name, start, end, parent); a layer's
self time is its span minus the time its child spans cover.  Aggregates
cover every traced job; raw spans are kept for one pass over the jobs
(bounded memory) and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced as spans
LAYERS = (
    ("cli", "main"), ("cli", "build_parser"),
    ("modelio", "load_model_file"), ("modelio", "load_restriction_file"),
    ("polylab", "lp_det_and_zeros"), ("polylab", "lp_mul"),
    ("wienerhopf", "wh_factorize"),
    ("resolve", "solve_model"), ("resolve", "cf_check_and_normalize"),
    ("resolve", "_rank_drop_points"), ("resolve", "spectral_density"),
    ("resolve", "simulate"),
    ("identcore", "build_ident_system"), ("identcore", "ident_test_affine"),
    ("identcore", "ident_test_equation"), ("identcore", "ds_criterion"),
    ("identcore", "obs_equivalent"), ("identcore", "spectral_equivalent"),
    ("numrank", "numerical_rank"),
    ("paramdsl", "eval_model"), ("paramdsl", "generic_ident"),
    ("paramdsl", "local_ident"), ("paramdsl", "fd_jacobian"),
)
COMMANDS = ("factorize", "solve", "equiv", "ident", "generic", "local", "spectrum", "simulate")


# counts derived from a traced call's arguments or result: matrix cells
# ranked, samples drawn
UNITS = {"numrank.numerical_rank": lambda args, result: int(np.size(args[0])),
         "paramdsl.generic_ident": lambda args, result: result.samples_drawn}


class _Stat:
    __slots__ = ("calls", "self_s", "durations", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")
        self.units = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.command_self = {}          # command -> cli.main self seconds
        self.command_jobs = {}          # command -> traced jobs
        self.jobs = 0
        self.spans = []                 # (job, name, start, end, parent index)
        self.record = True
        self.from_coeffs_calls = 0
        self._stack = []
        self._command = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, command):
        self.jobs += 1
        self._command = command
        self.command_jobs[command] = self.command_jobs.get(command, 0) + 1

    def _wrap(self, name, fn):
        units = UNITS.get(name)
        stats = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = -1
            if self.record:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self_s = duration - frame[2]
                stats.calls += 1
                stats.self_s += self_s
                stats.durations.append(duration)
                if units is not None and result is not None:
                    stats.units += units(args, result)
                if name == "cli.main":
                    self.command_self[self._command] = (
                        self.command_self.get(self._command, 0.0) + self_s)
                if index >= 0:
                    self.spans[index] = (self.jobs - 1, name, frame[1], end, parent)

        return wrapper

    def install(self):
        """Wrap every traced function at each ratex attribute bound to it."""
        modules = [m for k, m in sys.modules.items() if k == "ratex" or k.startswith("ratex.")]
        for mod_name, fn_name in LAYERS:
            orig = getattr(sys.modules[f"ratex.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        lm = sys.modules["ratex.polylab"].LaurentMatrix
        orig_cm = lm.__dict__["from_coeffs"]
        inner = orig_cm.__func__

        def from_coeffs(cls, *args, **kwargs):
            self.from_coeffs_calls += 1
            return inner(cls, *args, **kwargs)

        self._patches.append((lm, "from_coeffs", orig_cm))
        lm.from_coeffs = classmethod(functools.wraps(inner)(from_coeffs))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, pass_counts):
        """Per-layer metrics; ``pass_counts`` holds the counts of one pass."""
        out = {}
        jobs = max(self.jobs, 1)
        for mod_name, fn_name in LAYERS:
            name = f"{mod_name}.{fn_name}"
            st = self.stats.get(name, _Stat())
            out[f"{name}.calls"] = (pass_counts[name]["calls"], "count")
            out[f"{name}.self_ms"] = (1e3 * st.self_s / jobs, "ms")
            out[f"{name}.ms_p50"] = (1e3 * statistics.median(st.durations) if st.calls else 0.0,
                                     "ms")
        for cmd in COMMANDS:
            n = self.command_jobs.get(cmd, 0)
            out[f"cli.main.{cmd}.self_ms"] = (
                1e3 * self.command_self.get(cmd, 0.0) / n if n else 0.0, "ms")
        out["numrank.numerical_rank.cells"] = (pass_counts["numrank.numerical_rank"]["units"],
                                               "count")
        out["polylab.LaurentMatrix.from_coeffs.calls"] = (pass_counts["from_coeffs"], "count")
        gen = self.stats.get("paramdsl.generic_ident", _Stat())
        out["paramdsl.generic_ident.ms_per_sample"] = (
            1e3 * sum(gen.durations) / gen.units if gen.units else 0.0, "ms")
        return out

    def counts(self):
        """Snapshot of the exact counts (calls, units) so far."""
        snap = {name: {"calls": st.calls, "units": st.units} for name, st in self.stats.items()}
        snap["from_coeffs"] = self.from_coeffs_calls
        return snap

    def self_table(self):
        """Rows (layer, calls, self ms per job, share of traced time), largest first."""
        total = sum(st.self_s for st in self.stats.values()) or 1.0
        jobs = max(self.jobs, 1)
        rows = [(name, st.calls, 1e3 * st.self_s / jobs, st.self_s / total)
                for name, st in self.stats.items() if st.calls]
        return sorted(rows, key=lambda r: -r[2])

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)

