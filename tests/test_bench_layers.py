"""The benchmark's span tracer (bench/spans.py) names the ratex functions it
wraps by string, so renaming one breaks ``bench/run.py --trace 1`` while
every package test still passes.  This imports the tracer as it stands and
checks its table against the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_layer_is_a_ratex_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for mod_name, fn_name in spans.LAYERS:
        module = importlib.import_module(f"ratex.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"ratex.{mod_name}.{fn_name}"
    # the tracer also counts LaurentMatrix constructions
    assert callable(importlib.import_module("ratex.polylab").LaurentMatrix.from_coeffs)
