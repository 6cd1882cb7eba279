"""Command-line interface: factorize / solve / equiv / ident / generic /
local / spectrum / simulate over JSON model and restriction files.

Exit codes: 0 success (identified / equivalent / witness found), 1 file or
validation errors, 2 solvability failures (existence/uniqueness or
canonical form), 3 negative verdicts (not identified, not equivalent,
evidence of non-identification), 4 inconclusive outcomes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .identcore import (
    RestrictionDimensionError,
    build_ident_system,
    ds_criterion,
    equivalence_class_dim,
    ident_test_affine,
    ident_test_equation,
    obs_equivalent,
    spectral_equivalent,
)
from .modelio import ModelFileError, load_model_file, load_restriction_file
from .numrank import env_tol_rank
from .paramdsl import (
    EvalError,
    ParamMap,
    ParseError,
    SamplerConfig,
    eval_model,
    generic_ident,
    local_ident,
)
from .polylab import LaurentMatrix, SingularMatrixError
from .resolve import (
    NotInvertible,
    RankDeficientC0,
    cf_check_and_normalize,
    simulate,
    solve_model,
    spectral_density,
    unit_circle_grid,
)
from .wienerhopf import FactorizationError, ToleranceConfig

EXIT_OK = 0
EXIT_FILE = 1
EXIT_SOLVE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

_FILE_ERRORS = (ModelFileError, ParseError, RestrictionDimensionError,
                OSError, ValueError, EvalError)
_SOLVE_ERRORS = (FactorizationError, SingularMatrixError, RankDeficientC0, NotInvertible)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _print_matrix(mat, indent="  "):
    for row in np.atleast_2d(mat):
        print(indent + "[ " + "  ".join(_fmt(v) for v in row) + " ]")


def _print_laurent(name: str, lm: LaurentMatrix):
    for lag in range(lm.min_lag, lm.max_lag + 1):
        print(f"{name} [lag {lag}]:")
        _print_matrix(lm.coefficient(lag))


def _laurent_payload(lm: LaurentMatrix):
    return {str(lag): lm.coefficient(lag).tolist()
            for lag in range(lm.min_lag, lm.max_lag + 1)}


def _rank_payload(report):
    return {
        "verdict": report.verdict,
        "required_rank": report.required_rank,
        "numerical_rank": report.numerical_rank,
        "singular_values": [float(s) for s in report.singular_values],
        "gap_ratio": float(report.gap_ratio),
        "warnings": list(report.warnings),
    }


def _emit(args, payload: dict, text_fn) -> int:
    """Render either the stable JSON report or the human-readable text."""
    if args.format == "json-report":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn()
    return payload["exit_code"]


def _load_numeric_model(args):
    loaded = load_model_file(args.model)
    if isinstance(loaded, ParamMap):
        if args.theta is None:
            raise ModelFileError(
                f"{args.model} is parametrized; pass --theta to evaluate it")
        theta = [float(t) for t in args.theta.split(",")]
        return eval_model(loaded, theta)
    return loaded


def _print_rank_report(report, label="identification"):
    print(f"{label}: {report.verdict}")
    print(f"  required rank:  {report.required_rank}")
    print(f"  numerical rank: {report.numerical_rank}")
    print(f"  gap ratio:      {_fmt(report.gap_ratio)}")
    print("  singular values: " + " ".join(_fmt(s) for s in report.singular_values))
    for w in report.warnings:
        print(f"  warning: {w}")


# -- commands ----------------------------------------------------------------


def cmd_factorize(args) -> int:
    tol = ToleranceConfig(boundary=args.tol_boundary)
    model = _load_numeric_model(args)
    try:
        bundle = solve_model(model, tol=tol)
    except _SOLVE_ERRORS as exc:
        payload = {"command": "factorize", "verdict": "eu_failed",
                   "reason": str(exc), "exit_code": EXIT_SOLVE}
        return _emit(args, payload, lambda: print(f"existence/uniqueness fails: {exc}"))
    fac = bundle.factors
    zeros = fac.zeros
    payload = {
        "command": "factorize", "verdict": "factorized", "exit_code": EXIT_OK,
        "b_minus": _laurent_payload(fac.b_minus),
        "b_plus": _laurent_payload(fac.b_plus),
        "zeros": [[z.real, z.imag] for z in zeros],
        "residual": fac.residual, "scale": fac.scale,
    }

    def text():
        if fac.b_minus.max_lag == fac.b_minus.min_lag == 0:
            print("B- = I (no negative lags)")
        else:
            _print_laurent("B-", fac.b_minus)
        _print_laurent("B+", fac.b_plus)
        print("zeros of det(z^lam B):")
        for z in zeros:
            print(f"  {_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i"
                  f"  (|z| = {_fmt(abs(z))})")
        print(f"reconstruction residual: {_fmt(fac.residual)} (scale {_fmt(fac.scale)})")

    return _emit(args, payload, text)


def cmd_solve(args) -> int:
    model = _load_numeric_model(args)
    try:
        bundle = solve_model(model, horizon=max(args.horizon,
                                                (model.n + 1) * model.kappa + model.lam))
        was_canonical = bundle.c0_canonical
        v, bundle = cf_check_and_normalize(bundle)
    except _SOLVE_ERRORS as exc:
        payload = {"command": "solve", "verdict": "solve_failed",
                   "reason": str(exc), "exit_code": EXIT_SOLVE}
        return _emit(args, payload, lambda: print(f"solve failed: {exc}"))
    coeffs = [bundle.transfer.coefficient(j).tolist() for j in range(args.horizon + 1)]
    payload = {
        "command": "solve", "verdict": "solved", "exit_code": EXIT_OK,
        "ma_part": _laurent_payload(bundle.ma_part),
        "a_plus": _laurent_payload(bundle.a_plus),
        "transfer": coeffs,
        "cf_canonical_input": was_canonical,
        "rotation": v.tolist(),
        "c0_rank": bundle.c0_rank,
        "warnings": list(bundle.warnings),
    }

    def text():
        _print_laurent("[B-^-1 A]+", bundle.ma_part)
        _print_laurent("A+", bundle.a_plus)
        for j in range(args.horizon + 1):
            print(f"C_{j}:")
            _print_matrix(bundle.transfer.coefficient(j))
        print(f"CF: {'canonical' if was_canonical else 'rotated into canonical form'}")
        if not was_canonical:
            print("rotation V:")
            _print_matrix(v)
        for w in bundle.warnings:
            print(f"warning: {w}")

    return _emit(args, payload, text)


def cmd_equiv(args) -> int:
    model_a = load_model_file(args.model_a)
    model_b = load_model_file(args.model_b)
    if isinstance(model_a, ParamMap) or isinstance(model_b, ParamMap):
        raise ModelFileError("equiv needs numeric models on both sides")
    try:
        bundle_a = solve_model(model_a)
        bundle_b = solve_model(model_b)
    except _SOLVE_ERRORS as exc:
        payload = {"command": "equiv", "verdict": "solve_failed",
                   "reason": str(exc), "exit_code": EXIT_SOLVE}
        return _emit(args, payload, lambda: print(f"solve failed: {exc}"))

    results = {}
    if args.oracle in ("kernel", "both"):
        eq, resid, scale = obs_equivalent(bundle_a, bundle_b, tol=args.tol)
        results["kernel"] = {"equivalent": eq, "residual": resid, "scale": scale}
    if args.oracle in ("spectral", "both"):
        eq, diff, scale = spectral_equivalent(bundle_a, bundle_b,
                                              grid_size=args.grid, tol=args.tol)
        results["spectral"] = {"equivalent": eq, "residual": diff, "scale": scale}
    verdicts = [r["equivalent"] for r in results.values()]
    if all(verdicts):
        verdict, code = "equivalent", EXIT_OK
    elif not any(verdicts):
        verdict, code = "not_equivalent", EXIT_NEGATIVE
    else:
        verdict, code = "oracles_disagree", EXIT_INCONCLUSIVE
    payload = {"command": "equiv", "verdict": verdict, "exit_code": code,
               "oracles": results}

    def text():
        for name, r in results.items():
            print(f"{name} oracle: {'equivalent' if r['equivalent'] else 'not equivalent'} "
                  f"(residual {_fmt(r['residual'])}, scale {_fmt(r['scale'])})")
        if verdict == "oracles_disagree":
            print("warning: the two oracles disagree; check tolerances")
        print(f"verdict: {verdict}")

    return _emit(args, payload, text)


def cmd_ident(args) -> int:
    model = _load_numeric_model(args)
    restrictions = load_restriction_file(args.restrictions, model)
    try:
        bundle = solve_model(model, horizon=(model.n + 1) * model.kappa + model.lam)
    except _SOLVE_ERRORS as exc:
        payload = {"command": "ident", "verdict": "solve_failed",
                   "reason": str(exc), "exit_code": EXIT_SOLVE}
        return _emit(args, payload, lambda: print(f"solve failed: {exc}"))
    sys_ = build_ident_system(bundle.transfer, model.n, model.m,
                              model.kappa, model.lam, args.tol_rank)
    if restrictions.kind == "equation":
        report = ident_test_equation(sys_, restrictions, model, args.tol_rank)
        label = f"equation {restrictions.equation}"
    elif restrictions.kind == "nonlinear":
        raise ModelFileError("nonlinear restrictions belong to the 'local' command")
    else:
        report = ident_test_affine(sys_, restrictions, model, args.tol_rank)
        label = "system"
    code = EXIT_OK if report.identified else EXIT_NEGATIVE
    payload = {"command": "ident", "mode": label, "exit_code": code,
               "equivalence_class_dim": equivalence_class_dim(sys_),
               "hankel_rank": sys_.hankel_rank, **_rank_payload(report)}

    ds_payload = None
    if args.ds:
        if restrictions.kind != "affine":
            raise ModelFileError("--ds needs system-wide affine restrictions")
        ds_report = ds_criterion(model, restrictions, args.tol_rank)
        ds_payload = _rank_payload(ds_report)
        payload["ds"] = ds_payload
        payload["ds_agrees"] = ds_report.identified == report.identified

    def text():
        _print_rank_report(report, f"{label} identification")
        print(f"equivalence-class dimension: {payload['equivalence_class_dim']}")
        if ds_payload is not None:
            print(f"structural-coefficient criterion: {ds_payload['verdict']} "
                  f"({'agrees' if payload['ds_agrees'] else 'DISAGREES'})")

    return _emit(args, payload, text)


def cmd_generic(args) -> int:
    loaded = load_model_file(args.model)
    if not isinstance(loaded, ParamMap):
        raise ModelFileError("generic needs a parametrized model file")
    restrictions = load_restriction_file(args.restrictions, loaded)
    probes = tuple(tuple(float(t) for t in p.split(",")) for p in (args.probe or ()))
    config = SamplerConfig(num_samples=args.samples, seed=args.seed,
                           min_valid=args.min_valid, probe_points=probes,
                           tol_rank=args.tol_rank)
    report = generic_ident(loaded, restrictions, config)
    code = {"generically_identified": EXIT_OK,
            "evidence_not_identified": EXIT_NEGATIVE,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]
    payload = {
        "command": "generic", "verdict": report.verdict, "exit_code": code,
        "samples_drawn": report.samples_drawn, "samples_valid": report.samples_valid,
        "deficient_count": report.deficient_count,
        "borderline_count": report.borderline_count,
        "invalid_reasons": report.invalid_reasons,
        "notes": list(report.notes),
        "witness": None if report.witness is None else {
            "theta": report.witness[0].tolist(), **_rank_payload(report.witness[1])},
    }

    def text():
        print(f"verdict: {report.verdict}")
        print(f"samples: {report.samples_drawn} drawn, {report.samples_valid} valid, "
              f"{report.deficient_count} rank-deficient, {report.borderline_count} borderline")
        for reason, count in report.invalid_reasons.items():
            print(f"  invalid ({reason}): {count}")
        if report.witness is not None:
            theta = ", ".join(_fmt(t) for t in report.witness[0])
            print(f"witness at theta = ({theta})")
            _print_rank_report(report.witness[1], "witness rank test")
        for note in report.notes:
            print(f"note: {note}")

    return _emit(args, payload, text)


def cmd_local(args) -> int:
    model = _load_numeric_model(args)
    restrictions = load_restriction_file(args.restrictions, model)
    try:
        report = local_ident(model, restrictions, tol_rank=args.tol_rank)
    except _SOLVE_ERRORS as exc:
        payload = {"command": "local", "verdict": "solve_failed",
                   "reason": str(exc), "exit_code": EXIT_SOLVE}
        return _emit(args, payload, lambda: print(f"solve failed: {exc}"))
    if report.locally_identified:
        verdict, code = "locally_identified", EXIT_OK
    elif report.rank_locally_constant:
        verdict, code = "not_locally_identified", EXIT_NEGATIVE
    else:
        verdict, code = "inconclusive_regularity", EXIT_INCONCLUSIVE
    payload = {"command": "local", "verdict": verdict, "exit_code": code,
               "note": report.note,
               "rank_locally_constant": report.rank_locally_constant,
               "probe_ranks": list(report.probe_ranks),
               **_rank_payload(report.rank_report)}

    def text():
        _print_rank_report(report.rank_report, "local identification")
        print(f"verdict: {verdict}")
        print(f"note: {report.note}")

    return _emit(args, payload, text)


def _write_csv(path, header, table):
    """Header and rows of ``table`` as csv.writer writes them (CRLF line
    ends), every entry as _fmt formats it."""
    if path in (None, "-"):
        fh, close = sys.stdout, False
    else:
        fh, close = open(path, "w", newline="", encoding="utf-8"), True
    row = ",".join(["%.12g"] * len(header)) + "\r\n"
    try:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([row % tuple(r) for r in table.tolist()]))
    finally:
        if close:
            fh.close()


def cmd_spectrum(args) -> int:
    model = _load_numeric_model(args)
    try:
        bundle = solve_model(model)
    except _SOLVE_ERRORS as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    grid = unit_circle_grid(args.grid)
    density = spectral_density(model, bundle.a_plus, grid)
    n = model.n
    header = ["omega"]
    for i in range(n):
        for j in range(n):
            header += [f"re_f_{i + 1}_{j + 1}", f"im_f_{i + 1}_{j + 1}"]
    # per point: omega, then re and im of f[0, 0], f[0, 1], ... (row-major)
    omega = 2 * np.pi * np.arange(len(density)) / args.grid
    parts = np.stack([density.real, density.imag], axis=-1).reshape(len(density), 2 * n * n)
    _write_csv(args.out, header, np.column_stack([omega, parts]))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_numeric_model(args)
    try:
        bundle = solve_model(model)
    except _SOLVE_ERRORS as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    path = simulate(bundle, args.T, seed=args.seed)
    # "%.12g" prints every t below 1e12 as the integer itself
    _write_csv(args.out, ["t"] + [f"y_{i + 1}" for i in range(model.n)],
               np.column_stack([np.arange(args.T), path]))
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def _add_common(p, model=True, restrictions=False):
    if model:
        p.add_argument("model", help="model JSON file")
        p.add_argument("--theta", default=None,
                       help="comma-separated parameter values for a parametrized model")
    if restrictions:
        p.add_argument("restrictions", help="restriction JSON file")
    p.add_argument("--format", choices=["text", "json-report"], default="text")
    p.add_argument("--tol-rank", type=float, default=None,
                   help="relative rank threshold (env RATEX_TOL_RANK overrides the default)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratex",
        description="Stationary solutions and identification diagnostics for "
                    "linear rational expectations models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="Wiener-Hopf factorization of B")
    _add_common(p)
    p.add_argument("--tol-boundary", type=float, default=1e-9)
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("solve", help="solution operators and transfer coefficients")
    _add_common(p)
    p.add_argument("--horizon", type=int, default=8)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("equiv", help="observational equivalence of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--oracle", choices=["spectral", "kernel", "both"], default="both")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=["text", "json-report"], default="text")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("ident", help="identification under affine restrictions")
    _add_common(p, restrictions=True)
    p.add_argument("--ds", action="store_true",
                   help="also run the structural-coefficient cross-check (lam = 0 only)")
    p.set_defaults(fn=cmd_ident)

    p = sub.add_parser("generic", help="sampled generic identification of a "
                                       "parametrized model")
    _add_common(p, restrictions=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-valid", type=int, default=16)
    p.add_argument("--probe", action="append", default=None,
                   help="comma-separated theta evaluated before sampling (repeatable)")
    p.set_defaults(fn=cmd_generic)

    p = sub.add_parser("local", help="local identification under nonlinear restrictions")
    _add_common(p, restrictions=True)
    p.set_defaults(fn=cmd_local)

    p = sub.add_parser("spectrum", help="spectral density on a unit-circle grid (CSV)")
    _add_common(p)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("simulate", help="sample path of the stationary solution (CSV)")
    _add_common(p)
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # read at every call: the parser is built once per process
    if getattr(args, "tol_rank", 0.0) is None:
        args.tol_rank = env_tol_rank()
    try:
        return args.fn(args)
    except _FILE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
