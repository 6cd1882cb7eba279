"""Command-line interface: factorize / solve / equiv / ident / generic /
local / spectrum / simulate over JSON model and restriction files.

Report path.  Each ``cmd_*`` function returns one payload dict and prints
nothing; :func:`main` renders it.  ``--format json-report`` prints the
payload as compact JSON with sorted keys, on one line (json's C encoder;
an indent would switch it to the pure-Python one, at over twice the
cost); ``--format text`` (the default) prints the command's text
renderer, which reads only the payload, so a field added to a payload is
there for both formats.  ``spectrum`` and ``simulate`` render their
payload's table as CSV instead.  ``--theta`` evaluates a parametrized
model file; on a numeric one it is an input error.

Failures.  ``main`` is the one place that catches solvability failures
(existence/uniqueness, canonical form, a singular B(z), a solution,
spectral density or simulated path that is not all finite:
``resolve.NOT_FINITE``).  They become the failure payload ``{command,
verdict, reason, exit_code}``, with verdict ``eu_failed`` for
``factorize`` and ``solve_failed`` elsewhere; the CSV commands print its
reason to standard error.  File and validation errors
(InputError, OSError, EvalError) print ``error: ...`` to standard error;
any other exception is a program fault and propagates.  An empty
restriction file, or one the command's rank test cannot use, is a file
error before any numerical work.  So is a Hankel rank above its bound
n * kappa, which only a ``--tol-rank`` too small for the rounding in the
impulse responses counts (``generic`` marks such a draw invalid).  Each
distinct library UserWarning prints once, as ``warning: ...`` on
standard error.

Exit codes (``main`` returns them, never raising SystemExit): 0 success
(identified / equivalent / witness found) or ``--help``, 1 usage errors
(argparse's message goes to standard error) and file or validation
errors, 2 solvability failures (existence/uniqueness or canonical form),
3 negative verdicts (not identified, not equivalent, evidence of
non-identification), 4 inconclusive outcomes.

Caveat: the ``local`` payload's ``verdict`` is the rank test's verdict
(``identified`` / ``not_identified``); the local verdict itself follows
from ``exit_code`` (0 locally identified, 3 not locally identified, 4
inconclusive regularity), and that is what its text ``verdict:`` line shows.

Settings.  An option that a library routine also takes reads its default
from the library.  Each with its default, constant and the decision it makes:

- ``factorize --tol-boundary``: 1e-9, ``wienerhopf.BOUNDARY_TOL``, the band
  around |z| = 1 whose zeros of det(z^lam B) fail existence/uniqueness.
- ``equiv --tol`` and ``--grid``: 1e-8 and 64, ``identcore.EQUIV_RTOL`` and
  ``EQUIV_GRID``, the relative residual under which an oracle finds the
  models equivalent and the unit-circle points of the spectral oracle.
- ``ident``, ``generic`` and ``local --tol-rank``: 1e-10,
  ``numrank.DEFAULT_TOL_RANK``, the rank cutoff of the Hankel rank and the
  identification rank tests, nothing else.
- ``generic --samples``, ``--seed`` and ``--min-valid``: 64, 0 and 16, the
  ``paramdsl.SamplerConfig`` fields ``num_samples``, ``seed`` and
  ``min_valid``: the draws, their seed, and the valid draws that evidence
  of non-identification needs.
- Membership takes no option: ``identcore.membership`` bounds the residual
  of any restrictions at the model's point x by ``MEMBERSHIP_RTOL`` (1e-8)
  times 1 + max |x|.  ``ident`` and ``generic``'s witness warn past it;
  ``local`` rejects the point before any numerical work.

The canonical-form checks (rank C_0, rank drops of the moving-average
part) take no option: ``solve`` and ``generic`` alike decide them at
``DEFAULT_TOL_RANK``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .exprs import EvalError, ModelFileError
from .identcore import (
    EQUIV_GRID,
    EQUIV_RTOL,
    InputError,
    check_test_kind,
    ds_criterion,
    equivalence_class_dim,
    ident_test_affine,
    ident_test_equation,
    model_ident_system,
    obs_equivalent,
    spectral_equivalent,
)
from .modelio import load_model_file, load_restriction_file
from .numrank import DEFAULT_TOL_RANK, tolerance
from .paramdsl import (
    ParamMap,
    SamplerConfig,
    eval_model,
    generic_ident,
    local_ident,
)
from .polylab import SingularMatrixError
from .resolve import (
    NotInvertible,
    RankDeficientC0,
    cf_check_and_normalize,
    simulate,
    solve_model,
    solve_models,
    spectral_density,
    unit_circle_grid,
)
from .wienerhopf import BOUNDARY_TOL, FactorizationError, wh_factorize

EXIT_OK = 0
EXIT_FILE = 1
EXIT_SOLVE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4

_FILE_ERRORS = (InputError, OSError, EvalError)
_SOLVE_ERRORS = (FactorizationError, SingularMatrixError, RankDeficientC0, NotInvertible)

_LOCAL_VERDICTS = {EXIT_OK: "locally_identified", EXIT_NEGATIVE: "not_locally_identified",
                   EXIT_INCONCLUSIVE: "inconclusive_regularity"}


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _laurent_payload(lm):
    return {str(lm.min_lag + k): c.tolist() for k, c in enumerate(lm.coeffs)}


def _rank_payload(report):
    return {
        "verdict": report.verdict,
        "required_rank": report.required_rank,
        "numerical_rank": report.numerical_rank,
        "singular_values": [float(s) for s in report.singular_values],
        "gap_ratio": float(report.gap_ratio),
        "warnings": list(report.warnings),
    }


def _load_numeric_model(args):
    """The model of ``args.model``, a parametrized one evaluated at
    ``--theta``, which only such a file takes."""
    loaded = load_model_file(args.model)
    if isinstance(loaded, ParamMap):
        if args.theta is None:
            raise ModelFileError(
                f"{args.model} is parametrized; pass --theta to evaluate it")
        return eval_model(loaded, args.theta)
    if args.theta is not None:
        raise ModelFileError(f"{args.model} is numeric; --theta applies to parametrized models")
    return loaded


# -- commands: each returns its payload --------------------------------------


def cmd_factorize(args) -> dict:
    model = _load_numeric_model(args)
    fac = wh_factorize(model.B, args.tol_boundary)
    return {
        "verdict": "factorized", "exit_code": EXIT_OK,
        "b_minus": _laurent_payload(fac.b_minus),
        "b_plus": _laurent_payload(fac.b_plus),
        "zeros": [[z.real, z.imag] for z in fac.zeros],
        "residual": fac.residual, "scale": fac.scale,
    }


def cmd_solve(args) -> dict:
    model = _load_numeric_model(args)
    bundle = solve_model(model, horizon=args.horizon)
    was_canonical = bundle.c0_canonical
    v, bundle = cf_check_and_normalize(bundle)
    return {
        "verdict": "solved", "exit_code": EXIT_OK,
        "ma_part": _laurent_payload(bundle.ma_part),
        "a_plus": _laurent_payload(bundle.a_plus),
        "transfer": bundle.transfer.coeffs.tolist(),
        "cf_canonical_input": was_canonical,
        "rotation": v.tolist(),
        "c0_rank": bundle.c0_rank,
        "warnings": list(bundle.warnings),
    }


def cmd_equiv(args) -> dict:
    model_a = load_model_file(args.model_a)
    model_b = load_model_file(args.model_b)
    if isinstance(model_a, ParamMap) or isinstance(model_b, ParamMap):
        raise ModelFileError("equiv needs numeric models on both sides")
    bundle_a, bundle_b = solve_models([model_a, model_b])
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
    return {"verdict": verdict, "exit_code": code, "oracles": results}


def cmd_ident(args) -> dict:
    model = _load_numeric_model(args)
    restrictions = load_restriction_file(args.restrictions, model)
    if restrictions.kind == "nonlinear":
        raise ModelFileError("nonlinear restrictions belong to the 'local' command")
    equation = restrictions.kind == "equation"
    # checked before any numerical work (the rank test repeats it for library callers)
    check_test_kind(restrictions, model.n, equation)
    # needs no solution, and rejects lam > 0 and non-affine restrictions
    ds_report = ds_criterion(model, restrictions, args.tol_rank) if args.ds else None
    sys_ = model_ident_system(model, args.tol_rank)
    report = (ident_test_equation if equation else ident_test_affine)(
        sys_, restrictions, model, args.tol_rank)
    label = f"equation {restrictions.equation}" if equation else "system"
    payload = {"mode": label, "exit_code": EXIT_OK if report.identified else EXIT_NEGATIVE,
               "equivalence_class_dim": equivalence_class_dim(sys_),
               "hankel_rank": sys_.hankel_rank, **_rank_payload(report)}
    if ds_report is not None:
        payload["ds"] = _rank_payload(ds_report)
        payload["ds_agrees"] = ds_report.identified == report.identified
    return payload


def cmd_generic(args) -> dict:
    loaded = load_model_file(args.model)
    if not isinstance(loaded, ParamMap):
        raise ModelFileError("generic needs a parametrized model file")
    restrictions = load_restriction_file(args.restrictions, loaded)
    probes = tuple(tuple(p) for p in (args.probe or ()))
    config = SamplerConfig(num_samples=args.samples, seed=args.seed,
                           min_valid=args.min_valid, probe_points=probes,
                           tol_rank=args.tol_rank)
    report = generic_ident(loaded, restrictions, config)
    code = {"generically_identified": EXIT_OK,
            "evidence_not_identified": EXIT_NEGATIVE,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]
    return {
        "verdict": report.verdict, "exit_code": code,
        "samples_drawn": report.samples_drawn, "samples_valid": report.samples_valid,
        "deficient_count": report.deficient_count,
        "borderline_count": report.borderline_count,
        "invalid_reasons": report.invalid_reasons,
        "notes": list(report.notes),
        "witness": None if report.witness is None else {
            "theta": report.witness[0].tolist(), **_rank_payload(report.witness[1])},
    }


def cmd_local(args) -> dict:
    model = _load_numeric_model(args)
    restrictions = load_restriction_file(args.restrictions, model)
    report = local_ident(model, restrictions, tol_rank=args.tol_rank)
    code = (EXIT_OK if report.locally_identified else
            EXIT_NEGATIVE if report.rank_locally_constant else EXIT_INCONCLUSIVE)
    # the rank payload's "verdict" is the one reported; see the module docstring
    return {"exit_code": code, "note": report.note,
            "rank_locally_constant": report.rank_locally_constant,
            "probe_ranks": list(report.probe_ranks),
            **_rank_payload(report.rank_report)}


def cmd_spectrum(args) -> dict:
    model = _load_numeric_model(args)
    bundle = solve_model(model, horizon=0)      # A_plus is all it reads
    density = spectral_density(model, bundle.a_plus, unit_circle_grid(args.grid))
    n = model.n
    header = ["omega"]
    for i in range(n):
        for j in range(n):
            header += [f"re_f_{i + 1}_{j + 1}", f"im_f_{i + 1}_{j + 1}"]
    # per point: omega, then re and im of f[0, 0], f[0, 1], ... (row-major)
    omega = 2 * np.pi * np.arange(len(density)) / args.grid
    parts = np.stack([density.real, density.imag], axis=-1).reshape(len(density), 2 * n * n)
    return {"exit_code": EXIT_OK, "out": args.out, "header": header,
            "table": np.column_stack([omega, parts])}


def cmd_simulate(args) -> dict:
    model = _load_numeric_model(args)
    # simulate extends the series it needs itself; the bundle's C_0 is enough
    path = simulate(solve_model(model, horizon=0), args.T, seed=args.seed)
    # "%.12g" prints every t below 1e12 as the integer itself
    return {"exit_code": EXIT_OK, "out": args.out,
            "header": ["t"] + [f"y_{i + 1}" for i in range(model.n)],
            "table": np.column_stack([np.arange(args.T), path])}


# -- renderers: each reads only the payload ----------------------------------


def _print_matrix(mat):
    for row in np.atleast_2d(mat):
        print("  [ " + "  ".join(_fmt(v) for v in row) + " ]")


def _print_laurent(name: str, coeffs: dict):
    for lag, coeff in coeffs.items():
        print(f"{name} [lag {lag}]:")
        _print_matrix(coeff)


def _print_rank_report(p: dict, label: str):
    print(f"{label}: {p['verdict']}")
    print(f"  required rank:  {p['required_rank']}")
    print(f"  numerical rank: {p['numerical_rank']}")
    print(f"  gap ratio:      {_fmt(p['gap_ratio'])}")
    print("  singular values: " + " ".join(_fmt(s) for s in p["singular_values"]))
    for w in p["warnings"]:
        print(f"  warning: {w}")


def _text_factorize(p):
    if list(p["b_minus"]) == ["0"]:
        print("B- = I (no negative lags)")
    else:
        _print_laurent("B-", p["b_minus"])
    _print_laurent("B+", p["b_plus"])
    print("zeros of det(z^lam B):")
    for re, im in p["zeros"]:
        print(f"  {_fmt(re)} {'+' if im >= 0 else '-'} {_fmt(abs(im))}i"
              f"  (|z| = {_fmt(abs(complex(re, im)))})")
    print(f"reconstruction residual: {_fmt(p['residual'])} (scale {_fmt(p['scale'])})")


def _text_solve(p):
    _print_laurent("[B-^-1 A]+", p["ma_part"])
    _print_laurent("A+", p["a_plus"])
    for j, coeff in enumerate(p["transfer"]):
        print(f"C_{j}:")
        _print_matrix(coeff)
    print(f"CF: {'canonical' if p['cf_canonical_input'] else 'rotated into canonical form'}")
    if not p["cf_canonical_input"]:
        print("rotation V:")
        _print_matrix(p["rotation"])
    for w in p["warnings"]:
        print(f"warning: {w}")


def _text_equiv(p):
    for name, r in p["oracles"].items():
        print(f"{name} oracle: {'equivalent' if r['equivalent'] else 'not equivalent'} "
              f"(residual {_fmt(r['residual'])}, scale {_fmt(r['scale'])})")
    if p["verdict"] == "oracles_disagree":
        print("warning: the two oracles disagree; check tolerances")
    print(f"verdict: {p['verdict']}")


def _text_ident(p):
    _print_rank_report(p, f"{p['mode']} identification")
    print(f"equivalence-class dimension: {p['equivalence_class_dim']}")
    if "ds" in p:
        print(f"structural-coefficient criterion: {p['ds']['verdict']} "
              f"({'agrees' if p['ds_agrees'] else 'DISAGREES'})")


def _text_generic(p):
    print(f"verdict: {p['verdict']}")
    print(f"samples: {p['samples_drawn']} drawn, {p['samples_valid']} valid, "
          f"{p['deficient_count']} rank-deficient, {p['borderline_count']} borderline")
    for reason, count in p["invalid_reasons"].items():
        print(f"  invalid ({reason}): {count}")
    if p["witness"] is not None:
        print(f"witness at theta = ({', '.join(_fmt(t) for t in p['witness']['theta'])})")
        _print_rank_report(p["witness"], "witness rank test")
    for note in p["notes"]:
        print(f"note: {note}")


def _text_local(p):
    _print_rank_report(p, "local identification")
    print(f"verdict: {_LOCAL_VERDICTS[p['exit_code']]}")
    print(f"note: {p['note']}")


def _write_csv(p):
    """Header and rows of the payload's table as csv.writer writes them
    (CRLF line ends), every entry as _fmt formats it, in one write."""
    table = p["table"]
    row = ",".join(["%.12g"] * len(p["header"])) + "\r\n"
    text = ",".join(p["header"]) + "\r\n" + (row * len(table)) % tuple(table.ravel().tolist())
    if p["out"] in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(p["out"], "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _render(args, payload: dict):
    if args.format == "json-report":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif "reason" in payload:
        lead = "existence/uniqueness fails" if payload["verdict"] == "eu_failed" else "solve failed"
        # the CSV commands keep standard output for the table
        print(f"{lead}: {payload['reason']}", file=sys.stderr if args.format == "csv" else None)
    else:
        args.render(payload)


# -- argument wiring ---------------------------------------------------------


def _int_from(low: int):
    """argparse type: an integer >= ``low``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return int(text)

    return integer


def float_list(text: str) -> list:
    """argparse type of --theta and --probe: comma-separated numbers."""
    return [float(t) for t in text.split(",")]


def _add_common(p, restrictions=False, theta=True, report=True):
    p.add_argument("model", help="model JSON file")
    if theta:
        p.add_argument("--theta", type=float_list, default=None,
                       help="comma-separated parameter values for a parametrized model")
    if restrictions:
        p.add_argument("restrictions", help="restriction JSON file")
        p.add_argument("--tol-rank", type=tolerance, default=DEFAULT_TOL_RANK,
                       help="relative rank threshold")
    if report:
        p.add_argument("--format", choices=["text", "json-report"], default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratex",
        description="Stationary solutions and identification diagnostics for "
                    "linear rational expectations models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="Wiener-Hopf factorization of B")
    _add_common(p)
    p.add_argument("--tol-boundary", type=tolerance, default=BOUNDARY_TOL)
    p.set_defaults(fn=cmd_factorize, render=_text_factorize)

    p = sub.add_parser("solve", help="solution operators and transfer coefficients")
    _add_common(p)
    p.add_argument("--horizon", type=_int_from(0), default=8)
    p.set_defaults(fn=cmd_solve, render=_text_solve)

    p = sub.add_parser("equiv", help="observational equivalence of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--oracle", choices=["spectral", "kernel", "both"], default="both")
    p.add_argument("--grid", type=_int_from(1), default=EQUIV_GRID)
    p.add_argument("--tol", type=tolerance, default=EQUIV_RTOL)
    p.add_argument("--format", choices=["text", "json-report"], default="text")
    p.set_defaults(fn=cmd_equiv, render=_text_equiv)

    p = sub.add_parser("ident", help="identification under affine restrictions")
    _add_common(p, restrictions=True)
    p.add_argument("--ds", action="store_true",
                   help="also run the structural-coefficient cross-check (lam = 0 only)")
    p.set_defaults(fn=cmd_ident, render=_text_ident)

    p = sub.add_parser("generic", help="sampled generic identification of a "
                                       "parametrized model")
    _add_common(p, restrictions=True, theta=False)
    p.add_argument("--samples", type=_int_from(0), default=SamplerConfig.num_samples)
    p.add_argument("--seed", type=_int_from(0), default=SamplerConfig.seed)
    p.add_argument("--min-valid", type=_int_from(1), default=SamplerConfig.min_valid)
    p.add_argument("--probe", type=float_list, action="append", default=None,
                   help="comma-separated theta evaluated before sampling (repeatable)")
    p.set_defaults(fn=cmd_generic, render=_text_generic)

    p = sub.add_parser("local", help="local identification (the ident test on affine files)")
    _add_common(p, restrictions=True)
    p.set_defaults(fn=cmd_local, render=_text_local)

    p = sub.add_parser("spectrum", help="spectral density on a unit-circle grid (CSV)")
    _add_common(p, report=False)
    p.add_argument("--grid", type=_int_from(0), default=64)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_spectrum, render=_write_csv, format="csv")

    p = sub.add_parser("simulate", help="sample path of the stationary solution (CSV)")
    _add_common(p, report=False)
    p.add_argument("--T", type=_int_from(0), default=1000)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(fn=cmd_simulate, render=_write_csv, format="csv")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (code 0) or a usage error (code 2)
        return EXIT_OK if not exc.code else EXIT_FILE
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)    # _show_warning keeps the first
        warnings.showwarning = functools.partial(_show_warning, set(), warnings.showwarning)
        try:
            try:
                payload = args.fn(args)
            except _SOLVE_ERRORS as exc:
                payload = {"verdict": "eu_failed" if args.command == "factorize"
                           else "solve_failed", "reason": str(exc), "exit_code": EXIT_SOLVE}
            payload["command"] = args.command
            _render(args, payload)
        except _FILE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FILE
    return payload["exit_code"]


def _show_warning(seen: set, show, message, category, *where, **kwargs):
    """``warnings.showwarning`` inside :func:`main`: one ``warning: ...``
    line per distinct UserWarning message; other warnings go to ``show``."""
    if not issubclass(category, UserWarning):
        show(message, category, *where, **kwargs)
    elif str(message) not in seen:
        seen.add(str(message))
        print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
