"""JSON model and restriction files.

Model files carry either a numeric coefficient map (lag-string keys, so
negative lags stay unambiguous) or a parametrized block with expression
entries.  Restriction files carry structured pins, a dense (R, u) pair in
the normative vec ordering, or nonlinear expression strings over named
coefficients like B[-1][1][1] (1-based rows/columns).
"""

from __future__ import annotations

import json
import re

import numpy as np

from .identcore import RestrictionSet, coeff_vec_index, coeff_vec_length
from .numrank import numerical_rank
from .paramdsl import CompiledExprs, expr_names, parse_expression, parse_model
from .polylab import LaurentMatrix, Model


class ModelFileError(ValueError):
    """Malformed model or restriction file."""


def _to_matrix(raw, rows, cols, label):
    if isinstance(raw, (int, float)):
        if (rows, cols) != (1, 1):
            raise ModelFileError(f"{label}: scalar given for a {rows}x{cols} block")
        raw = [[raw]]
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (rows, cols):
        raise ModelFileError(f"{label}: shape {arr.shape} != ({rows}, {cols})")
    if not np.all(np.isfinite(arr)):
        raise ModelFileError(f"{label}: coefficients must be finite")
    return arr


def model_from_dict(spec: dict):
    """Decode a model file dict into a Model or ParamMap."""
    if not isinstance(spec, dict):
        raise ModelFileError("model file must hold a JSON object")
    try:
        n, m = int(spec["n"]), int(spec["m"])
        lam, kappa = int(spec["lambda"]), int(spec["kappa"])
    except KeyError as exc:
        raise ModelFileError(f"missing required field {exc}")
    has_numeric = "B" in spec or "A" in spec
    has_param = "parametrized" in spec
    if has_numeric == has_param:
        raise ModelFileError("exactly one of numeric B/A or 'parametrized' is required")
    if has_param:
        inner = dict(spec["parametrized"])
        inner.update(n=n, m=m, **{"lambda": lam, "kappa": kappa})
        return parse_model(inner)

    def block(key, rows, cols, lo):
        coeffs = np.zeros((kappa - lo + 1, rows, cols))
        for lag_str, raw in dict(spec.get(key, {})).items():
            try:
                lag = int(lag_str)
            except ValueError:
                raise ModelFileError(f"{key} lag key {lag_str!r} is not an integer")
            if not lo <= lag <= kappa:
                raise ModelFileError(f"{key} lag {lag} outside {lo}..{kappa}")
            coeffs[lag - lo] = _to_matrix(raw, rows, cols, f"{key}[{lag}]")
        return LaurentMatrix.from_coeffs(coeffs, lo)

    B = block("B", n, n, -lam)
    A = block("A", n, m, 0)
    try:
        return Model(B, A, lam=lam, kappa=kappa)
    except ValueError as exc:
        raise ModelFileError(str(exc))


def load_model_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{path}: {exc}")
    out = model_from_dict(spec)
    return out


# -- restriction files -------------------------------------------------------

_COEFF_REF = re.compile(r"([AB])\[(-?\d+)\]\[(\d+)\]\[(\d+)\]")


def _ref_name(block, lag, row, col):
    lag_part = f"m{-lag}" if lag < 0 else str(lag)
    return f"_{block}_{lag_part}_{row}_{col}"


def _coeff_position(label, block, lag, row, col, n, m, kappa, lam, equation):
    """coeff_vec_index of a coefficient reference with 1-based row and
    column; every error names the reference by ``label``."""
    cols = n if block == "B" else m
    if not (1 <= row <= n and 1 <= col <= cols):
        raise ModelFileError(f"{label}: row/col outside 1-based bounds")
    if equation is not None and row != equation:
        raise ModelFileError(
            f"{label}: equation-{equation} restrictions may only reference row {equation}")
    try:
        return coeff_vec_index(block, lag, row - 1, col - 1, n, m, kappa, lam,
                               equation=equation is not None)
    except (IndexError, ValueError) as exc:
        raise ModelFileError(f"{label}: {exc}")


def compile_nonlinear(exprs, n, m, kappa, lam, equation=None) -> RestrictionSet:
    """Expression strings over named coefficients -> compiled residual map
    with its exact Jacobian.

    References look like B[-1][1][1] (block, lag, 1-based row, 1-based
    column); in equation mode the row must match the restricted equation.
    Each reference resolves to its coeff_vec_index position once, here.
    """
    refs = {}

    def sub(match):
        block, lag, row, col = (match.group(1), int(match.group(2)),
                                int(match.group(3)), int(match.group(4)))
        name = _ref_name(block, lag, row, col)
        refs[name] = _coeff_position(match.group(0), block, lag, row, col,
                                     n, m, kappa, lam, equation)
        return name

    trees = []
    for text in exprs:
        tree = parse_expression(_COEFF_REF.sub(sub, str(text)))
        stray = expr_names(tree) - set(refs)
        if stray:
            raise ModelFileError(
                f"unknown name(s) in nonlinear restriction: {', '.join(sorted(stray))}")
        trees.append(tree)
    program = CompiledExprs(trees, refs)
    return RestrictionSet.nonlinear(program.values, len(trees), equation=equation,
                                    jacobian=program.jacobian)


def restrictions_from_dict(spec: dict, n: int, m: int, kappa: int, lam: int) -> RestrictionSet:
    """Decode a restriction file dict against the model's dimensions."""
    if not isinstance(spec, dict):
        raise ModelFileError("restriction file must hold a JSON object")
    equation = spec.get("equation")
    if equation is not None:
        equation = int(equation)
        if not 1 <= equation <= n:
            raise ModelFileError(f"equation index {equation} outside 1..{n}")
    kinds = [k for k in ("pins", "R", "nonlinear") if k in spec]
    if len(kinds) != 1:
        raise ModelFileError("restriction file needs exactly one of: pins, R, nonlinear")
    kind = kinds[0]

    if kind == "nonlinear":
        return compile_nonlinear(list(spec["nonlinear"]), n, m, kappa, lam, equation)

    N = coeff_vec_length(n, m, kappa, lam, equation=equation is not None)
    if kind == "pins":
        pins = list(spec["pins"])
        R = np.zeros((len(pins), N))
        u = np.zeros(len(pins))
        for k, pin in enumerate(pins):
            try:
                block = pin["block"]
                lag = int(pin["lag"])
                row = int(pin["row"])
                col = int(pin["col"])
                u[k] = float(pin["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelFileError(f"pin #{k + 1}: {exc}")
            R[k, _coeff_position(f"pin #{k + 1}", block, lag, row, col,
                                 n, m, kappa, lam, equation)] = 1.0
    else:
        R = np.atleast_2d(np.asarray(spec["R"], dtype=float))
        u = np.atleast_1d(np.asarray(spec.get("u", np.zeros(R.shape[0])), dtype=float))
        if R.shape[1] != N:
            raise ModelFileError(f"R has {R.shape[1]} columns, expected {N}")
        if R.shape[0] != u.shape[0]:
            raise ModelFileError("R and u row counts differ")

    rank, _, _ = numerical_rank(R)
    warn = None
    if rank < R.shape[0]:
        warn = f"restriction rows are linearly dependent (row rank {rank} of {R.shape[0]})"
    if equation is not None:
        out = RestrictionSet.for_equation(equation, R, u)
    else:
        out = RestrictionSet.affine(R, u)
    if warn:
        import warnings

        warnings.warn(warn)
    return out


def load_restriction_file(path: str, model) -> RestrictionSet:
    n, m = model.n, model.m
    kappa, lam = model.kappa, model.lam
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"{path}: {exc}")
    return restrictions_from_dict(spec, n, m, kappa, lam)
