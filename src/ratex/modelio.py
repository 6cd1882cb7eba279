"""JSON model and restriction files: the one front end for both.

Model files: a JSON object with integer fields n, m, lambda, kappa and
maps "B" (lags -lambda..kappa, n x n blocks) and "A" (lags 0..kappa, n x m
blocks), either at the top (numeric form) or inside "parametrized" next to
"params" (names) and "domain" (one [lo, hi] box per name, default [-1, 1]).
Keys are integer lag strings; an absent lag is zero.  A block is nested
rows, or a bare scalar for a 1 x 1 block.  Numeric entries are finite
numbers; parametrized entries are numbers or expression strings over the
names (+ - * /, unary minus, parentheses, integer powers ^k).  Both forms
go through one decoder, :func:`~ratex.paramdsl.decode_lag_blocks`.

Restriction files: a JSON object with exactly one of "pins" (a list of
{block, lag, row, col, value}, 1-based row and column), "R" and "u"
(default 0), a dense R vec = u in the vec ordering of
:func:`~ratex.identcore.coeff_vec_index`, or "nonlinear" (expression
strings, residuals that vanish at admissible coefficients).  In those
expressions a coefficient reference such as B[-1][1][2] (block, lag,
1-based row and column) is one name token of the same grammar.  An
optional integer "equation" restricts that row of [B | A] alone.

Every malformed file raises :class:`~ratex.paramdsl.ModelFileError`; an
expression syntax error raises its subclass ParseError, with the line and
column in the file's own text.
"""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np

from .identcore import RestrictionSet, coeff_vec_index, coeff_vec_length
from .numrank import numerical_rank
from .paramdsl import (
    HEADER_FIELDS,
    CompiledExprs,
    EvalError,
    ModelFileError,
    decode_lag_blocks,
    json_array,
    json_int,
    json_typed,
    parse_expression,
    parse_model,
)
from .polylab import LaurentMatrix, Model


def _finite(block: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(block)):
        raise ModelFileError(f"{label}: coefficients must be finite")
    return block


def model_from_dict(spec: dict):
    """Decode a model file dict into a Model or ParamMap."""
    json_typed(spec, dict, "model file")
    has_numeric = "B" in spec or "A" in spec
    has_param = "parametrized" in spec
    if has_numeric == has_param:
        raise ModelFileError("exactly one of numeric B/A or 'parametrized' is required")
    if has_param:
        header = {key: spec[key] for key in HEADER_FIELDS if key in spec}
        return parse_model({**json_typed(spec["parametrized"], dict, "parametrized"), **header})
    (n, m, lam, kappa), b_blocks, a_blocks = decode_lag_blocks(spec, float, lambda b, _: b)

    def laurent(name, blocks, cols, lo):
        """The blocks at lags lo..kappa in one array: one finiteness check
        (naming the first bad block in file order), one trim."""
        coeffs = np.zeros((kappa - lo + 1, n, cols))
        for lag, block in blocks.items():
            coeffs[lag - lo] = block
        if not np.isfinite(coeffs).all():
            for lag, block in blocks.items():
                _finite(block, f"{name}[{lag}]")
        return LaurentMatrix.trusted(coeffs, lo).trimmed()

    try:
        return Model(laurent("B", b_blocks, n, -lam), laurent("A", a_blocks, m, 0),
                     lam=lam, kappa=kappa)
    except ValueError as exc:
        raise ModelFileError(str(exc))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ModelFileError(f"{path}: {exc}")


def load_model_file(path: str):
    return model_from_dict(_load_json(path))


# -- restriction files -------------------------------------------------------

_COEFF_REF = re.compile(r"([AB])\[(-?\d+)\]\[(\d+)\]\[(\d+)\]")


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


class _CoeffPositions(dict):
    """Reference name (B[-1][1][2]) -> coeff_vec_index position, decoded on
    first use; any other name is unknown."""

    def __init__(self, *dims):
        super().__init__()
        self.dims = dims  # n, m, kappa, lam, equation

    def __missing__(self, name):
        ref = _COEFF_REF.fullmatch(name)
        if ref is None:
            raise KeyError(name)
        self[name] = _coeff_position(name, ref[1], *map(int, ref.groups()[1:]), *self.dims)
        return self[name]


def compile_nonlinear(exprs, n, m, kappa, lam, equation=None) -> RestrictionSet:
    """Expression strings over coefficient references (B[-1][1][1]) ->
    compiled residual map with its exact Jacobian.  Each reference resolves
    to its coeff_vec_index position once, when the expressions compile."""
    if not all(isinstance(text, str) for text in exprs):
        raise ModelFileError("nonlinear restrictions must be strings")
    trees = [parse_expression(text) for text in exprs]
    try:
        program = CompiledExprs(trees, _CoeffPositions(n, m, kappa, lam, equation))
    except EvalError as exc:
        raise ModelFileError(f"nonlinear restriction: {exc}") from exc
    return RestrictionSet.nonlinear(program.values, len(trees), equation=equation,
                                    jacobian=program.jacobian)


def restrictions_from_dict(spec: dict, n: int, m: int, kappa: int, lam: int) -> RestrictionSet:
    """Decode a restriction file dict against the model's dimensions."""
    json_typed(spec, dict, "restriction file")
    equation = spec.get("equation")
    if equation is not None:
        equation = json_int(equation, "equation")
        if not 1 <= equation <= n:
            raise ModelFileError(f"equation index {equation} outside 1..{n}")
    kinds = [k for k in ("pins", "R", "nonlinear") if k in spec]
    if len(kinds) != 1:
        raise ModelFileError("restriction file needs exactly one of: pins, R, nonlinear")
    kind = kinds[0]

    if kind == "nonlinear":
        return compile_nonlinear(json_typed(spec["nonlinear"], list, "nonlinear"),
                                 n, m, kappa, lam, equation)

    N = coeff_vec_length(n, m, kappa, lam, equation=equation is not None)
    if kind == "pins":
        pins = json_typed(spec["pins"], list, "pins")
        positions, values = [], []
        for k, pin in enumerate(pins):
            try:
                block, lag, row, col = pin["block"], int(pin["lag"]), int(pin["row"]), int(pin["col"])
                value = float(pin["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelFileError(f"pin #{k + 1}: {exc}")
            if not math.isfinite(value):
                raise ModelFileError(f"pin #{k + 1}: value must be finite")
            positions.append(_coeff_position(f"pin #{k + 1}", block, lag, row, col,
                                              n, m, kappa, lam, equation))
            values.append(value)
        R = np.zeros((len(pins), N))
        R[np.arange(len(pins)), positions] = 1.0
        u = np.array(values, dtype=float)
        rank = len(set(positions))     # unit rows: one per distinct position
    else:
        R = _finite(np.atleast_2d(json_array(spec["R"], float, "R")), "R")
        u = _finite(np.atleast_1d(json_array(spec.get("u", np.zeros(len(R))), float, "u")), "u")
        if R.shape[1:] != (N,):
            raise ModelFileError(f"R has shape {R.shape}, expected {N} columns")
        if u.shape != R.shape[:1]:
            raise ModelFileError("R and u row counts differ")
        rank = numerical_rank(R)[0]

    out = RestrictionSet.affine(R, u) if equation is None else \
        RestrictionSet.for_equation(equation, R, u)
    if rank < len(R):
        warnings.warn(f"restriction rows are linearly dependent (row rank {rank} of {len(R)})")
    return out


def load_restriction_file(path: str, model) -> RestrictionSet:
    return restrictions_from_dict(_load_json(path), model.n, model.m, model.kappa, model.lam)
