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
:func:`~ratex.identcore.coeff_vec`, or "nonlinear" (expression
strings, residuals that vanish at admissible coefficients).  In those
expressions a coefficient reference such as B[-1][1][2] (block, lag,
1-based row and column) is one name token of the same grammar.  An
optional integer "equation" restricts that row of [B | A] alone.

Every malformed file raises :class:`~ratex.exprs.ModelFileError`; an
expression syntax error raises its subclass ParseError, with the line and
column in the file's own text.  Errors name pins and references in the
file's terms: 1-based rows and columns, and a lag with its window.

Decoding is one pass per file: pins in one loop over the list, then placed
together, giving the column of each pin's unit row, from which the
equation blocks of R follow (:class:`~ratex.identcore.EquationBlocks`);
the expressions of a "nonlinear" file in one parse into a flat program
(:mod:`ratex.exprs`), its distinct references decoded together by one
regex scan.  Pins and references share one position map,
:func:`_coeff_positions`.
"""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np

from .exprs import ExprParser, ModelFileError
from .identcore import RestrictionSet, coeff_vec_length
from .numrank import numerical_rank
from .paramdsl import (
    HEADER_FIELDS,
    decode_lag_blocks,
    json_array,
    json_int,
    json_object,
    json_typed,
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


def _load_json(path: str, object_pairs_hook=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=object_pairs_hook)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ModelFileError(f"{path}: {exc}")


def load_model_file(path: str):
    """A model file's Model or ParamMap; a lag key given twice literally is
    an error, as any other lag given twice (restriction files, up to
    hundreds of pin objects each, are read without the hook)."""
    return model_from_dict(_load_json(path, json_object))


# -- restriction files -------------------------------------------------------

# a coefficient reference among names joined and closed by the separator
_REFERENCES = re.compile(r"\x00([AB])\[(-?\d+)\]\[(\d+)\]\[(\d+)\](?=\x00)")


def _coeff_positions(is_b, lag, row, col, n, m, kappa, lam, equation):
    """Position of each reference (block B where ``is_b``, else A; 1-based
    row and column) in vec([B_-lam..B_kappa | A_0..A_kappa]), which stacks
    the columns of the concatenation (with ``equation``, its one row, so
    the column alone), and the mask of references outside the coefficient
    space or, with ``equation``, off its row."""
    cols, lo = np.where(is_b, n, m), np.where(is_b, -lam, 0)
    bad = (row < 1) | (row > n) | (col < 1) | (col > cols) | (lag < lo) | (lag > kappa)
    if equation is not None:
        bad |= row != equation
    c = np.where(is_b, (lag + lam) * n, n * (kappa + lam + 1) + lag * m) + col - 1
    return (c if equation is not None else c * n + row - 1), bad


def _reference_error(label, block, lag, row, col, n, m, kappa, lam, equation):
    """Why a reference (block, lag, 1-based row and column) has no position,
    in the file's terms and named by ``label``; None when it has one."""
    cols = n if block == "B" else m
    if not (1 <= row <= n and 1 <= col <= cols):
        return f"{label}: row/col outside 1-based bounds"
    if equation is not None and row != equation:
        return f"{label}: equation-{equation} restrictions may only reference row {equation}"
    if block not in ("B", "A"):
        return f"{label}: block must be 'B' or 'A'"
    lo = -lam if block == "B" else 0
    if not lo <= lag <= kappa:
        return f"{label}: {block} lag {lag} outside {lo}..{kappa}"
    return None


def compile_nonlinear(exprs, n, m, kappa, lam, equation=None) -> RestrictionSet:
    """Expression strings over coefficient references (B[-1][1][1]) ->
    compiled residual map with its exact Jacobian.  The expressions parse
    in one pass, and the distinct references decode to their positions
    (:func:`_coeff_positions`) together, in one scan."""
    if not all(isinstance(text, str) for text in exprs):
        raise ModelFileError("nonlinear restrictions must be strings")
    parser = ExprParser()
    parser.parse(exprs)
    names = list(parser.names)
    fields = _REFERENCES.findall("\x00" + "\x00".join(names) + "\x00")
    dims = (n, m, kappa, lam, equation)
    positions, bad = np.zeros(0, dtype=int), np.zeros(0, dtype=bool)
    if fields:
        blocks, lags, rows, cols = zip(*fields)
        lag, row, col = np.array(list(map(int, lags + rows + cols))).reshape(3, -1)
        is_b = np.frombuffer("".join(blocks).encode(), dtype=np.uint8) == ord("B")
        positions, bad = _coeff_positions(is_b, lag, row, col, *dims)
    if len(fields) < len(names) or bad.any():
        for name in names:
            ref = _REFERENCES.match(f"\x00{name}\x00")
            if ref is None:
                raise ModelFileError(f"nonlinear restriction: unknown identifier '{name}'")
            message = _reference_error(name, ref[1], *map(int, ref.groups()[1:]), *dims)
            if message is not None:
                raise ModelFileError(message)
    program = parser.compile(positions)
    return RestrictionSet.nonlinear(program.values, len(parser.roots), equation=equation,
                                    jacobian=program.jacobian)


def _pin(pin, k: int):
    """A pin's block, lag, row, col and value, its fields checked in order:
    lag, row and col by :func:`json_int`, the value a finite JSON number."""
    try:
        block, lag = pin["block"], pin["lag"]
        if type(lag) is not int:
            lag = json_int(lag, f"pin #{k}: lag")
        row = pin["row"]
        if type(row) is not int:
            row = json_int(row, f"pin #{k}: row")
        col = pin["col"]
        if type(col) is not int:
            col = json_int(col, f"pin #{k}: col")
        value = pin["value"]
    except (KeyError, TypeError) as exc:
        raise ModelFileError(f"pin #{k}: {exc}") from None
    if type(value) is not float and type(value) is not int:
        raise ModelFileError(f"pin #{k}: value must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:           # an integer beyond the floats
        finite = False
    if not finite:
        raise ModelFileError(f"pin #{k}: value must be finite")
    return block, lag, row, col, value


def _decode_pins(pins: list, n, m, kappa, lam, equation):
    """Positions and values of the pins.  Each pin's fields are checked
    (:func:`_pin`) up to the first pin that fails; the positions of the
    pins before it come from :func:`_coeff_positions` together, and the
    first of them without one is reported ahead of that failure."""
    fields, error = [], None
    for k, pin in enumerate(pins, 1):
        try:
            fields.append(_pin(pin, k))
        except ModelFileError as exc:
            error = exc
            break
    blocks, *indices, values = zip(*fields) if fields else ((),) * 5
    # no dtype is forced: a JSON integer beyond int64 makes an object (or
    # float) array, whose entries the mask compares exactly, not an overflow
    lag, row, col = np.array(indices)
    is_b, is_a = (np.array([block == name for block in blocks], dtype=bool) for name in "BA")
    positions, bad = _coeff_positions(is_b, lag, row, col, n, m, kappa, lam, equation)
    bad |= ~(is_b | is_a)
    if bad.any():
        k = int(np.argmax(bad))
        raise ModelFileError(_reference_error(f"pin #{k + 1}", *fields[k][:4],
                                              n, m, kappa, lam, equation))
    if error is not None:
        raise error
    return positions.astype(int), np.array(values, dtype=float)


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
    pinned = None
    if kind == "pins":
        pins = json_typed(spec["pins"], list, "pins")
        pinned, u = _decode_pins(pins, n, m, kappa, lam, equation)
        R = np.zeros((len(pins), N))
        R[np.arange(len(pins)), pinned] = 1.0
        rank = len(set(pinned.tolist()))     # unit rows: one per distinct position
    else:
        R = _finite(np.atleast_2d(json_array(spec["R"], float, "R")), "R")
        u = _finite(np.atleast_1d(json_array(spec.get("u", np.zeros(len(R))), float, "u")), "u")
        if R.shape[1:] != (N,):
            raise ModelFileError(f"R has shape {R.shape}, expected {N} columns")
        if u.shape != R.shape[:1]:
            raise ModelFileError("R and u row counts differ")
        rank = numerical_rank(R)[0]

    out = RestrictionSet.affine(R, u, pinned) if equation is None else \
        RestrictionSet.for_equation(equation, R, u, pinned)
    if rank < len(R):
        warnings.warn(f"restriction rows are linearly dependent (row rank {rank} of {len(R)})")
    return out


def load_restriction_file(path: str, model) -> RestrictionSet:
    return restrictions_from_dict(_load_json(path), model.n, model.m, model.kappa, model.lam)
