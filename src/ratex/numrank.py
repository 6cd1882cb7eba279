"""Numerical rank via singular values with one documented threshold rule."""

from __future__ import annotations

import os

import numpy as np

from .lapack import svdvals

# relative rank cutoff of stacked_rank (the canonical-form checks), and the
# default of the tolerance that the Hankel and identification rank tests take
DEFAULT_TOL_RANK = 1e-10


class InputError(ValueError):
    """Input that fails validation: a malformed file, or restrictions,
    parameter values or tolerances the requested test cannot use."""


def tolerance(text: str) -> float:
    """A tolerance read from text: a finite number >= 0, else ValueError."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"expected a finite number >= 0, got {text}")
    return value


def env_tol_rank() -> float:
    """Default rank tolerance, overridable through RATEX_TOL_RANK."""
    raw = os.environ.get("RATEX_TOL_RANK")
    if not raw:
        return DEFAULT_TOL_RANK
    try:
        return tolerance(raw)
    except ValueError:
        raise InputError(
            f"RATEX_TOL_RANK must be a finite number >= 0, got {raw!r}") from None


def numerical_rank(mat: np.ndarray):
    """:func:`stacked_rank` of one matrix: ``(rank, singular_values, cutoff)``."""
    ranks, svals, cutoffs = stacked_rank(np.atleast_2d(np.asarray(mat, dtype=float))[None])
    return int(ranks[0]), svals[0], float(cutoffs[0])


def stacked_rank(mats: np.ndarray):
    """Rank of each matrix of an (S, rows, cols) stack: its singular values
    (one stacked SVD) above DEFAULT_TOL_RANK * sigma_max * max(rows, cols).
    Returns ``(ranks, singular_values, cutoffs)`` with a leading axis S."""
    svals = svdvals(mats)
    ranks, cutoffs = count_above(svals, DEFAULT_TOL_RANK, None, mats.shape[1:])
    return ranks, svals, cutoffs


def count_above(svals, tol_rank, scale, shape):
    """Singular values (S, k) above each cutoff tol_rank * scale * max(shape),
    the scale defaulting to each row's sigma_max; returns (counts, cutoffs)."""
    if scale is None:
        scale = svals.max(axis=-1, initial=0.0)
    cutoff = tol_rank * np.asarray(scale, dtype=float) * max(shape)
    return (svals > cutoff[..., None]).sum(axis=-1), cutoff
