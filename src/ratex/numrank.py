"""Numerical rank via singular values with one documented threshold rule."""

from __future__ import annotations

import os

import numpy as np

DEFAULT_TOL_RANK = 1e-10


def env_tol_rank() -> float:
    """Default rank tolerance, overridable through RATEX_TOL_RANK."""
    raw = os.environ.get("RATEX_TOL_RANK")
    return float(raw) if raw else DEFAULT_TOL_RANK


def numerical_rank(mat: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK,
                   scale: float | None = None, shape: tuple | None = None):
    """Rank = number of singular values above tol_rank * scale * max(shape).

    ``scale`` and ``shape`` default to sigma_max and the matrix's own shape;
    a matrix that decides the rank of a larger one passes that one's.

    Returns ``(rank, singular_values, cutoff)``.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    ranks, svals, cutoffs = stacked_rank(mat[None], tol_rank,
                                        None if scale is None else [scale], shape)
    return int(ranks[0]), svals[0], float(cutoffs[0])


def stacked_rank(mats: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK,
                 scale=None, shape: tuple | None = None):
    """:func:`numerical_rank` of each matrix of an (S, rows, cols) stack, from
    one stacked SVD; ``scale`` is a number or one per matrix.

    Returns ``(ranks, singular_values, cutoffs)`` with a leading axis S.
    """
    svals = np.linalg.svd(mats, compute_uv=False)
    ranks, cutoffs = count_above(svals, tol_rank, scale, shape or mats.shape[1:])
    return ranks, svals, cutoffs


def count_above(svals, tol_rank, scale, shape):
    """Singular values (S, k) above each cutoff tol_rank * scale * max(shape),
    the scale defaulting to each row's sigma_max; returns (counts, cutoffs)."""
    if scale is None:
        scale = svals.max(axis=-1, initial=0.0)
    cutoff = tol_rank * np.asarray(scale, dtype=float) * max(shape)
    return (svals > cutoff[..., None]).sum(axis=-1), cutoff
