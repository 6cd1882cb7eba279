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
    svals = np.linalg.svd(mat, compute_uv=False)
    rank, cutoff = _count_above(svals, tol_rank, scale, shape or mat.shape)
    return rank, svals, cutoff


def left_null_space(mat: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK):
    """Rank of ``mat`` as :func:`numerical_rank` decides it, its singular
    values and an orthonormal basis of null(mat'), all from one SVD."""
    U, svals, _ = np.linalg.svd(mat)
    rank, _ = _count_above(svals, tol_rank, None, mat.shape)
    return rank, svals, U[:, rank:]


def _count_above(svals, tol_rank, scale, shape):
    scale = svals.max(initial=0.0) if scale is None else scale
    cutoff = float(tol_rank * scale * max(shape))
    return int(np.sum(svals > cutoff)), cutoff
