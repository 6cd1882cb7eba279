"""Observational-equivalence kernel and identification rank tests.

The first 1 + (n+1)*kappa + lam impulse responses determine a matrix P
whose left kernel, with basis N, holds exactly the observationally equivalent
parameters.  Restrictions R identify the model iff R (N (x) I_n), or R N for
one equation, has full column rank; a structural-coefficient variant gives
the independent cross-check for the pure-VARMA case.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .numrank import DEFAULT_TOL_RANK, InputError, count_above, stacked_rank
from .polylab import LaurentMatrix, Model
from .resolve import (SolutionBundle, TransferSeries, solve_model, spectral_distance,
                      unit_circle_grid)

# tolerance for "the restrictions hold at the supplied point"
MEMBERSHIP_RTOL = 1e-8


class RestrictionDimensionError(InputError):
    """Restriction matrix columns do not match the coefficient space."""


@dataclass(frozen=True)
class IdentSystem:
    """T, H, P built from a transfer series at given dimensions and lag bounds."""

    n: int
    m: int
    kappa: int
    lam: int
    T: np.ndarray
    H: np.ndarray
    P: np.ndarray
    hankel_rank: int
    hankel_singular_values: np.ndarray
    N: np.ndarray                     # null(P') on [B_-lam..B_kappa | A_0..A_kappa]

    @cached_property
    def p_norm(self) -> float:
        """|P|_F, as :func:`p_norm` computes it for a stack."""
        return float(p_norm(self.T[None], self.H[None])[0])


@dataclass(frozen=True)
class RankReport:
    """Outcome of one full-column-rank test, with the evidence attached.

    The system and equation tests rank R (N (x) I_n) or R N: the shape and
    singular values are that matrix's, ``required_rank`` is n * dim N (the
    equivalence-class dimension) or dim N, and the shortfall of
    ``numerical_rank`` is the rank deficiency of [P' (x) I_n; R] or [P'; R].
    """

    matrix_shape: tuple
    singular_values: np.ndarray
    numerical_rank: int
    required_rank: int
    verdict: str                      # "identified" | "not_identified"
    gap_ratio: float                  # margin of sigma[required-1] over the cutoff
    warnings: tuple = field(default_factory=tuple)

    @property
    def identified(self) -> bool:
        return self.verdict == "identified"


@dataclass(frozen=True)
class RestrictionSet:
    """Affine (system or single-equation) or nonlinear restrictions.

    Affine rows act on vec([B_-lam .. B_kappa | A_0 .. A_kappa]) in
    column-stacking order; equation mode restricts row i (1-based) only.
    Nonlinear restrictions supply a residual callable of that same vector
    and, when they come from compiled expressions, its exact Jacobian.
    """

    kind: str                          # "affine" | "equation" | "nonlinear"
    R: np.ndarray | None = None
    u: np.ndarray | None = None
    equation: int | None = None
    residual_fn: object = None
    r: int = 0
    jacobian_fn: object = None         # x -> d residual / dx (nonlinear only)

    @classmethod
    def affine(cls, R, u) -> "RestrictionSet":
        R = np.atleast_2d(np.asarray(R, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if R.shape[0] != u.shape[0]:
            raise RestrictionDimensionError("R and u row counts differ")
        if not np.any(u):
            _warnings.warn("u = 0 pins only the scale direction, which every "
                           "equivalence class contains; the system test will reject it")
        return cls(kind="affine", R=R, u=u, r=R.shape[0])

    @classmethod
    def for_equation(cls, i: int, R, u) -> "RestrictionSet":
        R = np.atleast_2d(np.asarray(R, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if R.shape[0] != u.shape[0]:
            raise RestrictionDimensionError("R and u row counts differ")
        if i < 1:
            raise ValueError("equation index is 1-based")
        return cls(kind="equation", R=R, u=u, equation=i, r=R.shape[0])

    @classmethod
    def nonlinear(cls, fn, r: int, equation: int | None = None,
                  jacobian=None) -> "RestrictionSet":
        """Residual map ``fn``; ``jacobian`` is its exact Jacobian, and
        without one :meth:`jacobian` falls back to central differences."""
        return cls(kind="nonlinear", residual_fn=fn, r=r, equation=equation,
                   jacobian_fn=jacobian)

    def jacobian(self, x) -> np.ndarray:
        """Jacobian of the restriction map at x: R for affine restrictions,
        the exact Jacobian of compiled expressions, and central differences
        only for an opaque residual callable."""
        if self.kind != "nonlinear":
            return self.R
        if self.jacobian_fn is not None:
            return self.jacobian_fn(x)
        from .paramdsl import fd_jacobian  # paramdsl imports this module

        return fd_jacobian(self.residual_fn, x)


# -- coefficient vectorization (normative ordering) ------------------------


def coeff_vec_length(n: int, m: int, kappa: int, lam: int, equation: bool = False) -> int:
    if equation:
        return n * (kappa + lam + 1) + m * (kappa + 1)
    return n * n * (kappa + lam + 1) + n * m * (kappa + 1)


def coeff_vec_index(block: str, lag: int, row: int, col: int,
                    n: int, m: int, kappa: int, lam: int, equation: bool = False) -> int:
    """Position of a coefficient entry in vec([B_-lam..B_kappa | A_0..A_kappa]).

    ``row``/``col`` are 0-based here; vec stacks the columns of the
    horizontal concatenation.  With ``equation`` the vector is the single
    row ``row`` of that concatenation (see :func:`coeff_vec_length`), so the
    position is the column index alone.
    """
    if block == "B":
        if not (-lam <= lag <= kappa) or not (0 <= row < n and 0 <= col < n):
            raise IndexError(f"B[{lag}][{row}][{col}] outside the coefficient space")
        c = (lag + lam) * n + col
    elif block == "A":
        if not (0 <= lag <= kappa) or not (0 <= row < n and 0 <= col < m):
            raise IndexError(f"A[{lag}][{row}][{col}] outside the coefficient space")
        c = n * (kappa + lam + 1) + lag * m + col
    else:
        raise ValueError("block must be 'B' or 'A'")
    return c if equation else c * n + row


def model_coeff_vec(model: Model) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A_0 .. A_kappa]) at the model's declared bounds."""
    return coeff_vec(model.B.window(-model.lam, model.kappa), model.A.window(0, model.kappa))


def coeff_vec(b_blocks, a_blocks) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A_0 .. A_kappa]) from the two lists of blocks."""
    return np.hstack(list(b_blocks) + list(a_blocks)).flatten(order="F")


def kernel_vec(B: LaurentMatrix, a_plus_mat: LaurentMatrix,
               n: int, m: int, kappa: int, lam: int) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A+_-lam .. A+_kappa]) for kernel-membership tests."""
    return coeff_vec(B.window(-lam, kappa), a_plus_mat.window(-lam, kappa))


# -- system construction ---------------------------------------------------


def build_ident_system(transfer: TransferSeries, n: int, m: int,
                       kappa: int, lam: int,
                       tol_rank: float = DEFAULT_TOL_RANK) -> IdentSystem:
    """Assemble T (block Toeplitz), H (block Hankel), P = [[-T,-H],[I,0]], N.

    H's bottom-left block is C_1 and its top-right block is
    C_{(n+1)kappa+lam}; the Hankel rank is the McMillan degree of the
    strictly proper part of the transfer function.  P' [x_B; x_A] = 0 iff
    H' x_B = 0 and x_A = T' x_B; N keeps the rows of A_0..A_kappa.
    """
    need = (n + 1) * kappa + lam
    if transfer.horizon < need:
        raise ValueError(f"transfer horizon {transfer.horizon} < required {need}")
    T, H = toeplitz_hankel(transfer.coeffs[None], n, m, kappa, lam)
    ranks, svals, groups = kernel_bases(T, H, m, lam, tol_rank)
    T, H = T[0], H[0]
    q = kappa + lam + 1
    P = np.block([[-T, -H],
                  [np.eye(m * q), np.zeros((m * q, n * m * kappa))]])
    return IdentSystem(n=n, m=m, kappa=kappa, lam=lam, T=T, H=H, P=P,
                       hankel_rank=int(ranks[0]),
                       hankel_singular_values=svals[0], N=groups[ranks[0]][1][0])


def toeplitz_hankel(C: np.ndarray, n: int, m: int, kappa: int, lam: int):
    """T and H of :func:`build_ident_system` for each transfer series of an
    (S, horizon + 1, n, m) stack, by one gather each."""
    S, need, q = C.shape[0], (n + 1) * kappa + lam, kappa + lam + 1
    Cz = np.concatenate([C[:, :need + 1], np.zeros((S, 1, n, m))], axis=1)
    i, j = np.arange(q)[:, None], np.arange(q)[None, :]
    T = Cz[:, np.where(j >= i, j - i, need + 1)]            # block (i, j) = C_{j-i}
    H = Cz[:, q - i + np.arange(n * kappa)[None, :]]        # block (r, c) = C_{q-r+c}
    return (T.transpose(0, 1, 3, 2, 4).reshape(S, n * q, m * q),
            H.transpose(0, 1, 3, 2, 4).reshape(S, n * q, m * n * kappa))


def kernel_bases(T: np.ndarray, H: np.ndarray, m: int, lam: int, tol_rank: float):
    """Hankel rank, Hankel singular values and N = null(P') of each sample of
    a (T, H) stack, from one stacked SVD of H.

    N has n*q - rank columns, so the bases come grouped by Hankel rank:
    ``{rank: (sample indices, N stack)}``.  The rank cutoff scales with the
    larger of sigma_max(H) and the largest coefficient in T, so a Hankel
    block of rounding noise next to C_0 has rank 0.
    """
    U, svals, _ = np.linalg.svd(H)
    scale = np.maximum(svals.max(axis=-1, initial=0.0), np.abs(T).max(axis=(1, 2)))
    ranks, _ = count_above(svals, tol_rank, scale, H.shape[1:])
    groups = {}
    for rank in sorted(set(ranks.tolist())):
        lanes = np.flatnonzero(ranks == rank)
        Ur = U[lanes][:, :, rank:]
        groups[rank] = (lanes, np.concatenate(
            [Ur, T[lanes][:, :, m * lam:].swapaxes(1, 2) @ Ur], axis=1))
    return ranks, svals, groups


def p_norm(T: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Frobenius norm of P = [[-T, -H], [I, 0]] for each sample of a stack."""
    return np.sqrt((T * T).sum(axis=(1, 2)) + (H * H).sum(axis=(1, 2)) + T.shape[2])


def equivalence_class_dim(sys: IdentSystem) -> int:
    """Dimension of the set of observationally equivalent parameters."""
    dim = sys.n ** 2 * (sys.kappa + sys.lam + 1) - sys.n * sys.hankel_rank
    lower = sys.n ** 2 * (1 + sys.lam)
    if dim < lower:
        raise RuntimeError(
            f"computed dimension {dim} below the structural lower bound {lower}; "
            "the Hankel rank is numerically overestimated")
    return dim


def obs_equivalent(bundle_a: SolutionBundle, bundle_b: SolutionBundle,
                   tol: float = 1e-8):
    """Kernel-membership test for observational equivalence.

    Returns ``(equivalent, residual, scale)``.  The kernel criterion lives
    in the coefficient space with the joint lag bounds of the two models;
    model b enters through its B and its extended shock loading.
    """
    ma, mb = bundle_a.model, bundle_b.model
    if (ma.n, ma.m) != (mb.n, mb.m):
        raise RestrictionDimensionError("models must share dimensions (n, m)")
    kappa = max(ma.kappa, mb.kappa)
    lam = max(ma.lam, mb.lam)
    need = (ma.n + 1) * kappa + lam
    if bundle_a.transfer.horizon < need:
        bundle_a = solve_model(ma, horizon=need)
    sys = build_ident_system(bundle_a.transfer, ma.n, ma.m, kappa, lam)
    xi = kernel_vec(mb.B, bundle_b.a_plus, ma.n, ma.m, kappa, lam)
    X = xi.reshape(ma.n, -1, order="F")
    resid = float(np.max(np.abs(X @ sys.P)))
    scale = max(float(np.max(np.abs(xi))), 1.0) * max(float(np.max(np.abs(sys.P))), 1.0)
    return resid <= tol * scale, resid, scale


def spectral_equivalent(bundle_a: SolutionBundle, bundle_b: SolutionBundle,
                        grid_size: int = 64, tol: float = 1e-8):
    """Spectral-density oracle for observational equivalence."""
    if bundle_a.model.n != bundle_b.model.n:
        raise RestrictionDimensionError("models must share the dimension n")
    diff, scale = spectral_distance(bundle_a, bundle_b, unit_circle_grid(grid_size))
    return diff <= tol * scale, diff, scale


# -- rank tests ------------------------------------------------------------


def _rank_report(M: np.ndarray, required: int, tol_rank: float,
                 scale: float | None = None, shape: tuple | None = None) -> RankReport:
    ranks, svals, gaps = rank_stack(M[None], required, tol_rank,
                                    None if scale is None else [scale], shape)
    return lane_report(M.shape, ranks[0], svals[0], required, gaps[0])


def rank_stack(M: np.ndarray, required: int, tol_rank: float, scale=None,
               shape: tuple | None = None):
    """Ranks, singular values and gap ratios (the margin of
    sigma[required - 1] over the cutoff, 0 without one) of an (S, rows,
    cols) stack."""
    ranks, svals, cutoffs = stacked_rank(M, tol_rank, scale, shape)
    if required > svals.shape[1]:
        return ranks, svals, np.zeros(len(M))
    gaps = np.divide(svals[:, required - 1], cutoffs, out=np.zeros(len(M)), where=cutoffs > 0)
    return ranks, svals, gaps


def lane_report(shape: tuple, rank, svals: np.ndarray, required: int, gap) -> RankReport:
    """The RankReport of one sample of :func:`rank_stack`."""
    verdict = "identified" if rank == required else "not_identified"
    return RankReport(matrix_shape=tuple(shape), singular_values=svals,
                      numerical_rank=int(rank), required_rank=required,
                      verdict=verdict, gap_ratio=float(gap))


def _kernel_rank_test(sys: IdentSystem, R: np.ndarray, equation: bool,
                      tol_rank: float) -> RankReport:
    """:func:`kernel_rank_stack` for one system."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    shape, ranks, svals, gaps = kernel_rank_stack(
        sys.N[None], R, 1 if equation else sys.n,
        np.array([sys.p_norm]), sys.P.shape, tol_rank)
    return lane_report(shape, ranks[0], svals[0], shape[1], gaps[0])


def kernel_rank_stack(N: np.ndarray, R: np.ndarray, n: int, pnorm: np.ndarray,
                      p_shape: tuple, tol_rank: float):
    """Rank R (N (x) I_n), or R N for one equation (n = 1), for each basis of
    an (S, rows, dim N) stack, at the cutoff of the stack [P' (x) I_n; R]
    or [P'; R]; R N has no scale of its own, so max(|P|_F, |R|_F) stands in
    for the stack's sigma_max.  Returns (shape of R (N (x) I_n), ranks,
    singular values, gap ratios)."""
    rows, cols = R.shape[0], n * N.shape[1]
    if R.shape[1] != cols:
        raise RestrictionDimensionError(
            f"restriction matrix has {R.shape[1]} columns, expected {cols}")
    # RN[z, k, (s, j)] = sum_c R[k, (c, s)] N[z, c, j], one matmul over the stack; the
    # columns of R (N (x) I_n) in another order, which leaves the singular values alone
    Rt = R.reshape(rows, N.shape[1], n).transpose(0, 2, 1).reshape(rows * n, N.shape[1])
    RN = (Rt @ N).reshape(len(N), rows, -1)
    stacked = (n * p_shape[1] + rows, n * p_shape[0])
    scale = np.maximum(pnorm, np.linalg.norm(R))
    return (RN.shape[1:],) + rank_stack(RN, RN.shape[2], tol_rank, scale, stacked)


def _membership_warning(R, u, vec, label):
    resid = float(np.max(np.abs(R @ vec - np.asarray(u))))
    if resid > MEMBERSHIP_RTOL * (1.0 + float(np.max(np.abs(u)))):
        return (f"{label} restrictions not satisfied at the point "
                f"(residual {resid:.3e}); the verdict presupposes membership",)
    return ()


def check_test_kind(restrictions: RestrictionSet, n: int, equation: bool):
    """Raise InputError when the restrictions cannot drive the system-wide
    test (``equation`` false) or the equation test of an n-equation model."""
    if not equation:
        if restrictions.kind != "affine":
            raise InputError("system-wide test needs affine restrictions")
        if restrictions.u is not None and not np.any(restrictions.u):
            raise InputError("u = 0 is meaningless: the whole scale direction satisfies it")
        return
    if restrictions.kind != "equation":
        raise InputError("equation test needs equation-wise restrictions")
    if not 1 <= restrictions.equation <= n:
        raise InputError(f"equation index {restrictions.equation} outside 1..{n}")


def membership_warnings(restrictions: RestrictionSet, vec: np.ndarray, n: int) -> tuple:
    """Warning when affine or equation restrictions miss the point whose
    coefficient vector (:func:`coeff_vec`) is ``vec``."""
    if restrictions.kind == "equation":
        i = restrictions.equation
        return _membership_warning(restrictions.R, restrictions.u,
                                   vec.reshape(n, -1, order="F")[i - 1], f"equation-{i}")
    return _membership_warning(restrictions.R, restrictions.u, vec, "affine")


def ident_test_affine(sys: IdentSystem, restrictions: RestrictionSet,
                      model: Model | None = None,
                      tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for system-wide identification under R vec = u."""
    check_test_kind(restrictions, sys.n, equation=False)
    report = _kernel_rank_test(sys, restrictions.R, False, tol_rank)
    if model is None:
        return report
    return replace(report, warnings=membership_warnings(
        restrictions, model_coeff_vec(model), sys.n))


def ident_test_equation(sys: IdentSystem, restrictions: RestrictionSet,
                        model: Model | None = None,
                        tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for identification of a single equation."""
    check_test_kind(restrictions, sys.n, equation=True)
    report = _kernel_rank_test(sys, restrictions.R, True, tol_rank)
    if model is None:
        return report
    return replace(report, warnings=membership_warnings(
        restrictions, model_coeff_vec(model), sys.n))


# -- structural-coefficient cross-check (pure VARMA) ------------------------


def ds_criterion(model: Model, restrictions: RestrictionSet,
                 tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Identification test populated by (B, A) coefficients instead of
    impulse responses; defined for lam = 0 only and equivalent to
    ident_test_affine there.
    """
    if model.lam != 0:
        raise InputError("the structural-coefficient criterion requires lam = 0")
    if restrictions.kind != "affine":
        raise InputError("the structural-coefficient criterion needs system-wide "
                         "affine restrictions")
    n, m, kappa = model.n, model.m, model.kappa
    nb = 1 + (n + 1) * kappa          # block count of the lifted space
    expected_cols = coeff_vec_length(n, m, kappa, 0)
    if restrictions.R.shape[1] != expected_cols:
        raise RestrictionDimensionError(
            f"R has {restrictions.R.shape[1]} columns, expected {expected_cols}")

    # block-Toeplitz D: row block i carries B_{j-i} / A_{j-i} at column block j
    D = np.zeros((n * nb, (n + m) * nb))
    for i in range(nb):
        for j in range(i, min(i + kappa, nb - 1) + 1):
            D[i * n:(i + 1) * n, j * n:(j + 1) * n] = model.B.coefficient(j - i)
            D[i * n:(i + 1) * n, n * nb + j * m:n * nb + (j + 1) * m] = \
                model.A.coefficient(j - i)

    # selector E keeps the lag 0..kappa blocks of the lifted coefficient vector
    keep = []
    for j in range(kappa + 1):
        for col in range(j * n, (j + 1) * n):
            keep.extend(range(col * n, (col + 1) * n))
    for j in range(kappa + 1):
        for col in range(n * nb + j * m, n * nb + (j + 1) * m):
            keep.extend(range(col * n, (col + 1) * n))
    total = n * (n + m) * nb
    drop = np.setdiff1d(np.arange(total), keep)

    # [R E; E_perp] K, with the selectors E and E_perp applied as row picks
    K = np.kron(D.T, np.eye(n))
    M = np.vstack([restrictions.R @ K[keep], K[drop]])
    required = n * n * nb
    return _rank_report(M, required, tol_rank)
