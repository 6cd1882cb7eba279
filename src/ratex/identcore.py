"""Observational-equivalence kernel and identification rank tests.

The first 1 + (n+1)*kappa + lam impulse responses determine a matrix P
whose kernel (after a Kronecker lift) is exactly the linear space carrying
observationally equivalent parameters.  Stacking restriction rows under
P' (x) I_n yields the full-column-rank tests for system-wide and
equation-wise identification, and a structural-coefficient variant gives
the independent cross-check for the pure-VARMA case.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .numrank import DEFAULT_TOL_RANK, numerical_rank
from .polylab import LaurentMatrix, Model
from .resolve import SolutionBundle, TransferSeries, solve_model, spectral_distance

# tolerance for "the restrictions hold at the supplied point"
MEMBERSHIP_RTOL = 1e-8


class RestrictionDimensionError(ValueError):
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


@dataclass(frozen=True)
class RankReport:
    """Outcome of one full-column-rank test, with the evidence attached."""

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
    Nonlinear restrictions supply a residual callable of that same vector.
    """

    kind: str                          # "affine" | "equation" | "nonlinear"
    R: np.ndarray | None = None
    u: np.ndarray | None = None
    equation: int | None = None
    residual_fn: object = None
    r: int = 0

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
    def nonlinear(cls, fn, r: int, equation: int | None = None) -> "RestrictionSet":
        return cls(kind="nonlinear", residual_fn=fn, r=r, equation=equation)


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
    n, m, kappa, lam = model.n, model.m, model.kappa, model.lam
    blocks = [model.B.coefficient(lag) for lag in range(-lam, kappa + 1)]
    blocks += [model.A.coefficient(lag) for lag in range(0, kappa + 1)]
    return np.hstack(blocks).flatten(order="F")


def kernel_vec(B: LaurentMatrix, a_plus_mat: LaurentMatrix,
               n: int, m: int, kappa: int, lam: int) -> np.ndarray:
    """vec([B_-lam .. B_kappa | A+_-lam .. A+_kappa]) for kernel-membership tests."""
    blocks = [B.coefficient(lag) for lag in range(-lam, kappa + 1)]
    blocks += [a_plus_mat.coefficient(lag) for lag in range(-lam, kappa + 1)]
    return np.hstack(blocks).flatten(order="F")


def pad_restriction(R: np.ndarray, n: int, m: int, kappa: int, lam: int,
                    equation: bool = False) -> np.ndarray:
    """Insert the zero block for the negative lags of A+.

    The first n^2(kappa+lam+1) columns (n(kappa+lam+1) in equation mode) act
    on the B coefficients, the rest on the A coefficients; a zero block of
    width nm*lam (m*lam) sits between them in the padded matrix.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    nb = n * (kappa + lam + 1) * (1 if equation else n)
    na = m * (kappa + 1) * (1 if equation else n)
    pad = m * lam * (1 if equation else n)
    if R.shape[1] != nb + na:
        raise RestrictionDimensionError(
            f"restriction matrix has {R.shape[1]} columns, expected {nb + na}")
    return np.hstack([R[:, :nb], np.zeros((R.shape[0], pad)), R[:, nb:]])


# -- system construction ---------------------------------------------------


def build_ident_system(transfer: TransferSeries, n: int, m: int,
                       kappa: int, lam: int,
                       tol_rank: float = DEFAULT_TOL_RANK) -> IdentSystem:
    """Assemble T (block Toeplitz), H (block Hankel) and P = [[-T,-H],[I,0]].

    H's bottom-left block is C_1 and its top-right block is
    C_{(n+1)kappa+lam}; the Hankel rank is the McMillan degree of the
    strictly proper part of the transfer function.
    """
    need = (n + 1) * kappa + lam
    if transfer.horizon < need:
        raise ValueError(f"transfer horizon {transfer.horizon} < required {need}")
    q = kappa + lam + 1
    T = np.zeros((n * q, m * q))
    for i in range(q):
        for j in range(i, q):
            T[i * n:(i + 1) * n, j * m:(j + 1) * m] = transfer.coefficient(j - i)
    H = np.zeros((n * q, m * n * kappa))
    for r in range(q):
        for c in range(n * kappa):
            H[r * n:(r + 1) * n, c * m:(c + 1) * m] = transfer.coefficient(q - r + c)
    P = np.block([[-T, -H],
                  [np.eye(m * q), np.zeros((m * q, n * m * kappa))]])
    rank, svals, _ = numerical_rank(H, tol_rank)
    return IdentSystem(n=n, m=m, kappa=kappa, lam=lam, T=T, H=H, P=P,
                       hankel_rank=rank,
                       hankel_singular_values=svals)


def equivalence_class_dim(sys: IdentSystem) -> int:
    """Dimension of the set of observationally equivalent parameters."""
    dim = sys.n ** 2 * (sys.kappa + sys.lam + 1) - sys.n * sys.hankel_rank
    lower = sys.n ** 2 * (1 + sys.lam)
    if dim < lower:
        raise RuntimeError(
            f"computed dimension {dim} below the structural lower bound {lower}; "
            "the Hankel rank is numerically overestimated")
    return dim


def _system_for_model(model_or_bundle, kappa=None, lam=None):
    if isinstance(model_or_bundle, SolutionBundle):
        bundle = model_or_bundle
    else:
        bundle = solve_model(model_or_bundle)
    model = bundle.model
    kappa = model.kappa if kappa is None else kappa
    lam = model.lam if lam is None else lam
    need = (model.n + 1) * kappa + lam
    if bundle.transfer.horizon < need:
        bundle = solve_model(model, horizon=need)
    return bundle, kappa, lam


def obs_equivalent(bundle_a: SolutionBundle, model_b: Model,
                   tol: float = 1e-8):
    """Kernel-membership test for observational equivalence.

    Returns ``(equivalent, residual, scale)``.  The kernel criterion lives
    in the coefficient space with the joint lag bounds of the two models;
    model_b is solved internally to obtain its extended shock loading.
    """
    ma, mb = bundle_a.model, model_b
    if (ma.n, ma.m) != (mb.n, mb.m):
        raise RestrictionDimensionError("models must share dimensions (n, m)")
    kappa = max(ma.kappa, mb.kappa)
    lam = max(ma.lam, mb.lam)
    bundle_a, kappa, lam = _system_for_model(bundle_a, kappa, lam)
    sys = build_ident_system(bundle_a.transfer, ma.n, ma.m, kappa, lam)
    bundle_b = solve_model(mb)
    xi = kernel_vec(mb.B, bundle_b.a_plus, ma.n, ma.m, kappa, lam)
    X = xi.reshape(ma.n, -1, order="F")
    resid = float(np.max(np.abs(X @ sys.P)))
    scale = max(float(np.max(np.abs(xi))), 1.0) * max(float(np.max(np.abs(sys.P))), 1.0)
    return resid <= tol * scale, resid, scale


def spectral_equivalent(bundle_a: SolutionBundle, bundle_b: SolutionBundle,
                        grid_size: int = 64, tol: float = 1e-8):
    """Spectral-density oracle for observational equivalence."""
    from .resolve import unit_circle_grid

    diff, scale = spectral_distance(bundle_a, bundle_b, unit_circle_grid(grid_size))
    return diff <= tol * scale, diff, scale


# -- rank tests ------------------------------------------------------------


def _rank_report(M: np.ndarray, required: int, tol_rank: float,
                 warn: tuple = ()) -> RankReport:
    rank, svals, cutoff = numerical_rank(M, tol_rank)
    if required <= svals.size and cutoff > 0:
        gap = float(svals[required - 1] / cutoff)
    else:
        gap = 0.0
    verdict = "identified" if rank == required else "not_identified"
    return RankReport(matrix_shape=M.shape, singular_values=svals,
                      numerical_rank=rank, required_rank=required,
                      verdict=verdict, gap_ratio=gap, warnings=warn)


def _membership_warning(R, u, vec, label):
    resid = float(np.max(np.abs(R @ vec - np.asarray(u))))
    if resid > MEMBERSHIP_RTOL * (1.0 + float(np.max(np.abs(u)))):
        return (f"{label} restrictions not satisfied at the point "
                f"(residual {resid:.3e}); the verdict presupposes membership",)
    return ()


def ident_test_affine(sys: IdentSystem, restrictions: RestrictionSet,
                      model: Model | None = None,
                      tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for system-wide identification under R vec = u."""
    if restrictions.kind != "affine":
        raise ValueError("system-wide test needs affine restrictions")
    if restrictions.u is not None and not np.any(restrictions.u):
        raise ValueError("u = 0 is meaningless: the whole scale direction satisfies it")
    n, m, kappa, lam = sys.n, sys.m, sys.kappa, sys.lam
    Rbar = pad_restriction(restrictions.R, n, m, kappa, lam)
    M = np.vstack([np.kron(sys.P.T, np.eye(n)), Rbar])
    warn = ()
    if model is not None:
        warn = _membership_warning(restrictions.R, restrictions.u,
                                   model_coeff_vec(model), "affine")
    required = n * (n + m) * (kappa + lam + 1)
    return _rank_report(M, required, tol_rank, warn)


def ident_test_equation(sys: IdentSystem, restrictions: RestrictionSet,
                        model: Model | None = None,
                        tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Full-column-rank test for identification of a single equation."""
    if restrictions.kind != "equation":
        raise ValueError("equation test needs equation-wise restrictions")
    i = restrictions.equation
    n, m, kappa, lam = sys.n, sys.m, sys.kappa, sys.lam
    if not 1 <= i <= n:
        raise ValueError(f"equation index {i} outside 1..{n}")
    Rbar = pad_restriction(restrictions.R, n, m, kappa, lam, equation=True)
    M = np.vstack([sys.P.T, Rbar])
    warn = ()
    if model is not None:
        vec = model_coeff_vec(model)
        row_vec = vec.reshape(n, -1, order="F")[i - 1]
        warn = _membership_warning(restrictions.R, restrictions.u, row_vec,
                                   f"equation-{i}")
    required = (n + m) * (kappa + lam + 1)
    return _rank_report(M, required, tol_rank, warn)


# -- structural-coefficient cross-check (pure VARMA) ------------------------


def ds_criterion(model: Model, restrictions: RestrictionSet,
                 tol_rank: float = DEFAULT_TOL_RANK) -> RankReport:
    """Identification test populated by (B, A) coefficients instead of
    impulse responses; defined for lam = 0 only and equivalent to
    ident_test_affine there.
    """
    if model.lam != 0:
        raise ValueError("the structural-coefficient criterion requires lam = 0")
    if restrictions.kind != "affine":
        raise ValueError("needs affine restrictions")
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
    keep = np.asarray(keep)
    drop = np.setdiff1d(np.arange(total), keep)
    E = np.eye(total)[keep]
    E_perp = np.eye(total)[drop]

    R_ds = np.vstack([restrictions.R @ E, E_perp])
    M = R_ds @ np.kron(D.T, np.eye(n))
    required = n * n * nb
    return _rank_report(M, required, tol_rank)
