"""Wiener-Hopf factorization B = B_minus * B_plus with unit normalization.

B_minus is a polynomial in 1/z equal to the identity at infinity and
invertible outside the open unit disk; B_plus is a polynomial in z
invertible on the closed unit disk.  Existence of this factorization (with
zero partial indices) is exactly the existence/uniqueness condition for a
stationary solution, so failure modes are reported as typed errors that
downstream diagnostics can turn into verdicts.

Algorithm: form P(z) = z**lam * B(z), transpose so the sought monic
degree-lam factor becomes a right divisor, linearize as a block companion
pencil, split its spectrum at the unit circle with one ordered generalized
Schur decomposition (whose eigenvalues are also the zeros counted for the
verdict), and reconstruct the divisor from the deflating subspace.  B_plus
then falls out of the long division B_minus**-1 * B with exact degree cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import ordqz

from .polylab import (
    LaurentMatrix,
    SingularMatrixError,
    companion_pencil,
    lp_mul,
    lp_truncated_inverse_series,
)


class FactorizationError(Exception):
    """The required factorization does not exist (or is numerically unresolvable).

    ``zeros`` holds the zeros of det(z**lam B(z)) when they were computed
    before the failure (empty otherwise), so verdicts can report them.
    """

    def __init__(self, message: str, zeros=()):
        super().__init__(message)
        self.zeros = np.asarray(zeros, dtype=complex)


class ZerosOnUnitCircle(FactorizationError):
    """det(z**lam B(z)) vanishes within the boundary tolerance of |z| = 1."""


class WrongStableCount(FactorizationError):
    """The number of zeros inside the unit circle differs from n * lam."""


class DivisorExtractionSingular(FactorizationError):
    """The deflating-subspace block is numerically singular (nonzero partial indices)."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances for factorization and its certificates."""

    boundary: float = 1e-9          # relative band around |z| = 1 treated as on-circle
    reconstruction: float = 1e-8    # relative bound on max-abs(B - B_minus B_plus)
    extraction_rcond: float = 1e-10  # condition floor for the subspace block


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class WHFactors:
    """Factors of B = B_minus * B_plus, the reconstruction certificate and the
    zeros of det(z**lam B(z)) the factorization was decided on."""

    b_minus: LaurentMatrix
    b_plus: LaurentMatrix
    residual: float
    scale: float = 1.0
    zeros: np.ndarray = field(default_factory=lambda: np.array([], dtype=complex))

    def __post_init__(self):
        n = self.b_minus.rows
        if not np.array_equal(self.b_minus.coefficient(0), np.eye(n)):
            raise ValueError("b_minus must equal the identity at lag 0")


@dataclass(frozen=True)
class EUDiagnostic:
    """Zero locations and counts backing an existence/uniqueness verdict."""

    holds: bool
    reason: str
    zeros: np.ndarray = field(default_factory=lambda: np.array([], dtype=complex))
    stable_count: int = 0
    expected_stable: int = 0
    boundary_count: int = 0


def _classify_zeros(zeros: np.ndarray, boundary: float):
    mods = np.abs(zeros)
    on_band = np.abs(mods - 1.0) <= boundary
    stable = mods < 1.0 - boundary
    return int(np.sum(stable)), int(np.sum(on_band))


def wh_factorize(B: LaurentMatrix, tol: ToleranceConfig | None = None) -> WHFactors:
    """Factor B = B_minus * B_plus or raise a typed FactorizationError.

    Parameters
    ----------
    B : LaurentMatrix
        Square n x n Laurent polynomial matrix; lam is read off as
        max(0, -min_lag) after trimming.
    tol : ToleranceConfig, optional
        Boundary band, reconstruction bound and extraction conditioning.

    The zeros counted are those of det(z**lam B(z)): the generalized
    eigenvalues of the finite part of the companion pencil (see
    :func:`~ratex.polylab.companion_pencil`), infinite ones split off.
    Exactly n * lam of them must lie inside the unit circle.  A positive
    min_lag leaves lam = 0 and contributes n * min_lag zeros at the origin,
    which count as inside, so B = z**k B_plus with k > 0 raises
    WrongStableCount.  One ordered QZ both counts the zeros and yields
    B_minus; the zeros are returned on the factors or the error.

    Raises
    ------
    ZerosOnUnitCircle, WrongStableCount, DivisorExtractionSingular
        The three ways the existence/uniqueness condition fails; an
        identically zero det(B) is reported as ZerosOnUnitCircle.
    """
    tol = tol or DEFAULT_TOL
    if B.rows != B.cols:
        raise ValueError("B must be square")
    B = B.trimmed()
    n = B.rows
    lam = max(0, -B.min_lag)
    scale = max(B.max_abs(), 1.0)

    # The transpose has the same determinant, and B_minus' is a right
    # divisor of (z^lam B)'.
    try:
        A, E, V = companion_pencil(LaurentMatrix(B.coeffs.transpose(0, 2, 1), B.min_lag))
    except SingularMatrixError as exc:
        raise ZerosOnUnitCircle(
            "det(B) is identically zero; B(z) is nowhere invertible") from exc
    zeros = np.array([], dtype=complex)

    def stable_first(alpha, beta):
        # ordqz calls this once with the eigenvalues of the unordered QZ,
        # before reordering, so a failed count never reaches the reorder
        nonlocal zeros
        zeros = alpha / beta
        stable, on_band = _classify_zeros(zeros, tol.boundary)
        if on_band:
            raise ZerosOnUnitCircle(
                f"{on_band} zero(s) of det(z^{lam} B(z)) within {tol.boundary:g} "
                "of the unit circle", zeros)
        if stable != n * lam:
            raise WrongStableCount(
                f"found {stable} zero(s) inside the unit circle, need exactly {n * lam}",
                zeros)
        return np.abs(zeros) < 1.0 - tol.boundary

    if A.size:
        AA, EE, _, _, _, Z = ordqz(A, E, sort=stable_first)
    else:  # det(z^lam B) is constant
        stable_first(zeros, np.ones(0))

    if lam == 0:
        b_minus = LaurentMatrix.identity(n)
        b_plus = B
        return WHFactors(b_minus, b_plus, residual=0.0, scale=scale, zeros=zeros)

    f_coeffs = _stable_monic_divisor(AA, EE, V @ Z, n, lam, tol, zeros)
    b_minus = LaurentMatrix.from_coeffs(
        [f_coeffs[i] for i in range(lam, 0, -1)] + [np.eye(n)], -lam, trim=False)

    kappa = B.max_lag
    b_plus = plus_part_of_bminus_inv_a(b_minus, B)  # exact: B_plus = B_minus^-1 B

    recon = lp_mul(b_minus, b_plus)
    diff = max(abs(recon.coefficient(lag) - B.coefficient(lag)).max()
               for lag in range(-lam, kappa + 1))
    extra = 0.0
    if recon.min_lag < -lam or recon.max_lag > kappa:
        extra = max(abs(recon.coefficient(lag)).max()
                    for lag in range(recon.min_lag, recon.max_lag + 1)
                    if lag < -lam or lag > kappa)
    residual = max(diff, extra)
    if residual > tol.reconstruction * scale:
        raise DivisorExtractionSingular(
            f"reconstruction residual {residual:.3e} exceeds {tol.reconstruction:g} * scale",
            zeros)
    return WHFactors(b_minus, b_plus, residual=residual, scale=scale, zeros=zeros)


def plus_part_of_bminus_inv_a(b_minus: LaurentMatrix, A: LaurentMatrix) -> LaurentMatrix:
    """Nonnegative-lag part of B_minus^-1 A.

    The lag-k coefficient is a finite sum of inverse-series coefficients of
    B_minus against A_{k..max_lag(A)}, so no truncation is involved.
    """
    if A.is_zero:
        return LaurentMatrix.zero(b_minus.rows, A.cols)
    k_a = A.max_lag
    f = lp_truncated_inverse_series(b_minus, k_a)
    out = [sum(f[i] @ A.coefficient(k + i) for i in range(k_a - k + 1))
           for k in range(k_a + 1)]
    return LaurentMatrix.from_coeffs(out, 0)


def _stable_monic_divisor(AA, EE, Z, n: int, lam: int, tol: ToleranceConfig, zeros):
    """Coefficients F_1..F_lam of B_minus = I + sum F_i z^-i.

    Takes the ordered QZ (AA, EE) of the finite part of the companion
    pencil of the transposed polynomial Q(z) = (z^lam B(z))', with the n*lam
    generalized eigenvalues inside the unit circle leading, and its right
    Schur vectors Z mapped back to the full pencil.  The monic right divisor
    of Q of degree lam carrying them is read off that deflating subspace.
    """
    k = n * lam
    Z1 = Z[:, :k]
    U = Z1[:k, :]
    svals = np.linalg.svd(U, compute_uv=False)
    if svals[-1] <= tol.extraction_rcond * max(svals[0], 1.0):
        raise DivisorExtractionSingular(
            "deflating-subspace block is numerically singular; "
            "no monic stable divisor of the required degree exists", zeros)

    if Z.shape[0] > k:
        v_next = Z1[k:k + n, :]
    else:
        # degree-lam polynomial: advance the last block one step via the
        # restricted pencil map W = S_E^-1 S_A
        W = np.linalg.solve(EE[:k, :k], AA[:k, :k])
        v_next = Z1[k - n:k, :] @ W
    L = -v_next @ np.linalg.inv(U)  # [L_0 ... L_{lam-1}] of the monic divisor
    return {i: L[:, (lam - i) * n:(lam - i + 1) * n].T for i in range(1, lam + 1)}


def check_eu(B: LaurentMatrix, tol: ToleranceConfig | None = None):
    """Existence/uniqueness verdict plus zero diagnostics.

    Returns ``(holds, EUDiagnostic)``; never raises for factorization
    failures, which are folded into the verdict.  The zeros are those of
    det(z**lam B(z)) that :func:`wh_factorize` decided on (finite pencil
    eigenvalues only); they are empty when det(B) is identically zero.
    """
    tol = tol or DEFAULT_TOL
    Bt = B.trimmed()
    try:
        zeros, reason = wh_factorize(Bt, tol).zeros, ""
    except FactorizationError as exc:
        zeros, reason = exc.zeros, str(exc)
    stable, on_band = _classify_zeros(zeros, tol.boundary)
    holds = not reason
    return holds, EUDiagnostic(holds, reason, zeros=zeros, stable_count=stable,
                               expected_stable=Bt.rows * max(0, -Bt.min_lag),
                               boundary_count=on_band)
