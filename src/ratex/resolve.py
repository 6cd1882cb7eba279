"""Stationary-solution objects: moving-average part, extended shock loading,
transfer series, canonical-form normalization, spectral density, simulation.

For a valid model the solution is Y_t = B_plus^-1(L) M(L) eps_t where
M = [B_minus^-1 A]_+ is a polynomial, equivalently Y_t = B^-1(L) A_plus(L)
eps_t with A_plus = B_minus M.  Both routes are implemented; tests assert
they produce the same transfer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numrank import DEFAULT_TOL_RANK, numerical_rank
from .polylab import (
    LaurentMatrix,
    Model,
    SingularMatrixError,
    lp_det_and_zeros,
    lp_mul,
    lp_series_divide,
)
from .wienerhopf import ToleranceConfig, WHFactors, plus_part_of_bminus_inv_a, wh_factorize

# zeros of the moving-average part this close to |z| = 1 are boundary cases
# (reported, not fatal); strictly smaller moduli violate invertibility
CF_BOUNDARY_MARGIN = 1e-9

# truncation rule of simulate (see there)
SIM_DECAY_RTOL = 1e-12
SIM_HORIZON_CAP = 10_000


class RankDeficientC0(Exception):
    """rank(C0) < m: no orthogonal rotation can reach the canonical form."""


class NotInvertible(Exception):
    """The transfer function loses rank inside the open unit disk."""


@dataclass(frozen=True)
class TransferSeries:
    """Leading Taylor coefficients C_0..C_N of the solution transfer function."""

    coeffs: np.ndarray  # (N + 1, n, m)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, j: int) -> np.ndarray:
        if 0 <= j <= self.horizon:
            return np.array(self.coeffs[j])
        return np.zeros(self.coeffs.shape[1:])


@dataclass(frozen=True)
class SolutionBundle:
    """Everything the solution determines at a parameter point."""

    model: Model
    factors: WHFactors
    ma_part: LaurentMatrix    # [B_minus^-1 A]_+, lags 0..kappa
    a_plus: LaurentMatrix     # B_minus [B_minus^-1 A]_+, lags -lam..kappa
    transfer: TransferSeries
    c0_canonical: bool
    c0_rank: int
    warnings: tuple = field(default_factory=tuple)


def a_plus(b_minus: LaurentMatrix, ma_part: LaurentMatrix) -> LaurentMatrix:
    """Extended shock loading B_minus * [B_minus^-1 A]_+ (lags -lam..kappa)."""
    return lp_mul(b_minus, ma_part)


def transfer_series(b_plus: LaurentMatrix, ma_part: LaurentMatrix, horizon: int) -> TransferSeries:
    """C_0..C_horizon solving B_plus * C = ma_part by matrix long division."""
    return TransferSeries(lp_series_divide(b_plus, ma_part, horizon))


def solve_model(model: Model, tol: ToleranceConfig | None = None,
                horizon: int | None = None) -> SolutionBundle:
    """Factorize and assemble the full solution bundle for a model."""
    fac = wh_factorize(model.B, tol)
    ma = plus_part_of_bminus_inv_a(fac.b_minus, model.A)
    ap = a_plus(fac.b_minus, ma)
    if horizon is None:
        horizon = max((model.n + 1) * model.kappa + model.lam, 2)
    transfer = transfer_series(fac.b_plus, ma, horizon)
    c0 = transfer.coefficient(0)
    rank, _, _ = numerical_rank(c0)
    return SolutionBundle(
        model=model, factors=fac, ma_part=ma, a_plus=ap, transfer=transfer,
        c0_canonical=is_canonical_staircase(c0), c0_rank=rank)


# -- canonical quasi-lower triangular form --------------------------------


def staircase_rows(c0: np.ndarray, tol: float | None = None):
    """Row index of the first nonzero entry of each column, or None per column."""
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(c0))))
    rows = []
    for j in range(c0.shape[1]):
        nz = np.nonzero(np.abs(c0[:, j]) > tol)[0]
        rows.append(int(nz[0]) if nz.size else None)
    return rows


def is_canonical_staircase(c0: np.ndarray, tol: float | None = None) -> bool:
    """First nonzero of column j positive in row i_j with i_1 < ... < i_m."""
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    rows = staircase_rows(c0, tol)
    prev = -1
    for j, r in enumerate(rows):
        if r is None or r <= prev or c0[r, j] <= 0:
            return False
        prev = r
    return True


def canonical_rotation(c0: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> np.ndarray:
    """Orthogonal V such that c0 @ V is canonical quasi-lower triangular.

    Householder sweep on c0', keeping pivot columns in strictly increasing
    order and pivots positive; full column rank of c0 is required.
    """
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    n, m = c0.shape
    if is_canonical_staircase(c0):
        return np.eye(m)
    _, _, cutoff = numerical_rank(c0, tol_rank)
    M = c0.T.copy()
    Q = np.eye(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        x = M[r:, j]
        nx = float(np.linalg.norm(x))
        if nx <= cutoff:
            continue
        v = x.copy()
        v[0] += np.copysign(nx, x[0]) if x[0] != 0 else nx
        v /= np.linalg.norm(v)
        M[r:, :] -= 2.0 * np.outer(v, v @ M[r:, :])
        Q[r:, :] -= 2.0 * np.outer(v, v @ Q[r:, :])
        if M[r, j] < 0:
            M[r, :] *= -1.0
            Q[r, :] *= -1.0
        M[r + 1:, j] = 0.0
        r += 1
    if r < m:
        raise RankDeficientC0(f"rank(C0) = {r} < m = {m}")
    return Q.T


def _rank_drop_points(ma_part: LaurentMatrix, cutoff_scale: float):
    """Closed-disk points where the n x m moving-average part M loses column rank.

    Relies on rank M(0) = m, which callers guarantee through rank(C0) = m:
    with U the m leading left singular vectors of M(0), det(U' M(z)) is then
    not identically zero, and every rank drop of M is one of its zeros (from
    :func:`lp_det_and_zeros`, infinite pencil eigenvalues excluded).  These
    are the zeros of det M when n = m; when n > m each is confirmed by the
    SVD of M(z).  Returns ``(inside, boundary)``: points in the open disk
    and within CF_BOUNDARY_MARGIN of the unit circle.
    """
    n, m = ma_part.rows, ma_part.cols
    u = np.linalg.svd(ma_part.coefficient(0))[0][:, :m]
    zeros = lp_det_and_zeros(LaurentMatrix(u.T @ ma_part.coeffs, ma_part.min_lag))
    zeros = zeros[np.abs(zeros) <= 1.0 + CF_BOUNDARY_MARGIN]
    if n > m and zeros.size:
        smin = np.linalg.svd(ma_part.value(zeros), compute_uv=False)[:, -1]
        zeros = zeros[smin <= cutoff_scale * max(ma_part.max_abs(), 1.0)]
    inside = np.abs(zeros) < 1.0 - CF_BOUNDARY_MARGIN
    return list(zeros[inside]), list(zeros[~inside])


def cf_check_and_normalize(bundle: SolutionBundle, tol_rank: float = DEFAULT_TOL_RANK):
    """Check the canonical-form conditions and rotate the bundle into them.

    Returns ``(V, normalized_bundle)`` with V orthogonal; raises
    RankDeficientC0 or NotInvertible when no rotation can satisfy them.
    Zeros of the moving-average part within the boundary band of the unit
    circle are reported as warnings on the returned bundle, not errors.
    """
    c0 = bundle.transfer.coefficient(0)
    m = bundle.model.m
    if bundle.c0_rank < m:
        raise RankDeficientC0(f"rank(C0) = {bundle.c0_rank} < m = {m}")
    inside, boundary = _rank_drop_points(bundle.ma_part, tol_rank)
    if inside:
        worst = min(inside, key=abs)
        raise NotInvertible(
            f"transfer function loses rank at |z| = {abs(worst):.6f} inside the unit disk")
    warnings = tuple(f"moving-average rank drop on the unit circle near z = {z:.6g}"
                     for z in boundary)
    v = canonical_rotation(c0, tol_rank)
    model = bundle.model
    if np.array_equal(v, np.eye(m)):
        new_bundle = bundle if not warnings else SolutionBundle(
            model=model, factors=bundle.factors, ma_part=bundle.ma_part,
            a_plus=bundle.a_plus, transfer=bundle.transfer,
            c0_canonical=True, c0_rank=bundle.c0_rank, warnings=warnings)
        return np.eye(m), new_bundle
    new_model = Model(model.B, model.A.right_multiplied(v), lam=model.lam, kappa=model.kappa)
    new_bundle = SolutionBundle(
        model=new_model,
        factors=bundle.factors,
        ma_part=bundle.ma_part.right_multiplied(v),
        a_plus=bundle.a_plus.right_multiplied(v),
        transfer=TransferSeries(bundle.transfer.coeffs @ v),
        c0_canonical=True,
        c0_rank=bundle.c0_rank,
        warnings=warnings)
    return v, new_bundle


# -- spectral density and simulation --------------------------------------


def unit_circle_grid(k: int) -> np.ndarray:
    """k points exp(2*pi*i*j/k), j = 0..k-1."""
    return np.exp(2j * np.pi * np.arange(k) / k)


def spectral_density(model: Model, a_plus_mat: LaurentMatrix, z_grid) -> np.ndarray:
    """f(z) = B^-1(z) A_plus(z) A_plus'(1/z) B^-1'(1/z) on unit-circle points.

    Returns a (k, n, n) array, one density matrix per grid point, from one
    batched solve.  Hermitian positive semidefinite by construction; the
    model-agnostic observational-equivalence oracle.
    """
    z = np.asarray(z_grid)
    bz = model.B.value(z)
    try:
        g = np.linalg.solve(bz, a_plus_mat.value(z))
    except np.linalg.LinAlgError as exc:
        worst = z[np.argmin(np.abs(np.linalg.det(bz)))]
        raise SingularMatrixError(f"B(z) singular at grid point z = {worst:.6g}") from exc
    return g @ np.conj(np.swapaxes(g, -1, -2))


def spectral_distance(bundle_a: SolutionBundle, bundle_b: SolutionBundle, z_grid):
    """Max-abs difference of the two spectral densities and the comparison scale."""
    fa = spectral_density(bundle_a.model, bundle_a.a_plus, z_grid)
    fb = spectral_density(bundle_b.model, bundle_b.a_plus, z_grid)
    return float(np.max(np.abs(fa - fb))), max(float(np.max(np.abs(fa))), 1e-12)


def autocovariances_from_spectrum(bundle: SolutionBundle, lags: int, grid_size: int = 512):
    """Autocovariances gamma(0..lags) via the inverse transform of the spectrum."""
    grid = unit_circle_grid(grid_size)
    f = spectral_density(bundle.model, bundle.a_plus, grid)
    weights = grid ** -np.arange(lags + 1)[:, None]
    return np.real(np.tensordot(weights, f, axes=1) / grid_size)


def simulate(bundle: SolutionBundle, T: int, seed: int) -> np.ndarray:
    """Sample path of length T from the truncated moving-average representation.

    It is cut at the first C_h below SIM_DECAY_RTOL * max-abs(C_0) (or at
    SIM_HORIZON_CAP), searched on series of 16, 32, 64, ... lags; the last
    series built is the one convolved with the draws.  Deterministic given the seed; innovations are i.i.d. standard normal.
    """
    c0_scale = max(float(np.max(np.abs(bundle.transfer.coefficient(0)))), 1e-300)
    h = max(bundle.transfer.horizon, 16)
    while True:
        coeffs = lp_series_divide(bundle.factors.b_plus, bundle.ma_part,
                                  min(h, SIM_HORIZON_CAP))
        small = np.flatnonzero(np.max(np.abs(coeffs), axis=(1, 2)) < SIM_DECAY_RTOL * c0_scale)
        if small.size or h >= SIM_HORIZON_CAP:
            break
        h *= 2
    h = int(small[0]) if small.size else SIM_HORIZON_CAP
    rng = np.random.default_rng(seed)
    m, n = bundle.model.m, bundle.model.n
    eps = rng.standard_normal((T + h, m))
    y = np.zeros((T, n))
    for j in range(h + 1):
        y += eps[h - j: h - j + T] @ coeffs[j].T
    return y


def sample_autocovariances(y: np.ndarray, lags: int):
    """Biased (1/T) sample autocovariances gamma_hat(0..lags), mean removed."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    T = y.shape[0]
    yc = y - y.mean(axis=0)
    out = []
    for h in range(lags + 1):
        out.append(yc[h:].T @ yc[: T - h] / T)
    return np.array(out)
