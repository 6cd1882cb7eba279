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

from .numrank import DEFAULT_TOL_RANK, numerical_rank, stacked_rank
from .polylab import (
    LaurentMatrix,
    Model,
    SingularMatrixError,
    lp_mul,
    lp_series_divide,
    series_divide,
    trim_dust,
)
from .wienerhopf import ToleranceConfig, WHFactors, bminus_inv_plus, wh_factorize
from .wienerhopf import plus_part_of_bminus_inv_a  # noqa: F401 (public here too)

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


def default_horizon(n: int, kappa: int, lam: int) -> int:
    """Transfer coefficients a solution carries: enough for the identification system."""
    return max((n + 1) * kappa + lam, 2)


def solve_stack(b_minus: np.ndarray, b_plus: np.ndarray, A: np.ndarray, horizon: int):
    """Moving-average parts, transfer series and rank(C_0) of a stack of factored models.

    b_minus (S, lam+1, n, n) holds lags -lam..0, b_plus (S, L, n, n) and
    A (S, L, n, m) hold lags 0..L-1.  Returns M = [B_minus^-1 A]_+ (dust
    trimmed, (S, L, n, m)), C_0..C_horizon ((S, horizon+1, n, m)) and the
    ranks of C_0.  Raises SingularMatrixError when some B_plus(0) is singular.
    """
    ma = trim_dust(bminus_inv_plus(b_minus, A))[0]
    transfer = series_divide(b_plus, ma, horizon)
    ranks, _, _ = stacked_rank(transfer[:, 0])
    return ma, transfer, ranks


def solve_model(model: Model, tol: ToleranceConfig | None = None,
                horizon: int | None = None) -> SolutionBundle:
    """Factorize and assemble the full solution bundle for a model."""
    fac = wh_factorize(model.B, tol)
    if horizon is None:
        horizon = default_horizon(model.n, model.kappa, model.lam)
    L = max(model.A.max_lag, fac.b_plus.max_lag, 0) + 1
    ma, transfer, ranks = solve_stack(
        fac.b_minus.coeffs[None], _lags(fac.b_plus, L)[None], _lags(model.A, L)[None], horizon)
    ma = LaurentMatrix.from_coeffs(ma[0], 0)
    transfer = TransferSeries(transfer[0])
    c0 = transfer.coefficient(0)
    return SolutionBundle(
        model=model, factors=fac, ma_part=ma, a_plus=a_plus(fac.b_minus, ma),
        transfer=transfer, c0_canonical=is_canonical_staircase(c0), c0_rank=int(ranks[0]))


def _lags(a: LaurentMatrix, L: int) -> np.ndarray:
    """Coefficients at lags 0..L-1."""
    return np.array([a.coefficient(k) for k in range(L)])


# -- canonical quasi-lower triangular form --------------------------------


def is_canonical_staircase(c0: np.ndarray, tol: float | None = None) -> bool:
    """First nonzero of column j positive in row i_j with i_1 < ... < i_m."""
    return bool(canonical_staircase_mask(np.atleast_2d(np.asarray(c0, dtype=float))[None], tol)[0])


def canonical_staircase_mask(c0: np.ndarray, tol: float | None = None) -> np.ndarray:
    """:func:`is_canonical_staircase` for each matrix of an (S, n, m) stack;
    an entry counts as nonzero above ``tol``, by default 1e-9 * max(1, max |C_0|)
    of its own matrix."""
    mag = np.abs(c0)
    if tol is None:
        tol = 1e-9 * np.maximum(mag.max(axis=(1, 2), initial=0.0), 1.0)
    nonzero = mag > np.reshape(tol, (-1, 1, 1))
    rows = nonzero.argmax(axis=1)                       # first nonzero row per column
    pivot = (np.arange(len(c0))[:, None], rows, np.arange(c0.shape[2]))
    return ((nonzero[pivot] & (c0[pivot] > 0)).all(axis=1)
            & (rows[:, 1:] > rows[:, :-1]).all(axis=1))


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
    """Closed-disk points where the n x m moving-average part M loses column
    rank (see :func:`rank_drop_stack`).  Returns ``(inside, boundary)``:
    points in the open disk and within CF_BOUNDARY_MARGIN of the unit circle.
    """
    M = np.array([ma_part.coefficient(k) for k in range(max(ma_part.max_lag, 0) + 1)])
    z, hit = rank_drop_stack(M[None], cutoff_scale)
    zeros = z[0][hit[0]]
    inside = np.abs(zeros) < 1.0 - CF_BOUNDARY_MARGIN
    return list(zeros[inside]), list(zeros[~inside])


def rank_drop_stack(M: np.ndarray, cutoff_scale: float):
    """Rank drops in the closed disk of each moving-average part of an
    (S, L, n, m) stack (lags 0..L-1).

    Relies on rank M(0) = m, which callers guarantee through rank(C0) = m:
    with U the m leading left singular vectors of M(0), Q = U'M has an
    invertible lag-0 coefficient Q_0 = U'M_0, and every rank drop of M is a
    zero of det Q.  Those are the inverses of the nonzero eigenvalues of the
    monic companion matrix of the reversed polynomial Q_0^-1 z**(L-1) Q(1/z);
    zeros of det Q at infinity (a singular lead Q_{L-1}) become eigenvalues at
    0 and drop out.  These are the zeros of det M when n = m; when n > m each
    is confirmed by the SVD of M(z).

    Returns ``(z, hit)``, each (S, (L-1)*m): candidate points and the mask of
    rank drops within CF_BOUNDARY_MARGIN of the closed disk.  Raises
    np.linalg.LinAlgError when some Q_0 is singular.
    """
    S, L, n, m = M.shape
    d = L - 1
    if d == 0:
        return np.zeros((S, 0), dtype=complex), np.zeros((S, 0), dtype=bool)
    u = np.linalg.svd(M[:, 0])[0][:, :, :m]
    Q = u.swapaxes(1, 2)[:, None] @ M
    lower = np.linalg.solve(Q[:, 0], -Q[:, :0:-1].transpose(0, 2, 1, 3).reshape(S, m, d * m))
    comp = np.zeros((S, d * m, d * m))
    comp[:, :-m, m:] = np.eye((d - 1) * m)
    comp[:, -m:] = lower
    w = np.linalg.eigvals(comp).astype(complex)
    finite = w != 0
    with np.errstate(over="ignore"):
        z = np.where(finite, 1.0 / np.where(finite, w, 1.0), 0.0)
    hit = finite & (np.abs(z) <= 1.0 + CF_BOUNDARY_MARGIN)
    if n > m and hit.any():
        Mz = np.einsum("skl,slij->skij", np.where(hit, z, 0.0)[..., None] ** np.arange(L), M)
        smin = np.linalg.svd(Mz, compute_uv=False)[..., -1]
        scale = np.maximum(np.abs(M).max(axis=(1, 2, 3)), 1.0)
        hit &= smin <= cutoff_scale * scale[:, None]
    return z, hit


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
